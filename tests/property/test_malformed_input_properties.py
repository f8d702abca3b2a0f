"""Malformed inputs raise; they never return an answer.

Each example takes a valid input to one public entry point and applies
exactly one mutation: repeat a boundary vertex, drop a boundary edge
from the graph, add an id the graph does not hold, negate or NaN a
radius, or NaN a position.  The mutant must raise ``ValueError`` or
``KeyError``; an answer of any kind would read as a coverage verdict
about an input that has none.  The unmutated input must still answer,
so the raise is the mutation's doing.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confine import ConfineRequirement
from repro.core.criterion import find_cycle_partition, is_tau_partitionable
from repro.geometry.coverage_eval import evaluate_coverage
from repro.network.deployment import Rectangle, build_network
from repro.network.topologies import square_grid, triangulated_grid

MALFORMED = (ValueError, KeyError)

_MESHES = st.sampled_from([triangulated_grid, square_grid])
_SIDES = st.integers(min_value=3, max_value=5)
_TAUS = st.integers(min_value=3, max_value=5)
_BAD_RADII = st.sampled_from([-1.0, math.nan])
_CRITERIA = st.sampled_from([is_tau_partitionable, find_cycle_partition])


def _mutate_boundary(data, graph, boundary):
    """``(graph, boundary)`` with one boundary mutation applied."""
    boundary = list(boundary)
    kind = data.draw(st.sampled_from(["repeat", "drop_edge", "unknown_id"]))
    if kind == "repeat":
        vertex = data.draw(st.sampled_from(boundary))
        boundary.insert(data.draw(st.integers(0, len(boundary))), vertex)
    elif kind == "drop_edge":
        i = data.draw(st.integers(0, len(boundary) - 1))
        graph = graph.copy()
        graph.remove_edge(boundary[i], boundary[(i + 1) % len(boundary)])
    else:
        unknown = max(graph.vertices()) + data.draw(st.integers(1, 50))
        boundary.insert(data.draw(st.integers(0, len(boundary))), unknown)
    return graph, boundary


@given(
    data=st.data(),
    mesh=_MESHES,
    columns=_SIDES,
    rows=_SIDES,
    tau=_TAUS,
    criterion=_CRITERIA,
)
@settings(max_examples=60, deadline=None)
def test_criterion_rejects_a_mutated_boundary(data, mesh, columns, rows, tau, criterion):
    grid = mesh(columns, rows)
    criterion(grid.graph, [grid.outer_boundary], tau)
    graph, boundary = _mutate_boundary(data, grid.graph, grid.outer_boundary)
    with pytest.raises(MALFORMED):
        criterion(graph, [boundary], tau)


_REGION = Rectangle(0.0, 0.0, 3.0, 3.0)
_POINTS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    ),
    min_size=1,
    max_size=8,
)


@given(
    data=st.data(),
    points=_POINTS,
    rs=st.floats(min_value=0.1, max_value=2.0),
    bad=_BAD_RADII,
)
@settings(max_examples=60, deadline=None)
def test_evaluate_coverage_rejects_a_bad_radius_or_position(data, points, rs, bad):
    evaluate_coverage(points, rs, _REGION, resolution=8)
    if data.draw(st.booleans(), label="mutate the radius"):
        rs = -rs if bad < 0 else bad
    else:
        i = data.draw(st.integers(0, len(points) - 1))
        x, y = points[i]
        points = list(points)
        points[i] = (math.nan, y) if data.draw(st.booleans()) else (x, math.nan)
    with pytest.raises(MALFORMED):
        evaluate_coverage(points, rs, _REGION, resolution=8)


@given(
    field=st.sampled_from(["gamma", "max_hole_diameter", "rc"]),
    gamma=st.floats(min_value=0.1, max_value=2.0),
    hole=st.floats(min_value=0.0, max_value=5.0),
    rc=st.floats(min_value=0.1, max_value=5.0),
    bad=_BAD_RADII,
)
@settings(max_examples=60, deadline=None)
def test_confine_requirement_rejects_a_bad_radius(field, gamma, hole, rc, bad):
    valid = {"gamma": gamma, "max_hole_diameter": hole, "rc": rc}
    ConfineRequirement(**valid)
    mutant = dict(valid)
    # Negating a zero hole bound leaves it valid; -1 is negative always.
    mutant[field] = bad if math.isnan(bad) or valid[field] == 0 else -valid[field]
    with pytest.raises(MALFORMED):
        ConfineRequirement(**mutant)


@given(
    field=st.sampled_from(["rc", "rs"]),
    rc=st.floats(min_value=0.8, max_value=1.5),
    rs=st.floats(min_value=0.1, max_value=2.0),
    bad=_BAD_RADII,
)
@settings(max_examples=40, deadline=None)
def test_build_network_rejects_a_bad_radius(field, rc, rs, bad):
    radii = {"rc": rc, "rs": rs}
    build_network(30, _REGION, seed=0, require_connected=False, **radii)
    mutant = dict(radii)
    mutant[field] = -radii[field] if bad < 0 else bad
    with pytest.raises(MALFORMED):
        build_network(30, _REGION, seed=0, require_connected=False, **mutant)
