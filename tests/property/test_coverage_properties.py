"""The row-interval coverage raster against a per-cell brute force.

The reference evaluates every cell against every disc with the predicate
``e*e + d*d <= rs*rs`` on the ``numpy.linspace`` grid (``i*step + start``,
last value ``stop``), and groups uncovered cells with a plain 4-connected
DFS.  The raster under test must agree cell for cell, and the report must
list the same holes with the same cells in the same order.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.coverage_eval import coverage_grid, evaluate_coverage
from repro.network.deployment import Rectangle


def _reference_coords(start, stop, num):
    step = (stop - start) / (num - 1)
    coords = [i * step + start for i in range(num)]
    coords[-1] = stop
    return coords


def _reference_raster(positions, rs, target, resolution):
    xs = _reference_coords(float(target.x0), float(target.x1), resolution)
    ys = _reference_coords(float(target.y0), float(target.y1), resolution)
    rs_sq = rs * rs
    cells = [
        [
            any(
                (x - px) * (x - px) + (y - py) * (y - py) <= rs_sq
                for px, py in positions
            )
            for x in xs
        ]
        for y in ys
    ]
    return cells, xs, ys


def _reference_components(cells):
    height, width = len(cells), len(cells[0])
    seen = [list(row) for row in cells]
    components = []
    for i in range(height):
        for j in range(width):
            if seen[i][j]:
                continue
            stack = [(i, j)]
            seen[i][j] = True
            component = []
            while stack:
                a, b = stack.pop()
                component.append((a, b))
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < height and 0 <= nb < width and not seen[na][nb]:
                        seen[na][nb] = True
                        stack.append((na, nb))
            components.append(component)
    return components


@st.composite
def cases(draw):
    x0 = draw(st.floats(-5.0, 5.0))
    y0 = draw(st.floats(-5.0, 5.0))
    target = Rectangle(
        x0, y0, x0 + draw(st.floats(0.5, 20.0)), y0 + draw(st.floats(0.5, 20.0))
    )
    resolution = draw(st.integers(2, 40))
    xs = _reference_coords(target.x0, target.x1, resolution)
    ys = _reference_coords(target.y0, target.y1, resolution)
    pitch = xs[1] - xs[0]
    # free centres, some far outside the target, and centres on grid nodes
    free = st.tuples(
        st.floats(target.x0 - 10.0, target.x1 + 10.0),
        st.floats(target.y0 - 10.0, target.y1 + 10.0),
    )
    on_node = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    positions = draw(st.lists(st.one_of(free, on_node), max_size=12))
    # free radii and whole numbers of cell pitches; a radius must be
    # positive (``coverage_grid`` rejects 0)
    rs = draw(
        st.one_of(
            st.floats(0.0, 8.0, exclude_min=True),
            st.integers(1, 6).map(lambda k: k * pitch),
        )
    )
    return positions, rs, target, resolution


@given(cases())
@example(([], 1.0, Rectangle(0.0, 0.0, 4.0, 4.0), 20))
@example(([(1.0, 1.0)], 0.5, Rectangle(0.0, 0.0, 2.0, 2.0), 2))
@example(([(2.0, 2.0), (1.0, 3.0)], 1.0, Rectangle(0.0, 0.0, 4.0, 4.0), 5))
@example(([(-30.0, 2.0), (2.0, 40.0)], 3.0, Rectangle(0.0, 0.0, 4.0, 4.0), 17))
@example(([(0.1, 0.7), (0.3, 0.3)], 0.2, Rectangle(0.0, 0.0, 1.0, 1.0), 11))
# the sqrt estimate of a run's ends is one cell short on the left ...
@example(
    (
        [(0.23529411764705882, 0.5882352941176471)],
        0.1764705882352941,
        Rectangle(0.0, 0.0, 1.0, 1.0),
        18,
    )
)
# ... and on the right, where a cell lies exactly on the circle
@example(
    (
        [(-0.5490469103262279, -0.26227958829099585)],
        1.0212397728803548,
        Rectangle(
            -0.5777565528354707,
            -0.5777565528354707,
            0.42224344716452933,
            0.42224344716452933,
        ),
        3,
    )
)
@settings(max_examples=150, deadline=None)
def test_raster_matches_per_cell_reference(case):
    positions, rs, target, resolution = case
    rows, xs, ys = coverage_grid(positions, rs, target, resolution)
    cells, ref_xs, ref_ys = _reference_raster(positions, rs, target, resolution)
    assert xs == ref_xs
    assert ys == ref_ys
    assert xs == np.linspace(target.x0, target.x1, resolution).tolist()
    assert ys == np.linspace(target.y0, target.y1, resolution).tolist()
    assert [list(map(bool, row)) for row in rows] == cells

    report = evaluate_coverage(positions, rs, target, resolution)
    covered = sum(map(sum, cells))
    assert report.covered_fraction == covered / (resolution * resolution)
    holes = [
        [(ref_xs[j], ref_ys[i]) for i, j in component]
        for component in _reference_components(cells)
    ]
    assert [hole.cell_centers for hole in report.holes] == holes
