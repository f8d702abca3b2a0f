"""Property-based tests for VPT deletion and the DCC scheduler.

The central invariant (Theorem 5): a void-preserving vertex deletion never
changes whether the boundary is tau-partitionable.  Each scheduler round
deletes an m-hop MIS of the deletable internal vertices (Section V-B).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criterion import is_tau_partitionable
from repro.checks.sanitizer import oracle_deletable
from repro.core.scheduler import dcc_schedule
from repro.core.vpt import deletable_vertices
from repro.network.topologies import triangulated_grid
from repro.topology import mis_separation


@st.composite
def thinned_grids(draw):
    """A triangulated grid with a few random interior nodes knocked out."""
    cols = draw(st.integers(min_value=4, max_value=6))
    rows = draw(st.integers(min_value=4, max_value=6))
    mesh = triangulated_grid(cols, rows)
    boundary = mesh.outer_boundary
    interior = sorted(set(mesh.graph.vertices()) - set(boundary))
    kills = draw(
        st.lists(st.sampled_from(interior), max_size=len(interior) // 3, unique=True)
    )
    graph = mesh.graph.copy()
    for v in kills:
        graph.remove_vertex(v)
    giant = max(graph.connected_components(), key=len)
    if set(boundary) - giant:
        graph = mesh.graph.copy()  # fall back to the intact mesh
    else:
        graph = graph.induced_subgraph(giant)
    return graph, boundary


class TestTheorem5:
    @given(thinned_grids(), st.integers(min_value=3, max_value=7), st.data())
    @settings(max_examples=25, deadline=None)
    def test_single_deletion_preserves_partitionability(self, case, tau, data):
        graph, boundary = case
        candidates = deletable_vertices(graph, tau, exclude=set(boundary))
        if not candidates:
            return
        victim = data.draw(st.sampled_from(candidates))
        before = is_tau_partitionable(graph, [boundary], tau)
        thinner = graph.copy()
        thinner.remove_vertex(victim)
        after = is_tau_partitionable(thinner, [boundary], tau)
        assert before == after

    @given(thinned_grids(), st.integers(min_value=3, max_value=7))
    @settings(max_examples=15, deadline=None)
    def test_full_schedule_preserves_partitionability(self, case, tau):
        graph, boundary = case
        before = is_tau_partitionable(graph, [boundary], tau)
        result = dcc_schedule(
            graph, set(boundary), tau, rng=random.Random(0)
        )
        after = is_tau_partitionable(result.active, [boundary], tau)
        assert before == after

    @given(thinned_grids(), st.integers(min_value=3, max_value=7))
    @settings(max_examples=10, deadline=None)
    def test_schedule_reaches_fixpoint(self, case, tau):
        graph, boundary = case
        result = dcc_schedule(graph, set(boundary), tau, rng=random.Random(1))
        assert deletable_vertices(result.active, tau, exclude=set(boundary)) == []


class TestRoundMIS:
    """Every round the scheduler runs is an m-hop MIS of the deletable set.

    Each round's winners are rebuilt from ``removed`` and
    ``deletions_per_round`` and checked on the graph as it stood at the
    start of that round, against the dict oracle of Definition 5.
    """

    @given(
        thinned_grids(),
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=25, deadline=None)
    def test_each_round_is_a_separated_maximal_set_of_deletable_vertices(
        self, case, tau, seed
    ):
        graph, boundary = case
        protected = set(boundary)
        result = dcc_schedule(graph, protected, tau, rng=random.Random(seed))
        m = mis_separation(tau)
        live = graph.copy()
        start = 0
        # The trailing empty batch is the round that found no winner.
        for count in result.deletions_per_round + [0]:
            winners = result.removed[start : start + count]
            start += count
            for v in winners:
                assert v not in protected
                assert oracle_deletable(live, v, tau), f"winner {v} not deletable"
            near = set()
            for i, u in enumerate(winners):
                ball = live.bfs_distances(u, cutoff=m - 1)
                # pairwise separation: no later winner within m - 1 hops
                assert ball.keys().isdisjoint(winners[i + 1 :])
                near |= ball.keys()
            # maximality: a deletable internal vertex is a winner or lies
            # within m - 1 hops of one
            for v in live.vertices():
                if v not in protected and v not in near:
                    assert not oracle_deletable(live, v, tau), (
                        f"deletable vertex {v} has no winner within {m - 1} hops"
                    )
            for v in winners:
                live.remove_vertex(v)
        assert start == len(result.removed)
