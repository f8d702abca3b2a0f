"""Property-based tests for the cycle space and Horton machinery."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cycles.cycle_space import EdgeIndex, cycle_space_dimension
from repro.cycles.gf2 import GF2Basis
from repro.cycles.horton import (
    ShortCycleSpan,
    horton_candidate_cycles,
    minimum_cycle_basis,
)
from repro.network.graph import NetworkGraph


@st.composite
def random_graphs(draw, max_nodes=10):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return NetworkGraph(range(n), edges)


class TestHortonProperties:
    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_mcb_size_and_independence(self, graph):
        nu = cycle_space_dimension(graph)
        basis = minimum_cycle_basis(graph)
        assert len(basis) == nu
        assert GF2Basis(c.mask for c in basis).rank == nu

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_mcb_total_length_minimal_vs_brute(self, graph):
        nu = cycle_space_dimension(graph)
        if nu == 0 or len(graph) > 9:
            return
        index = EdgeIndex.from_graph(graph)
        all_cycles = sorted(
            (len(c), index.mask_of_vertex_cycle(c))
            for c in nx.simple_cycles(graph.to_networkx())
            if len(c) >= 3
        )
        brute = GF2Basis()
        total = 0
        for length, mask in all_cycles:
            if brute.add(mask):
                total += length
                if brute.rank == nu:
                    break
        ours = sum(c.length for c in minimum_cycle_basis(graph))
        assert ours == total

    @given(random_graphs(), st.integers(min_value=3, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_span_test_matches_mcb(self, graph, tau):
        basis = minimum_cycle_basis(graph)
        if not basis:
            assert ShortCycleSpan(graph, tau).spans_cycle_space()
            return
        maximum = max(c.length for c in basis)
        assert ShortCycleSpan(graph, tau).spans_cycle_space() == (maximum <= tau)

    @given(random_graphs(), st.integers(min_value=3, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_span_contains_every_capped_candidate(self, graph, tau):
        span = ShortCycleSpan(graph, tau)
        for cycle in horton_candidate_cycles(graph, max_length=tau):
            assert span.contains_vertex_cycle(cycle)

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_bounded_is_monotone_in_tau(self, graph):
        results = [
            ShortCycleSpan(graph, tau).spans_cycle_space() for tau in range(3, 11)
        ]
        assert results == sorted(results)
