"""Unit tests for Horton MCB, Algorithm 1 and the short-cycle span."""

import pytest

from repro.cycles.cycle_space import EdgeIndex, cycle_space_dimension
from repro.cycles.gf2 import GF2Basis
from repro.cycles.horton import (
    IrreducibleCycleBounds,
    ShortCycleSpan,
    horton_candidate_cycles,
    irreducible_cycle_bounds,
    minimum_cycle_basis,
)
from repro.network.graph import NetworkGraph

from tests.conftest import random_graph


def brute_force_mcb_lengths(graph):
    """Greedy MCB over *all* simple cycles (exponential; tiny graphs only)."""
    import networkx as nx

    index = EdgeIndex.from_graph(graph)
    masks = sorted(
        (len(c), index.mask_of_vertex_cycle(c))
        for c in nx.simple_cycles(graph.to_networkx())
        if len(c) >= 3
    )
    nu = cycle_space_dimension(graph)
    basis = GF2Basis()
    lengths = []
    for length, mask in masks:
        if basis.add(mask):
            lengths.append(length)
            if basis.rank == nu:
                break
    return lengths


class TestCandidates:
    def test_k4_candidates_are_triangles_and_squares(self, k4):
        lengths = sorted(len(c) for c in horton_candidate_cycles(k4))
        assert lengths[:4] == [3, 3, 3, 3]

    def test_max_length_cap(self, c6):
        assert horton_candidate_cycles(c6, max_length=5) == []
        capped = horton_candidate_cycles(c6, max_length=6)
        assert [len(c) for c in capped] == [6]

    def test_forest_has_no_candidates(self):
        g = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        assert horton_candidate_cycles(g) == []

    def test_candidates_are_simple_cycles(self, trigrid6):
        for cycle in horton_candidate_cycles(trigrid6.graph, max_length=4):
            assert len(set(cycle)) == len(cycle)
            closed = list(cycle) + [cycle[0]]
            for a, b in zip(closed, closed[1:]):
                assert trigrid6.graph.has_edge(a, b)


class TestMinimumCycleBasis:
    def test_k4(self, k4):
        assert sorted(c.length for c in minimum_cycle_basis(k4)) == [3, 3, 3]

    def test_plain_cycle(self, c6):
        assert [c.length for c in minimum_cycle_basis(c6)] == [6]

    def test_wheel(self, wheel8):
        # nu = 16 - 9 + 1 = 8; all basis cycles are hub triangles
        basis = minimum_cycle_basis(wheel8)
        assert sorted(c.length for c in basis) == [3] * 8

    def test_square_grid(self, grid5):
        basis = minimum_cycle_basis(grid5.graph)
        assert sorted(c.length for c in basis) == [4] * 16

    def test_forest_empty(self):
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        assert minimum_cycle_basis(g) == []

    def test_basis_is_independent_and_spanning(self, trigrid6):
        graph = trigrid6.graph
        index = EdgeIndex.from_graph(graph)
        basis = minimum_cycle_basis(graph, index)
        assert len(basis) == cycle_space_dimension(graph)
        gf2 = GF2Basis(c.mask for c in basis)
        assert gf2.rank == len(basis)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_graphs(self, seed):
        graph = random_graph(8, 0.45, seed)
        if cycle_space_dimension(graph) == 0:
            pytest.skip("acyclic sample")
        ours = sorted(c.length for c in minimum_cycle_basis(graph))
        brute = sorted(brute_force_mcb_lengths(graph))
        assert sum(ours) == sum(brute)


class TestAlgorithm1Bounds:
    def test_forest_is_zero(self):
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        assert irreducible_cycle_bounds(g) == IrreducibleCycleBounds(0, 0)

    def test_k4(self, k4):
        assert irreducible_cycle_bounds(k4) == IrreducibleCycleBounds(3, 3)

    def test_single_cycle(self, c6):
        assert irreducible_cycle_bounds(c6) == IrreducibleCycleBounds(6, 6)

    def test_mixed_graph(self):
        # a triangle joined by a path to a 5-cycle
        g = NetworkGraph(
            range(8),
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)],
        )
        assert irreducible_cycle_bounds(g) == IrreducibleCycleBounds(3, 5)

    def test_bounded_by(self):
        bounds = IrreducibleCycleBounds(3, 5)
        assert bounds.bounded_by(5) and not bounds.bounded_by(4)


class TestShortCycleSpan:
    def test_rejects_tiny_tau(self, k4):
        with pytest.raises(ValueError):
            ShortCycleSpan(k4, 2)

    def test_spans_matches_mcb_bound(self, grid5):
        assert not ShortCycleSpan(grid5.graph, 3).spans_cycle_space()
        assert ShortCycleSpan(grid5.graph, 4).spans_cycle_space()

    def test_forest_trivially_bounded(self):
        g = NetworkGraph(range(4), [(0, 1), (2, 3)])
        assert ShortCycleSpan(g, 3).spans_cycle_space()

    def test_contains_edges_accepts_boundary(self, grid5):
        span = ShortCycleSpan(grid5.graph, 4)
        boundary = grid5.outer_boundary
        assert span.contains_vertex_cycle(boundary)

    def test_contains_edges_rejects_at_tau3(self, grid5):
        span = ShortCycleSpan(grid5.graph, 3)
        assert not span.contains_vertex_cycle(grid5.outer_boundary)

    def test_contains_rejects_foreign_edges(self, grid5):
        span = ShortCycleSpan(grid5.graph, 4)
        assert not span.contains_edges([(0, 1), (1, 99), (99, 0)])

    def test_contains_rejects_odd_degree_sets(self, grid5):
        span = ShortCycleSpan(grid5.graph, 4)
        assert not span.contains_edges([(0, 1)])

    def test_empty_edge_set_always_contained(self, grid5):
        span = ShortCycleSpan(grid5.graph, 4)
        assert span.contains_edges([])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tau", [3, 4, 5, 6, 7])
    def test_equivalence_with_mcb_maximum(self, seed, tau):
        graph = random_graph(9, 0.4, seed + 100)
        nu = cycle_space_dimension(graph)
        if nu == 0:
            pytest.skip("acyclic sample")
        maximum = max(c.length for c in minimum_cycle_basis(graph))
        assert ShortCycleSpan(graph, tau).spans_cycle_space() == (maximum <= tau)
