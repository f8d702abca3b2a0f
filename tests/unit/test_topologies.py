"""Unit tests for the canonical synthetic topologies."""

import pytest

from repro.cycles.cycle_space import cycle_space_dimension
from repro.homology.simplicial import enumerate_triangles
from repro.network.topologies import (
    annulus_network,
    cycle_graph,
    geometric_graph,
    grid_neighbor_pairs,
    mobius_band_network,
    triangulated_grid,
)


class TestMobius:
    def test_counts(self, mobius):
        assert len(mobius.graph) == 12
        assert mobius.graph.num_edges() == 28
        assert len(mobius.triangles) == 16

    def test_rips_triangles_match_declared(self, mobius):
        assert set(enumerate_triangles(mobius.graph)) == set(mobius.triangles)

    def test_triangle_sum_is_outer_boundary(self, mobius):
        """Each interior edge lies in exactly two triangles, rim edges in one."""
        from collections import Counter

        from repro.network.graph import canonical_edge

        count = Counter()
        for a, b, c in mobius.triangles:
            for e in ((a, b), (a, c), (b, c)):
                count[canonical_edge(*e)] += 1
        rim_edges = {
            canonical_edge(a, b)
            for a, b in zip(
                mobius.outer_boundary,
                mobius.outer_boundary[1:] + mobius.outer_boundary[:1],
            )
        }
        for edge, times in count.items():
            assert times == (1 if edge in rim_edges else 2)

    def test_larger_rim(self):
        big = mobius_band_network(12)
        assert len(big.graph) == 18
        assert len(big.core_cycle) == 6

    def test_invalid_rim_rejected(self):
        with pytest.raises(ValueError):
            mobius_band_network(7)
        with pytest.raises(ValueError):
            mobius_band_network(6)


class TestGrids:
    def test_triangulated_grid_structure(self):
        mesh = triangulated_grid(4, 5)
        assert len(mesh.graph) == 20
        # edges: horizontal 4*... h = (4-1)*5, v = 4*(5-1), diag = 3*4
        assert mesh.graph.num_edges() == 15 + 16 + 12
        assert len(mesh.outer_boundary) == 14

    def test_boundary_is_simple_cycle(self):
        mesh = triangulated_grid(5, 5)
        boundary = mesh.outer_boundary
        assert len(set(boundary)) == len(boundary)
        for a, b in zip(boundary, boundary[1:] + boundary[:1]):
            assert mesh.graph.has_edge(a, b)

    def test_square_grid_has_no_triangles(self, grid5):
        assert enumerate_triangles(grid5.graph) == []

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            triangulated_grid(2, 5)


class TestAnnulus:
    def test_structure(self, annulus):
        assert len(annulus.graph) == 48  # 3 rings of 16
        assert len(annulus.outer_boundary) == 16
        assert len(annulus.inner_boundary) == 16
        assert annulus.graph.is_connected()

    def test_cycle_space(self, annulus):
        assert cycle_space_dimension(annulus.graph) == (
            annulus.graph.num_edges() - 48 + 1
        )

    def test_boundaries_are_cycles(self, annulus):
        for ring in (annulus.outer_boundary, annulus.inner_boundary):
            for a, b in zip(ring, ring[1:] + ring[:1]):
                assert annulus.graph.has_edge(a, b)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            annulus_network(outer_size=3)
        with pytest.raises(ValueError):
            annulus_network(rings=1)


class TestSimpleShapes:
    def test_cycle_graph(self):
        g = cycle_graph(5)
        assert len(g) == 5 and g.num_edges() == 5
        assert all(g.degree(v) == 2 for v in g)

    def test_cycle_too_short(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_wheel_graph(self, wheel8):
        assert wheel8.degree(8) == 8
        # rim vertices: two rim neighbours plus the hub
        assert all(wheel8.degree(v) == 3 for v in range(8))


class TestGridNeighborPairs:
    def _positions(self, seed, count, side):
        import random

        rng = random.Random(seed)
        return {
            v: (rng.uniform(0, side), rng.uniform(0, side))
            for v in range(count)
        }

    def test_matches_all_pairs_scan(self):
        from repro.network.node import distance

        positions = self._positions(3, 200, 30.0)
        radius = 4.0
        brute = sorted(
            (u, v)
            for u in positions
            for v in positions
            if u < v and distance(positions[u], positions[v]) <= radius
        )
        assert grid_neighbor_pairs(positions, radius) == brute
        assert brute  # the instance actually exercises the index

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            grid_neighbor_pairs({0: (0.0, 0.0)}, 0.0)

    def test_geometric_graph_edges(self):
        # A link iff the distance is at most the radius, inclusive.
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 0.0), 3: (6.5, 0.0)}
        graph = geometric_graph(positions, 1.5)
        assert sorted(graph.vertices()) == [0, 1, 2, 3]
        assert sorted(graph.edges()) == [(0, 1), (2, 3)]

    def test_scales_to_twenty_thousand_nodes(self):
        # The point of the spatial index: an all-pairs scan at this size
        # is ~200M distance tests; the grid finishes in about a second.
        positions = self._positions(11, 20_000, 1000.0)
        graph = geometric_graph(positions, 10.0)
        assert len(graph) == 20_000
        assert graph.num_edges() > 0

    @pytest.mark.slow
    def test_scales_to_one_hundred_thousand_nodes(self):
        positions = self._positions(13, 100_000, 2000.0)
        graph = geometric_graph(positions, 10.0)
        assert len(graph) == 100_000
        assert graph.num_edges() > 0
