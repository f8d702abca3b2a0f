"""Unit tests for GF(2) Betti numbers and relative homology."""

import pytest

from repro.cycles.gf2 import gf2_rank
from repro.homology.boundary_ops import (
    boundary_1_columns,
    boundary_2_columns,
    edge_chain_basis,
    vertex_chain_basis,
)
from repro.homology.homology import (
    betti_numbers,
    first_homology_trivial,
    relative_betti_1,
    relative_first_homology_trivial,
)
from repro.homology.simplicial import FenceSubcomplex, RipsComplex
from repro.network.graph import NetworkGraph


class TestBoundaryOperators:
    def test_rank_of_partial1_is_v_minus_c(self, wheel8):
        edge_basis = edge_chain_basis(wheel8)
        vertex_basis = vertex_chain_basis(wheel8)
        columns = boundary_1_columns(wheel8, edge_basis, vertex_basis)
        assert gf2_rank(columns) == len(wheel8) - 1

    def test_partial2_of_wheel(self, wheel8):
        complex_ = RipsComplex.from_graph(wheel8)
        edge_basis = edge_chain_basis(wheel8)
        columns = boundary_2_columns(complex_, edge_basis)
        # 8 triangles, cycle space dim 8: triangles span it fully
        assert gf2_rank(columns) == 8

    def test_excluded_edges_are_dropped(self, wheel8):
        complex_ = RipsComplex.from_graph(wheel8)
        rim = frozenset({(i, (i + 1) % 8 if i + 1 < 8 else 0) for i in range(8)})
        fence = FenceSubcomplex.from_cycle(list(range(8)))
        edge_basis = edge_chain_basis(wheel8, exclude=set(fence.edges))
        assert len(edge_basis) == 16 - 8


class TestAbsoluteHomology:
    def test_disk_is_trivial(self, wheel8):
        complex_ = RipsComplex.from_graph(wheel8)
        betti = betti_numbers(complex_)
        assert (betti.b0, betti.b1) == (1, 0)
        assert first_homology_trivial(complex_)

    def test_circle_has_b1_one(self, c6):
        betti = betti_numbers(RipsComplex.from_graph(c6))
        assert (betti.b0, betti.b1) == (1, 1)

    def test_mobius_band_has_b1_one(self, mobius):
        betti = betti_numbers(RipsComplex.from_graph(mobius.graph))
        assert (betti.b0, betti.b1) == (1, 1)

    def test_two_components(self):
        # two disjoint 3-cliques: both triangles are filled in the Rips
        # complex, so each component is a disk
        g = NetworkGraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        betti = betti_numbers(RipsComplex.from_graph(g))
        assert betti.b0 == 2
        assert betti.b1 == 0

    def test_annulus_band(self, annulus):
        betti = betti_numbers(RipsComplex.from_graph(annulus.graph))
        assert (betti.b0, betti.b1) == (1, 1)


class TestRelativeHomology:
    def test_disk_rel_boundary_is_trivial_h1(self, wheel8):
        complex_ = RipsComplex.from_graph(wheel8)
        fence = FenceSubcomplex.from_cycle(list(range(8)))
        assert relative_betti_1(complex_, fence) == 0
        assert relative_first_homology_trivial(complex_, fence)

    def test_annulus_rel_both_boundaries(self, annulus):
        complex_ = RipsComplex.from_graph(annulus.graph)
        fence = FenceSubcomplex.from_cycles(
            [annulus.outer_boundary, annulus.inner_boundary]
        )
        # H1(annulus, boundary) = Z over GF(2): dimension 1
        assert relative_betti_1(complex_, fence) == 1

    def test_annulus_rel_outer_only(self, annulus):
        complex_ = RipsComplex.from_graph(annulus.graph)
        fence = FenceSubcomplex.from_cycle(annulus.outer_boundary)
        # the outer circle generates H1 of the annulus, so rel H1 vanishes
        assert relative_betti_1(complex_, fence) == 0

    def test_mobius_rel_rim_is_nontrivial(self, mobius):
        complex_ = RipsComplex.from_graph(mobius.graph)
        fence = FenceSubcomplex.from_cycle(mobius.outer_boundary)
        assert relative_betti_1(complex_, fence) == 1

    def test_missing_fence_vertex_raises(self, wheel8):
        complex_ = RipsComplex.from_graph(wheel8)
        fence = FenceSubcomplex.from_cycle([100, 101, 102])
        with pytest.raises(KeyError):
            relative_betti_1(complex_, fence)

    def test_free_component_contributes_cycles(self):
        # fence on one component; the other is a hollow square whose cycle
        # is a relative 1-cycle that nothing fills
        g = NetworkGraph(
            range(7),
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)],
        )
        complex_ = RipsComplex.from_graph(g)
        fence = FenceSubcomplex.from_cycle([0, 1, 2])
        assert relative_betti_1(complex_, fence) == 1
