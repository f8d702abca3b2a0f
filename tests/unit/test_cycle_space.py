"""Unit tests for cycles, incidence masks and the cycle-space dimension."""

import pytest

from repro.cycles.cycle_space import (
    Cycle,
    EdgeIndex,
    cycle_space_dimension,
)
from repro.network.graph import NetworkGraph


@pytest.fixture
def k4_index(k4):
    return EdgeIndex.from_graph(k4)


class TestEdgeIndex:
    def test_len_matches_edges(self, k4, k4_index):
        assert len(k4_index) == k4.num_edges() == 6

    def test_bit_is_orientation_free(self, k4_index):
        assert k4_index.bit(0, 1) == k4_index.bit(1, 0)

    def test_duplicate_edges_collapse(self):
        index = EdgeIndex([(0, 1), (1, 0), (0, 1)])
        assert len(index) == 1

    def test_mask_roundtrip(self, k4_index):
        mask = k4_index.mask_of_edges([(0, 1), (2, 3)])
        assert mask == (1 << k4_index.bit(0, 1)) | (1 << k4_index.bit(3, 2))

    def test_mask_of_edges_is_xor(self, k4_index):
        # listing an edge twice cancels it
        assert k4_index.mask_of_edges([(0, 1), (0, 1)]) == 0

    def test_vertex_cycle_mask(self, k4_index):
        mask = k4_index.mask_of_vertex_cycle([0, 1, 2])
        assert mask == k4_index.mask_of_edges([(0, 1), (1, 2), (2, 0)])

    def test_short_cycle_rejected(self, k4_index):
        with pytest.raises(ValueError):
            k4_index.mask_of_vertex_cycle([0, 1])


class TestCycle:
    def test_length_and_equality(self, k4_index):
        a = Cycle.from_vertices([0, 1, 2], k4_index)
        b = Cycle.from_vertices([1, 2, 0], k4_index)
        assert a.length == 3
        assert a == b
        assert hash(a) == hash(b)

    def test_different_cycles_unequal(self, k4_index):
        a = Cycle.from_vertices([0, 1, 2], k4_index)
        b = Cycle.from_vertices([0, 1, 3], k4_index)
        assert a != b


class TestCycleSpaceDimension:
    def test_k4_has_three_independent_cycles(self, k4):
        assert cycle_space_dimension(k4) == 3

    def test_forest_has_empty_cycle_space(self):
        g = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        assert cycle_space_dimension(g) == 0

    def test_dimension_counts_components(self):
        g = NetworkGraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert cycle_space_dimension(g) == 2
