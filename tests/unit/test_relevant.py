"""Unit tests for the relevant (irreducible) cycle oracles of Definition 4."""

import pytest

from repro.cycles.cycle_space import Cycle, EdgeIndex
from repro.cycles.horton import horton_candidate_cycles, irreducible_cycle_bounds
from repro.cycles.relevant import is_relevant_cycle, relevant_cycles_exact
from repro.network.graph import NetworkGraph

from tests.conftest import random_graph


class TestKnownGraphs:
    def test_k4_relevant_cycles_are_the_triangles(self, k4):
        cycles = relevant_cycles_exact(k4)
        assert sorted(c.length for c in cycles) == [3, 3, 3, 3]

    def test_single_cycle_is_relevant(self, c6):
        cycles = relevant_cycles_exact(c6)
        assert [c.length for c in cycles] == [6]

    def test_wheel_rim_is_reducible(self, wheel8):
        cycles = relevant_cycles_exact(wheel8)
        # only the hub triangles are irreducible; the rim is their sum
        assert all(c.length == 3 for c in cycles)

    def test_square_grid(self, grid5):
        lengths = [c.length for c in relevant_cycles_exact(grid5.graph)]
        assert set(lengths) == {4}
        assert len(lengths) == 16

    def test_forest_has_none(self):
        g = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        assert relevant_cycles_exact(g) == []


class TestDefinitionChecks:
    def test_is_relevant_on_wheel(self, wheel8):
        assert is_relevant_cycle(wheel8, [0, 1, 8])
        assert not is_relevant_cycle(wheel8, list(range(8)))  # rim = sum

    def test_is_relevant_validates_input(self, wheel8):
        with pytest.raises(ValueError):
            is_relevant_cycle(wheel8, [0, 1])


class TestAgainstExact:
    @pytest.mark.parametrize("seed", range(10))
    def test_candidate_set_is_subset_of_exact(self, seed):
        graph = random_graph(7, 0.45, seed + 500)
        index = EdgeIndex.from_graph(graph)
        fast = {
            Cycle.from_vertices(vertices, index).mask
            for vertices in horton_candidate_cycles(graph)
            if is_relevant_cycle(graph, list(vertices))
        }
        exact = {c.mask for c in relevant_cycles_exact(graph, index)}
        assert fast <= exact

    @pytest.mark.parametrize("seed", range(10))
    def test_extreme_lengths_match_algorithm1(self, seed):
        graph = random_graph(7, 0.45, seed + 500)
        cycles = relevant_cycles_exact(graph)
        bounds = irreducible_cycle_bounds(graph)
        if not cycles:
            assert bounds.maximum == 0
            return
        lengths = [c.length for c in cycles]
        assert min(lengths) == bounds.minimum
        assert max(lengths) == bounds.maximum

    @pytest.mark.parametrize("seed", range(6))
    def test_every_exact_relevant_cycle_passes_definition(self, seed):
        graph = random_graph(6, 0.5, seed + 900)
        for cycle in relevant_cycles_exact(graph):
            assert is_relevant_cycle(graph, list(cycle.vertices))
