"""Unit tests for the DCC scheduler (maximal vertex deletion + MIS)."""

import random

import pytest

from repro.core.criterion import is_tau_partitionable
from repro.core.scheduler import dcc_schedule, is_non_redundant
from repro.core.vpt import deletable_vertices
from repro.network.topologies import wheel_graph


class TestSchedule:
    def test_wheel_hub_removed_at_tau_equal_rim(self):
        wheel = wheel_graph(6)
        rim = list(range(6))
        result = dcc_schedule(wheel, rim, 6, rng=random.Random(0))
        assert result.removed == [6]
        assert result.num_active == 6

    def test_wheel_hub_kept_at_small_tau(self):
        wheel = wheel_graph(6)
        result = dcc_schedule(wheel, range(6), 5, rng=random.Random(0))
        assert result.removed == []

    def test_protected_nodes_survive(self, trigrid6):
        boundary = set(trigrid6.outer_boundary)
        result = dcc_schedule(trigrid6.graph, boundary, 6, rng=random.Random(2))
        assert boundary <= result.coverage_set

    def test_missing_protected_raises(self, trigrid6):
        with pytest.raises(KeyError):
            dcc_schedule(trigrid6.graph, [999], 4)

    def test_fixpoint_no_deletable_left(self, trigrid6):
        boundary = set(trigrid6.outer_boundary)
        result = dcc_schedule(trigrid6.graph, boundary, 6, rng=random.Random(3))
        assert deletable_vertices(result.active, 6, exclude=boundary) == []

    def test_partitionability_preserved(self, trigrid6):
        boundary = trigrid6.outer_boundary
        assert is_tau_partitionable(trigrid6.graph, [boundary], 6)
        result = dcc_schedule(
            trigrid6.graph, set(boundary), 6, rng=random.Random(4)
        )
        assert is_tau_partitionable(result.active, [boundary], 6)

    def test_result_accounting(self, trigrid6):
        boundary = set(trigrid6.outer_boundary)
        result = dcc_schedule(trigrid6.graph, boundary, 6, rng=random.Random(6))
        assert result.num_removed == len(result.removed)
        assert result.num_active + result.num_removed == len(trigrid6.graph)
        assert sum(result.deletions_per_round) == result.num_removed
        assert result.rounds == len(result.deletions_per_round)
        assert result.counters.deletability_tests > 0

    def test_input_graph_untouched(self, trigrid6):
        before = trigrid6.graph.num_edges()
        dcc_schedule(
            trigrid6.graph, set(trigrid6.outer_boundary), 6, rng=random.Random(7)
        )
        assert trigrid6.graph.num_edges() == before


class TestNonRedundancy:
    def test_wheel_result_non_redundant(self):
        wheel = wheel_graph(6)
        rim = list(range(6))
        result = dcc_schedule(wheel, rim, 6, rng=random.Random(0))
        assert is_non_redundant(result.active, [rim], 6, rim)

    def test_unprotected_boundary_is_never_spared(self):
        # Deleting a rim vertex removes the boundary itself; the oracle
        # must count it as needed rather than query a broken boundary.
        wheel = wheel_graph(6)
        rim = list(range(6))
        result = dcc_schedule(wheel, rim, 6, rng=random.Random(0))
        assert is_non_redundant(result.active, [rim], 6, [])
        assert not is_non_redundant(wheel, [rim], 6, [])

    def test_wheel_with_hub_is_redundant(self):
        wheel = wheel_graph(6)
        rim = list(range(6))
        # the hub can be spared, so the full wheel is redundant for tau=6
        assert not is_non_redundant(wheel, [rim], 6, rim)

    def test_unpartitionable_graph_is_not_a_coverage_set(self, grid5):
        assert not is_non_redundant(
            grid5.graph, [grid5.outer_boundary], 3, grid5.outer_boundary
        )
