"""Unit tests for the cycle-partition coverage criterion."""

import pytest

from repro.core.criterion import (
    boundary_edge_sum,
    cycle_edges,
    find_cycle_partition,
    is_tau_partitionable,
    partition_is_valid,
    verify_confine_coverage,
)
from repro.cycles.horton import ShortCycleSpan
from repro.network.graph import NetworkGraph
from repro.network.topologies import triangulated_grid


class TestCycleEdges:
    def test_closing_edge_implicit(self):
        assert sorted(cycle_edges([0, 1, 2])) == [(0, 1), (0, 2), (1, 2)]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            cycle_edges([0, 1])

    def test_repeated_vertex_rejected(self):
        # On the path 0-1-2-3 the walk 0-1-2-1 doubles back: its edges
        # cancel to an empty sum, which would read as covered.
        path = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="vertex 1 repeats"):
            cycle_edges([0, 1, 2, 1])
        with pytest.raises(ValueError, match="vertex 1 repeats"):
            is_tau_partitionable(path, [[0, 1, 2, 1]], 3)


class TestBoundaryEdgeSum:
    def test_single_cycle(self):
        assert sorted(boundary_edge_sum([[0, 1, 2]])) == [(0, 1), (0, 2), (1, 2)]

    def test_shared_edges_cancel(self):
        # two triangles sharing edge (0,2): the shared edge disappears
        total = boundary_edge_sum([[0, 1, 2], [0, 2, 3]])
        assert (0, 2) not in total
        assert sorted(total) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_identical_cycles_cancel_entirely(self):
        assert boundary_edge_sum([[0, 1, 2], [0, 1, 2]]) == []


class TestMalformedBoundary:
    """A boundary that is not a cycle of the graph raises; it never reads
    as "not partitionable"."""

    @pytest.fixture
    def chorded_square(self):
        return NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])

    def test_unknown_vertex_raises_key_error(self, chorded_square):
        with pytest.raises(KeyError, match="vertex 99"):
            boundary_edge_sum([[0, 1, 2, 99]], chorded_square)
        with pytest.raises(KeyError, match="vertex 99"):
            is_tau_partitionable(chorded_square, [[0, 1, 2, 99]], 3)
        with pytest.raises(KeyError, match="vertex 99"):
            find_cycle_partition(chorded_square, [[0, 1, 2, 99]], 3)
        with pytest.raises(KeyError, match="vertex 99"):
            partition_is_valid(chorded_square, [[0, 1, 2, 99]], [], 3)

    def test_non_edge_pair_raises_value_error(self, chorded_square):
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            boundary_edge_sum([[0, 1, 3]], chorded_square)
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            is_tau_partitionable(chorded_square, [[0, 1, 3]], 3)
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            find_cycle_partition(chorded_square, [[0, 1, 3]], 3)
        with pytest.raises(ValueError, match=r"\(1, 3\)"):
            partition_is_valid(chorded_square, [[0, 1, 3]], [], 3)

    def test_first_bad_item_is_named(self, chorded_square):
        # The second cycle holds two unknown vertices; the first one is named.
        with pytest.raises(KeyError, match="vertex 7"):
            is_tau_partitionable(chorded_square, [[0, 1, 2], [0, 7, 8]], 3)

    def test_subgraph_view_is_checked_too(self, chorded_square):
        view = chorded_square.subgraph_view([0, 1, 2])
        with pytest.raises(KeyError, match="vertex 3"):
            is_tau_partitionable(view, [[0, 2, 3]], 3)

    def test_valid_boundary_answers_as_before(self, chorded_square):
        assert is_tau_partitionable(chorded_square, [[0, 1, 2, 3]], 3)
        assert boundary_edge_sum([[0, 1, 2]], chorded_square) == boundary_edge_sum(
            [[0, 1, 2]]
        )


class TestPartitionability:
    def test_grid_boundary(self, grid5):
        assert is_tau_partitionable(grid5.graph, [grid5.outer_boundary], 4)
        assert not is_tau_partitionable(grid5.graph, [grid5.outer_boundary], 3)

    def test_triangulated_grid_boundary(self, trigrid6):
        assert is_tau_partitionable(trigrid6.graph, [trigrid6.outer_boundary], 3)

    def test_mobius_is_3_partitionable(self, mobius):
        assert is_tau_partitionable(mobius.graph, [mobius.outer_boundary], 3)

    def test_annulus_multi_boundary(self, annulus):
        cycles = [annulus.outer_boundary, annulus.inner_boundary]
        assert is_tau_partitionable(annulus.graph, cycles, 3)
        # with only the outer boundary the inner hole is a genuine void
        assert not is_tau_partitionable(annulus.graph, [annulus.outer_boundary], 3)

    def test_monotone_in_tau(self, grid5):
        results = [
            is_tau_partitionable(grid5.graph, [grid5.outer_boundary], tau)
            for tau in range(3, 8)
        ]
        # once partitionable, larger tau stays partitionable
        assert results == sorted(results)

    def test_requires_boundary(self, grid5):
        with pytest.raises(ValueError):
            is_tau_partitionable(grid5.graph, [], 4)

    def test_boundary_edge_missing_from_subgraph(self, grid5):
        # delete a boundary edge: the boundary cycle no longer exists there,
        # which is a malformed input, not an uncovered one
        thinner = grid5.graph.copy()
        a, b = grid5.outer_boundary[0], grid5.outer_boundary[1]
        thinner.remove_edge(a, b)
        with pytest.raises(ValueError, match=rf"\({min(a, b)}, {max(a, b)}\)"):
            is_tau_partitionable(thinner, [grid5.outer_boundary], 4)

    def test_dominated_boundary_corner_is_pinned(self):
        # The corner of a triangulated grid is dominated by its diagonal
        # neighbour; the criterion's collapse must keep it, because the
        # boundary runs through it.  Deleting the centre leaves a 6-hole.
        grid = triangulated_grid(5, 5)
        graph = grid.graph
        graph.remove_vertex(12)
        csr = graph.csr()
        members = csr.member_slots(graph.vertices())
        core, _ = csr.strong_collapse(members)
        assert csr.index[0] not in core
        assert csr.index[0] in csr.strong_collapse(members, [csr.index[0]])[0]
        edges = boundary_edge_sum([grid.outer_boundary])
        answers = []
        for tau in range(3, 7):
            oracle = ShortCycleSpan(graph, tau, use_csr=False)
            answers.append(is_tau_partitionable(graph, [grid.outer_boundary], tau))
            assert answers[-1] == oracle.contains_edges(edges)
        assert answers == [False, False, False, True]

    def test_empty_boundary_sum_is_partitionable(self, grid5):
        # Two copies of one cycle cancel: the empty sum is trivially
        # tau-partitionable, even at a tau the cycle alone fails.
        boundary = grid5.outer_boundary
        assert is_tau_partitionable(grid5.graph, [boundary, boundary], 3)


class TestVerdict:
    def test_verdict_fields(self, grid5):
        verdict = verify_confine_coverage(grid5.graph, [grid5.outer_boundary], 4)
        assert verdict.achieves_confine_coverage
        assert verdict.tau == 4
        assert verdict.short_cycle_rank == verdict.cycle_space_rank == 16

    def test_failed_verdict(self, grid5):
        verdict = verify_confine_coverage(grid5.graph, [grid5.outer_boundary], 3)
        assert not verdict.achieves_confine_coverage
        assert verdict.short_cycle_rank == 0  # grid has no triangles


class TestExplicitPartition:
    def test_partition_of_grid_boundary(self, grid5):
        partition = find_cycle_partition(grid5.graph, [grid5.outer_boundary], 4)
        assert partition is not None
        assert all(c.length <= 4 for c in partition)
        assert partition_is_valid(
            grid5.graph, [grid5.outer_boundary], partition, 4
        )

    def test_partition_of_mobius_boundary(self, mobius):
        partition = find_cycle_partition(mobius.graph, [mobius.outer_boundary], 3)
        assert partition is not None
        assert partition_is_valid(
            mobius.graph, [mobius.outer_boundary], partition, 3
        )

    def test_no_partition_returns_none(self, grid5):
        assert find_cycle_partition(grid5.graph, [grid5.outer_boundary], 3) is None

    def test_partition_invalid_when_too_long(self, grid5):
        partition = find_cycle_partition(grid5.graph, [grid5.outer_boundary], 4)
        assert not partition_is_valid(
            grid5.graph, [grid5.outer_boundary], partition, 3
        )

    def test_partition_with_missing_boundary_edge_raises(self, grid5):
        # A boundary that is not a cycle of the graph is malformed input;
        # None would read as a coverage hole.
        thinner = grid5.graph.copy()
        a, b = grid5.outer_boundary[0], grid5.outer_boundary[1]
        thinner.remove_edge(a, b)
        with pytest.raises(ValueError, match="is not an edge"):
            find_cycle_partition(thinner, [grid5.outer_boundary], 4)
