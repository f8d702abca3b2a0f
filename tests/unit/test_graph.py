"""Unit tests for the NetworkGraph adjacency structure."""

import math
import pickle
import random
import tracemalloc

import pytest

from repro.core.scheduler import dcc_schedule
from repro.network.graph import NetworkGraph, canonical_edge
from repro.network.topologies import geometric_graph, triangulated_grid


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            canonical_edge(3, 3)


class TestBasicMutation:
    def test_add_edge_creates_vertices(self):
        g = NetworkGraph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g
        assert g.has_edge(2, 1)

    def test_add_edge_rejects_self_loop(self):
        g = NetworkGraph([1])
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_remove_vertex_cleans_neighbors(self):
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        g.remove_vertex(1)
        assert 1 not in g
        assert not g.has_edge(0, 1)
        assert g.degree(0) == 0 and g.degree(2) == 0

    def test_remove_missing_vertex_raises(self):
        g = NetworkGraph([0])
        with pytest.raises(KeyError):
            g.remove_vertex(7)

    def test_remove_missing_edge_raises(self):
        g = NetworkGraph([0, 1])
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)

    def test_parallel_edges_collapse(self):
        g = NetworkGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.num_edges() == 1


class TestQueries:
    def test_len_iter_contains(self):
        g = NetworkGraph(range(4), [(0, 1)])
        assert len(g) == 4
        assert sorted(g) == [0, 1, 2, 3]
        assert 3 in g and 9 not in g

    def test_edges_are_canonical_and_unique(self):
        g = NetworkGraph(range(3), [(2, 0), (1, 2)])
        assert sorted(g.edges()) == [(0, 2), (1, 2)]

    def test_average_degree(self):
        g = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.average_degree() == pytest.approx(2.0)
        assert NetworkGraph().average_degree() == 0.0


class TestTraversal:
    def test_bfs_distances(self):
        g = NetworkGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        dist = g.bfs_distances(0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_cutoff(self):
        g = NetworkGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert set(g.bfs_distances(0, cutoff=2)) == {0, 1, 2}

    def test_k_hop_excludes_self(self):
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        assert g.k_hop_neighborhood(0, 2) == {1, 2}

    def test_k_hop_negative_raises(self):
        g = NetworkGraph([0])
        with pytest.raises(ValueError):
            g.k_hop_neighborhood(0, -1)

    def test_punctured_neighborhood_excludes_center(self, trigrid6):
        gamma = trigrid6.graph.punctured_neighborhood_graph(14, 2)
        assert 14 not in gamma
        assert len(gamma) > 0

    def test_shortest_path_endpoints(self):
        g = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        assert g.shortest_path(0, 3) == [0, 1, 2, 3]
        assert g.shortest_path(0, 0) == [0]

    def test_shortest_path_disconnected_is_none(self):
        g = NetworkGraph(range(4), [(0, 1), (2, 3)])
        assert g.shortest_path(0, 3) is None

    def test_connected_components(self):
        g = NetworkGraph(range(5), [(0, 1), (2, 3)])
        comps = sorted(g.connected_components(), key=len)
        assert [len(c) for c in comps] == [1, 2, 2]
        assert not g.is_connected()
        assert NetworkGraph().is_connected()


class TestSubgraphsAndCopies:
    def test_induced_subgraph(self):
        g = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = g.induced_subgraph([0, 1, 2])
        assert sorted(sub.edges()) == [(0, 1), (1, 2)]

    def test_induced_subgraph_missing_vertex_raises(self):
        g = NetworkGraph(range(2))
        with pytest.raises(KeyError):
            g.induced_subgraph([0, 9])

    def test_copy_is_independent(self):
        g = NetworkGraph(range(3), [(0, 1)])
        clone = g.copy()
        clone.remove_vertex(0)
        assert 0 in g and g.has_edge(0, 1)

    def test_networkx_roundtrip(self):
        g = NetworkGraph(range(4), [(0, 1), (2, 3)])
        back = NetworkGraph.from_networkx(g.to_networkx())
        assert back.edge_set() == g.edge_set()
        assert back.vertex_set() == g.vertex_set()

    def test_subgraph_view_order_is_independent_of_insertion(self):
        # 0, 8, 16 and 24 share one slot modulo an 8-slot set table, so
        # a set of them iterates in insertion order, not sorted order.
        g = NetworkGraph(range(25), [(0, 8), (8, 16), (0, 16), (16, 24)])
        forward = g.subgraph_view([0, 8, 16, 24])
        backward = g.subgraph_view([24, 16, 8, 0])
        assert forward.vertices() == backward.vertices() == [0, 8, 16, 24]
        assert forward.edges() == backward.edges()
        assert forward.edges() == sorted(forward.edges())


def _allocated(build) -> int:
    """Bytes still allocated after ``build()`` returns (result kept alive)."""
    tracemalloc.start()
    try:
        result = build()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del result
    return size


class TestCopyOnWrite:
    @pytest.fixture(scope="class")
    def udg(self):
        """A 2 000-node unit-disk graph of average degree about 9."""
        rng = random.Random(7)
        side = math.sqrt(2000 * math.pi / 9.0)
        positions = {
            v: (rng.uniform(0, side), rng.uniform(0, side)) for v in range(2000)
        }
        return geometric_graph(positions, 1.0), positions, side

    def test_copy_shares_rows_instead_of_copying_them(self, udg):
        g = udg[0]
        deep = _allocated(lambda: {v: set(g.neighbors(v)) for v in g})
        shallow = _allocated(g.copy)
        assert shallow < 0.15 * deep

    def test_schedule_leaves_its_input_untouched(self, udg):
        g, positions, side = udg
        before = g.edges()
        band = {
            v for v, (x, y) in positions.items()
            if min(x, y) < 1.0 or max(x, y) > side - 1.0
        }
        result = dcc_schedule(g, band, 4, rng=random.Random(0))
        assert result.removed
        assert g.edges() == before

    def test_source_mirror_survives_writes_to_a_copy(self):
        g = triangulated_grid(6, 6).graph
        csr = g.csr()
        before = {v: csr.ball_ids(v, 2) for v in g}
        clone = g.copy()
        clone.remove_vertex(14)
        clone.add_edge(0, 35)
        clone.remove_edge(20, 21)
        clone.csr().delete_vertex(7)
        assert g.csr() is csr
        assert {v: g.csr().ball_ids(v, 2) for v in g} == before

    def test_second_generation_copies_stay_independent(self):
        g = NetworkGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        child = g.copy()
        grandchild = child.copy()
        child.remove_vertex(1)
        grandchild.add_edge(0, 3)
        g.remove_edge(2, 3)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        assert sorted(child.edges()) == [(2, 3)]
        assert sorted(grandchild.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_pickled_pair_keeps_its_rows_apart(self):
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        a, b = pickle.loads(pickle.dumps((g, g.copy())))
        b.remove_vertex(1)
        a.add_edge(0, 2)
        assert sorted(a.edges()) == [(0, 1), (0, 2), (1, 2)]
        assert b.edges() == []
