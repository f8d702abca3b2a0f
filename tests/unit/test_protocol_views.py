"""Unit tests for the DCC protocol's local knowledge structures."""

import random

import pytest

from repro.network.topologies import triangulated_grid
from repro.runtime.protocol import DistributedDCC, _LocalView


class TestLocalView:
    def test_merge_reports_new_rows_only(self):
        view = _LocalView(3)
        assert view.merge(((1, frozenset({2, 3})),))
        assert not view.merge(((1, frozenset({2, 3})),))  # already known

    def test_merge_does_not_overwrite(self):
        """First-learned adjacency wins; gossip is append-only."""
        view = _LocalView(3)
        view.merge(((1, frozenset({2})),))
        view.merge(((1, frozenset({2, 3})),))
        assert view.adjacency[1] == frozenset({2})

    def test_forget_removes_node_and_mentions(self):
        view = _LocalView(3)
        view.merge(((1, frozenset({2, 3})), (2, frozenset({1}))))
        view.forget(2)
        assert 2 not in view.adjacency
        assert 2 not in view.adjacency[1]
        assert 2 not in view.as_graph()

    def test_stale_row_cannot_resurrect_forgotten_node(self):
        """A stale TOPOLOGY row must not bring a deleted neighbour back.

        After a DELETE makes a node ``forget(2)``, replaying a surviving
        neighbour's pre-deletion row (which still lists 2) must not
        reintroduce the edge: the key is already known, so the
        ``node not in self.adjacency`` guard rejects the stale copy and
        the cleaned-up row stands.
        """
        view = _LocalView(3)
        view.merge(((1, frozenset({2, 3})), (2, frozenset({1})), (3, frozenset({1}))))
        view.forget(2)
        assert 2 not in view.adjacency
        assert view.adjacency[1] == frozenset({3})
        # Replay 1's pre-deletion gossip row verbatim.
        assert not view.merge(((1, frozenset({2, 3})),))
        assert view.adjacency[1] == frozenset({3})
        assert 2 not in view.as_graph()

    def test_as_graph_connects_known_rows(self):
        view = _LocalView(3)
        view.merge(((1, frozenset({2})), (2, frozenset({1, 3}))))
        graph = view.as_graph()
        assert graph.has_edge(1, 2)
        assert graph.has_edge(2, 3)  # 3 known only as a neighbour
        assert 3 in graph


class TestTopologyDiscovery:
    @pytest.mark.parametrize("tau,k", [(3, 2), (5, 3)])
    def test_every_node_learns_its_exact_k_ball(self, tau, k):
        mesh = triangulated_grid(5, 5)
        protocol = DistributedDCC(mesh.graph, [], tau, rng=random.Random(0))
        protocol._discover_topology()
        for node in mesh.graph.vertices():
            view = protocol.views[node].as_graph()
            ball = mesh.graph.k_hop_neighborhood(node, k) | {node}
            truth = mesh.graph.induced_subgraph(ball)
            for u, v in truth.edges():
                assert view.has_edge(u, v), (node, u, v)
            # k rounds of gossip carry the rows of the k-ball, no more
            assert set(protocol.views[node].adjacency) == ball, node

    def test_discovery_message_count(self):
        mesh = triangulated_grid(4, 4)
        protocol = DistributedDCC(mesh.graph, [], 3, rng=random.Random(0))
        protocol._discover_topology()
        stats = protocol.sim.stats
        # one topology broadcast per node per round, k = 2 rounds
        assert stats.messages_by_kind["topology"] == 2 * len(mesh.graph)
