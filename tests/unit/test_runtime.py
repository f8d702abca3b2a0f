"""Unit tests for the message-passing simulator, MIS, and DCC protocol."""

import math
import random
from itertools import combinations

import networkx as nx
import pytest

from repro.core.scheduler import dcc_schedule
from repro.core.vpt import deletable_vertices
from repro.network.deployment import Rectangle, build_network
from repro.network.graph import NetworkGraph
from repro.network.topologies import wheel_graph
from repro.runtime.messages import Message, MessageKind
from repro.runtime.mis import distributed_mis
from repro.runtime.protocol import DistributedDCC, distributed_dcc_schedule
from repro.runtime.simulator import Simulator
from repro.runtime.stats import RuntimeStats


class TestSimulator:
    def test_broadcast_reaches_neighbors_only(self):
        g = NetworkGraph(range(3), [(0, 1)])
        sim = Simulator(g)
        sim.send(Message(MessageKind.TOPOLOGY, src=0, payload=None))
        sim.step()
        assert len(sim.inbox(1)) == 1
        assert sim.inbox(2) == []
        assert sim.inbox(0) == []

    def test_messages_expire_after_one_round(self):
        g = NetworkGraph(range(2), [(0, 1)])
        sim = Simulator(g)
        sim.send(Message(MessageKind.TOPOLOGY, src=0, payload=None))
        sim.step()
        sim.step()
        assert sim.inbox(1) == []

    def test_deactivated_node_stops_relaying(self):
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        sim = Simulator(g)
        sim.deactivate(1)
        sim.send(Message(MessageKind.TOPOLOGY, src=0, payload=None))
        sim.step()
        assert sim.inbox(1) == [] and sim.inbox(2) == []

    def test_stats_accumulate(self):
        g = NetworkGraph(range(3), [(0, 1), (0, 2)])
        sim = Simulator(g)
        sim.send(Message(MessageKind.PRIORITY, src=0, payload=None))
        sim.step()
        assert sim.stats.rounds == 1
        assert sim.stats.messages_sent == 1
        assert sim.stats.messages_delivered == 2
        assert sim.stats.messages_by_kind == {"priority": 1}


class TestRuntimeStats:
    def test_merge(self):
        a, b = RuntimeStats(), RuntimeStats()
        a.record_send("x", 3)
        b.record_send("x", 1)
        b.record_send("y", 2)
        b.rounds = 4
        a.merge(b)
        assert a.messages_sent == 3
        assert a.messages_delivered == 6
        assert a.messages_by_kind == {"x": 2, "y": 1}
        assert a.rounds == 4

    def test_summary_is_readable(self):
        stats = RuntimeStats()
        stats.record_send("delete", 2)
        assert "delete=1" in stats.summary()

    def test_drop_counter_merges_and_surfaces(self):
        a, b = RuntimeStats(), RuntimeStats()
        a.record_drop("topology")
        b.record_drop("topology", 2)
        b.record_drop("priority")
        a.merge(b)
        assert a.messages_dropped == {"topology": 3, "priority": 1}
        assert "dropped[" in a.summary()

    def test_clean_run_summary_omits_drops(self):
        """No drops -> no `dropped[...]` segment; reports stay stable."""
        stats = RuntimeStats()
        stats.record_send("delete", 2)
        assert "dropped" not in stats.summary()


class TestDistributedMIS:
    def test_winners_are_separated(self, trigrid6):
        sim = Simulator(trigrid6.graph)
        rng = random.Random(3)
        winners = distributed_mis(sim, trigrid6.graph.vertices(), 3, rng)
        assert winners
        for i, u in enumerate(winners):
            dist = trigrid6.graph.bfs_distances(u)
            for v in winners[i + 1:]:
                assert dist[v] > 3 - 1

    def test_empty_candidates(self, trigrid6):
        sim = Simulator(trigrid6.graph)
        assert distributed_mis(sim, [], 2, random.Random(0)) == []

    def test_lone_candidate_wins(self, trigrid6):
        sim = Simulator(trigrid6.graph)
        assert distributed_mis(sim, [7], 2, random.Random(0)) == [7]


class TestDistributedDCC:
    def test_wheel(self):
        wheel = wheel_graph(6)
        result = distributed_dcc_schedule(
            wheel, range(6), 6, rng=random.Random(1)
        )
        assert result.removed == [6]
        assert result.num_active == 6
        assert result.stats.messages_sent > 0

    def test_matches_centralized_fixpoint(self, trigrid6):
        boundary = set(trigrid6.outer_boundary)
        result = distributed_dcc_schedule(
            trigrid6.graph, boundary, 6, rng=random.Random(2)
        )
        # valid fixpoint: nothing deletable remains
        assert deletable_vertices(result.active, 6, exclude=boundary) == []

    def test_protocol_respects_protection(self, trigrid6):
        boundary = set(trigrid6.outer_boundary)
        result = distributed_dcc_schedule(
            trigrid6.graph, boundary, 6, rng=random.Random(3)
        )
        assert boundary <= result.active.vertex_set()

    def test_local_views_learn_k_ball(self, trigrid6):
        protocol = DistributedDCC(trigrid6.graph, [], 4, rng=random.Random(0))
        protocol._discover_topology()
        node = 14  # interior
        view = protocol.views[node].as_graph()
        ball = trigrid6.graph.k_hop_neighborhood(node, 2) | {node}
        gamma_true = trigrid6.graph.induced_subgraph(ball)
        for u, v in gamma_true.edges():
            assert view.has_edge(u, v)

    def test_iteration_counting(self, trigrid6):
        boundary = set(trigrid6.outer_boundary)
        result = distributed_dcc_schedule(
            trigrid6.graph, boundary, 6, rng=random.Random(4)
        )
        assert result.iterations == result.stats.deletion_iterations
        assert result.iterations >= 1

    def test_smallest_confine_tau3(self):
        """tau = 3 is the smallest legal confine (k = 2, m = 3)."""
        g = NetworkGraph(range(5), combinations(range(5), 2))  # K5
        protocol = DistributedDCC(g, [0, 1], 3, rng=random.Random(0))
        assert protocol.k == 2 and protocol.m == 3
        result = protocol.run()
        assert sorted(result.active.vertex_set()) == [0, 1]
        assert sorted(result.removed) == [2, 3, 4]
        assert deletable_vertices(result.active, 3, exclude={0, 1}) == []

    def test_confine_below_three_raises(self):
        g = NetworkGraph(range(5), combinations(range(5), 2))  # K5
        with pytest.raises(ValueError, match="at least 3"):
            distributed_dcc_schedule(g, [0], 2)

    def test_unknown_protected_nodes_raise(self):
        """An unknown protected id is an error, as in ``dcc_schedule``;
        ignoring it would let the schedule delete all of C5."""
        c5 = NetworkGraph(range(5), [(v, (v + 1) % 5) for v in range(5)])
        for schedule in (distributed_dcc_schedule, dcc_schedule):
            with pytest.raises(KeyError, match=r"protected nodes not in graph: \[99\]"):
                schedule(c5, [99], 4)
        assert c5.vertex_set() == set(range(5))

    def test_all_candidates_protected_is_immediate_fixpoint(self, trigrid6):
        """Protecting every node leaves nothing to elect: one look, done."""
        result = distributed_dcc_schedule(
            trigrid6.graph,
            trigrid6.graph.vertices(),
            6,
            rng=random.Random(0),
        )
        assert result.removed == []
        assert result.iterations == 1
        assert result.num_active == len(trigrid6.graph)

    def test_max_iterations_exhaustion_stops_early(self, trigrid6):
        """Exhausting the budget halts cleanly short of the fixpoint."""
        boundary = set(trigrid6.outer_boundary)
        full = distributed_dcc_schedule(
            trigrid6.graph, boundary, 6, rng=random.Random(4)
        )
        assert full.iterations > 1  # the cap below genuinely binds
        capped = DistributedDCC(
            trigrid6.graph,
            boundary,
            6,
            rng=random.Random(4),
            max_iterations=1,
        ).run()
        assert capped.iterations == 1
        assert len(capped.removed) < len(full.removed)
        # Short of the fixpoint: deletable nodes remain.
        assert deletable_vertices(capped.active, 6, exclude=boundary)

    def test_stray_message_during_flood_is_counted_dropped(self):
        """A non-DELETE message arriving mid-flood lands in the drop stats."""
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        protocol = DistributedDCC(g, [], 3, rng=random.Random(0))
        protocol._discover_topology()
        assert protocol.sim.stats.messages_dropped == {}
        protocol.sim.send(
            Message(MessageKind.TOPOLOGY, src=0, payload=None)
        )
        protocol._announce_deletions([2])
        assert protocol.sim.stats.messages_dropped == {"topology": 1}

    def test_stray_message_in_discovery_and_mis_is_counted_dropped(self):
        """The gossip and MIS inbox loops count foreign kinds too."""
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        protocol = DistributedDCC(g, [], 3, rng=random.Random(0))
        sim = protocol.sim
        sim.send(Message(MessageKind.DELETE, src=0, payload=None))
        protocol._discover_topology()
        assert sim.stats.messages_dropped == {"delete": 1}
        sim.send(Message(MessageKind.TOPOLOGY, src=0, payload=None))
        distributed_mis(sim, [2], protocol.m, random.Random(0))
        assert sim.stats.messages_dropped == {"delete": 1, "topology": 1}

    def test_decisions_ignore_the_global_graph_after_discovery(self, trigrid6):
        """After discovery no decision reads the simulator's graph: a
        vertex wired into it then, which no node ever hears of, changes
        no verdict, election or deletion."""
        grid, boundary = trigrid6.graph, set(trigrid6.outer_boundary)
        plain = DistributedDCC(grid, boundary, 4, rng=random.Random(0)).run()
        haunted = DistributedDCC(grid, boundary, 4, rng=random.Random(0))
        discover = haunted._discover_topology

        def discover_then_haunt():
            discover()
            ghost = max(grid.vertices()) + 1
            for v in grid.vertices():
                haunted.sim.graph.add_edge(ghost, v)

        haunted._discover_topology = discover_then_haunt
        assert haunted.run().removed == plain.removed


def _flood_sends(graph, origin, radius):
    """Broadcasts of a flood that must cover ``radius`` hops.

    The origin sends once with ``radius - 1`` relays left; every node
    relays the first copy it hears while relays remain, and never again
    for the same origin.  A copy heard in round ``r`` has ``radius - r``
    relays left.  A node ``d >= 1`` hops out first hears the flood in
    round ``d``; the origin hears its own flood echoed back in round 2.
    """
    first_heard = {
        v: d for v, d in graph.bfs_distances(origin).items() if d >= 1
    }
    if first_heard:
        first_heard[origin] = 2
    return 1 + sum(1 for r in first_heard.values() if r < radius)


class TestFloodRadii:
    """DELETE and PRIORITY floods reach exactly the paper's balls.

    The radii come from Definition 5 (``k = ceil(tau / 2)``) and the MIS
    separation ``m = k + 1``, spelled out here rather than read from the
    runtime, so a drifted TTL shows up as a missed view update, a wrong
    send count or a message still queued when the flood returns.
    """

    @pytest.mark.parametrize("tau", [3, 4, 5, 6])
    def test_delete_flood_covers_k_ball(self, trigrid6, tau):
        grid = trigrid6.graph
        k = math.ceil(tau / 2)
        for origin in grid.vertices():
            protocol = DistributedDCC(grid, [], tau, rng=random.Random(0))
            protocol._discover_topology()
            sim = protocol.sim
            protocol._announce_deletions([origin])
            ball = grid.k_hop_neighborhood(origin, k)
            for node in sorted(ball):
                view = protocol.views[node]
                assert origin not in view.adjacency, (tau, origin, node)
                assert all(origin not in nbrs for nbrs in view.adjacency.values())
                assert origin not in view.as_graph(), (tau, origin, node)
            assert sim.stats.messages_by_kind["delete"] == _flood_sends(
                grid, origin, k
            ), (tau, origin)
            assert not any(sim.outboxes.values()), (tau, origin)

    @pytest.mark.parametrize("tau", [3, 4, 5, 6])
    def test_priority_flood_covers_m_ball(self, trigrid6, tau):
        grid = trigrid6.graph
        m = math.ceil(tau / 2) + 1
        for origin in grid.vertices():
            sim = Simulator(grid)
            winners = distributed_mis(sim, [origin], m, random.Random(0))
            assert winners == [origin]
            assert sim.stats.messages_by_kind == {
                "priority": _flood_sends(grid, origin, m)
            }, (tau, origin)
            assert not any(sim.outboxes.values()), (tau, origin)


def _small_connected_graphs():
    """Every connected graph on 2-6 vertices, up to isomorphism (142)."""
    return [
        NetworkGraph(g.nodes, g.edges)
        for g in nx.graph_atlas_g()
        if 2 <= g.number_of_nodes() <= 6 and nx.is_connected(g)
    ]


def _protocol_outcome(graph, tau, origin):
    """What the protocol computes around one deletion of ``origin``.

    Discovery, then ``origin``'s DELETE flood, then an MIS election
    among the survivors, as one iteration of ``DistributedDCC.run``
    does.  Returns the views after each flood, the per-kind send counts
    and the MIS winners.
    """
    protocol = DistributedDCC(graph, [], tau, rng=random.Random(origin))
    protocol._discover_topology()
    discovered = {v: dict(view.adjacency) for v, view in protocol.views.items()}
    protocol._announce_deletions([origin])
    announced = {v: dict(view.adjacency) for v, view in protocol.views.items()}
    sim = protocol.sim
    sim.deactivate(origin)
    winners = distributed_mis(sim, sorted(sim.active), protocol.m, protocol.rng)
    return discovered, announced, dict(sim.stats.messages_by_kind), winners


class TestInboxOrder:
    """Inbox order within a round changes nothing the protocol computes.

    Rounds are synchronous and nodes share no state within a round, so
    the order each node reads its inbox is the runtime's only
    nondeterminism.  Each run below reads every inbox of the real
    :class:`Simulator` in a seeded random order and must reproduce the
    run that reads them sorted by sender, on every connected graph with
    at most six vertices.
    """

    @pytest.mark.parametrize("tau", [3, 5])
    def test_shuffled_inboxes_match_sorted_order(self, monkeypatch, tau):
        graphs = _small_connected_graphs()
        assert len(graphs) == 142
        unpatched = Simulator.inbox

        def sorted_inbox(sim, node):
            return sorted(unpatched(sim, node), key=lambda message: message.src)

        shuffle = random.Random(tau)

        def shuffled_inbox(sim, node):
            messages = list(unpatched(sim, node))
            shuffle.shuffle(messages)
            return messages

        for graph in graphs:
            for origin in graph.vertices():
                monkeypatch.setattr(Simulator, "inbox", sorted_inbox)
                expected = _protocol_outcome(graph, tau, origin)
                monkeypatch.setattr(Simulator, "inbox", shuffled_inbox)
                got = _protocol_outcome(graph, tau, origin)
                assert got == expected, (sorted(graph.edges()), origin)


def test_engine_speedup_distributed():
    """Per-node verdict caches answer the protocol's query stream."""
    net = build_network(250, Rectangle(0, 0, 7.3, 7.3), 1.0, 1.0, seed=21)
    result = distributed_dcc_schedule(
        net.graph, set(net.boundary_nodes), 4, rng=random.Random(0)
    )
    counters = result.stats.topology
    print(
        f"queries={counters.deletability_queries} "
        f"tests={counters.deletability_tests} "
        f"spans={counters.span_computations}"
    )
    # The seed protocol re-tested every queried node from scratch (one
    # span computation per deletability query, no caching); the engine
    # answers the same query stream with >= 2x fewer span computations.
    assert counters.deletability_queries >= 2 * counters.span_computations
