"""Unit tests for the shard subsystem: plan, halo exchange, runtime.

The correctness story has three mechanical legs, each pinned here:

* the partitioner is a pure function of ``(graph, tau, shards, seed)``
  and its halo bands are wide enough that every owned verdict can be
  answered from the partition alone;
* the halo exchange routes boundary rows to exactly the subscribing
  shards (never back to the owner) and meters the traffic;
* the owned-region guard turns any out-of-region verdict read into a
  hard :class:`~repro.topology.OwnedRegionError` instead of a silently
  wrong answer.
"""

import random

import pytest

from repro.core.scheduler import dcc_schedule
from repro.network.graph import NetworkGraph
from repro.network.topologies import triangulated_grid
from repro.shard import (
    HaloExchange,
    ShardPlan,
    build_shard_plan,
    partition_parts,
    sharded_dcc_schedule,
)
from repro.shard.runtime import LocalShard
from repro.topology import (
    LocalTopologyEngine,
    OwnedRegionError,
    neighborhood_radius,
)


def _random_graph(seed: int, nodes: int = 40, density: float = 0.15) -> NetworkGraph:
    rng = random.Random(seed)
    graph = NetworkGraph(range(nodes))
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


# ----------------------------------------------------------------------
# Partition plan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_same_seed_same_plan(self):
        graph = _random_graph(7)
        first = build_shard_plan(graph, tau=4, shards=3, seed=5)
        second = build_shard_plan(graph, tau=4, shards=3, seed=5)
        assert isinstance(first, ShardPlan)
        assert first.signature() == second.signature()

    def test_owned_regions_partition_the_vertex_set(self):
        graph = _random_graph(11)
        plan = build_shard_plan(graph, tau=3, shards=4, seed=1)
        owned = [v for spec in plan.specs for v in spec.owned]
        assert sorted(owned) == sorted(graph.vertices())
        assert len(owned) == len(set(owned))
        for spec in plan.specs:
            assert not set(spec.owned) & set(spec.halo)
            assert plan.owner[spec.owned[0]] == spec.index

    def test_halo_radius_matches_the_verdict_radius(self):
        graph = _random_graph(3)
        for tau in (3, 4, 5):
            plan = build_shard_plan(graph, tau=tau, shards=2, seed=0)
            assert plan.halo_radius == neighborhood_radius(tau)

    def test_halo_band_covers_every_owned_k_ball(self):
        graph = _random_graph(13, nodes=50, density=0.12)
        tau = 4
        plan = build_shard_plan(graph, tau=tau, shards=3, seed=2)
        k = plan.halo_radius
        for spec in plan.specs:
            members = set(spec.members)
            for v in spec.owned:
                ball = {v}
                frontier = [v]
                for _ in range(k):
                    nxt = []
                    for u in frontier:
                        for w in graph.neighbors(u):
                            if w not in ball:
                                ball.add(w)
                                nxt.append(w)
                    frontier = nxt
                assert ball <= members

    def test_subscribers_mirror_the_halo_bands(self):
        graph = _random_graph(17)
        plan = build_shard_plan(graph, tau=3, shards=3, seed=3)
        for spec in plan.specs:
            for v in spec.halo:
                assert spec.index in plan.subscribers[v]
            assert set(spec.boundary) == {
                v for v in spec.owned if v in plan.subscribers
            }

    def test_single_shard_has_empty_halo(self):
        graph = _random_graph(19)
        plan = build_shard_plan(graph, tau=4, shards=1, seed=0)
        assert plan.shard_count == 1
        assert plan.specs[0].halo == ()
        assert plan.specs[0].boundary == ()
        assert plan.subscribers == {}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_shard_plan(_random_graph(1), tau=3, shards=0)
        with pytest.raises(ValueError):
            build_shard_plan(NetworkGraph(), tau=3, shards=2)


# ----------------------------------------------------------------------
# Halo exchange
# ----------------------------------------------------------------------
class TestHaloExchange:
    def test_routes_to_subscribers_but_never_the_source(self):
        exchange = HaloExchange({10: (0, 1), 11: (1, 2)})
        deliveries = exchange.route({0: [(10, True)], 1: [(11, False)]})
        assert deliveries == {1: [(10, True)], 2: [(11, False)]}

    def test_unsubscribed_rows_are_dropped(self):
        exchange = HaloExchange({})
        assert exchange.route({0: [(5, True)]}) == {}
        assert exchange.end_round() == (0, 0)

    def test_deletion_rows_reach_every_subscriber(self):
        exchange = HaloExchange({7: (0, 2)})
        assert exchange.route_deletions([7, 8]) == {0: [7], 2: [7]}

    def test_metering_accumulates_and_resets_per_round(self):
        exchange = HaloExchange({10: (0, 1)})
        exchange.route({0: [(10, True)]})
        rows, nbytes = exchange.end_round()
        assert rows == 1 and nbytes > 0
        assert exchange.end_round() == (0, 0)
        assert exchange.rows_total == 1
        assert exchange.bytes_total == nbytes


# ----------------------------------------------------------------------
# Owned-region guard and the shard-local runtime
# ----------------------------------------------------------------------
class TestOwnedRegionGuard:
    def test_engine_guard_rejects_out_of_region_verdicts(self):
        mesh = triangulated_grid(5, 5)
        owned = frozenset(sorted(mesh.graph.vertices())[:10])
        engine = LocalTopologyEngine(mesh.graph, 3, owned=owned)
        inside = min(owned)
        outside = max(mesh.graph.vertices())
        assert outside not in owned
        engine.deletable(inside)  # owned: allowed
        with pytest.raises(OwnedRegionError):
            engine.deletable(outside)

    def test_local_shard_verdicts_stay_inside_owned(self):
        graph = _random_graph(23)
        plan = build_shard_plan(graph, tau=3, shards=2, seed=0)
        spec = plan.specs[0]
        shard = LocalShard(0, 3, partition_parts(graph, spec))
        assert shard.owned == spec.owned
        assert shard.halo == spec.halo
        # Slots are ranks in the sorted member list, disjoint and total.
        assert not shard.owned_slots & shard.halo_slots
        assert len(shard.owned_slots | shard.halo_slots) == len(spec.members)
        if spec.halo:
            with pytest.raises(OwnedRegionError):
                shard.engine.deletable(spec.halo[0])

    def test_subrounds_export_only_boundary_rows(self):
        graph = _random_graph(29)
        plan = build_shard_plan(graph, tau=3, shards=2, seed=1)
        spec = plan.specs[0]
        shard = LocalShard(0, 3, partition_parts(graph, spec))
        owned_rows = [(v, i) for i, v in enumerate(spec.owned)]
        shard.begin_round(owned_rows, [])
        while True:
            winners, exported, undecided = shard.mis_subround()
            assert {v for v, _ in exported} <= set(spec.boundary)
            if undecided == 0:
                break


# ----------------------------------------------------------------------
# Sharded scheduling end to end
# ----------------------------------------------------------------------
class TestShardedSchedule:
    def test_matches_unsharded_and_reports_stats(self):
        graph = _random_graph(31, nodes=36, density=0.2)
        protected = set(sorted(graph.vertices())[:4])
        serial = dcc_schedule(
            graph, protected, 4, rng=random.Random(9), workers=1
        )
        sharded = sharded_dcc_schedule(
            graph, protected, 4, random.Random(9), shards=3
        )
        assert sharded.removed == serial.removed
        assert sharded.deletions_per_round == serial.deletions_per_round
        assert sorted(sharded.active.vertices()) == sorted(
            serial.active.vertices()
        )
        stats = sharded.shard_stats
        assert stats.shard_count == 3
        assert sum(stats.owned_sizes) == 36
        assert stats.halo_rows_total > 0
        assert stats.halo_bytes_total > 0

    def test_single_shard_exchanges_nothing(self):
        graph = _random_graph(37, nodes=24, density=0.25)
        result = sharded_dcc_schedule(
            graph, set(), 3, random.Random(4), shards=1
        )
        assert result.shard_stats.halo_rows_total == 0
        assert result.shard_stats.halo_bytes_total == 0

    def test_dcc_schedule_routes_shards_argument(self):
        graph = _random_graph(41, nodes=24, density=0.25)
        protected = set(sorted(graph.vertices())[:3])
        plain = dcc_schedule(
            graph, protected, 3, rng=random.Random(2), workers=1
        )
        via_api = dcc_schedule(
            graph, protected, 3, rng=random.Random(2), workers=1, shards=2
        )
        assert via_api.removed == plain.removed
        assert via_api.shard_stats is not None
        assert plain.shard_stats is None

    def test_shards_reject_a_plan_for_another_tau(self):
        graph = _random_graph(43, nodes=12, density=0.3)
        with pytest.raises(ValueError):
            sharded_dcc_schedule(
                graph,
                set(),
                4,
                random.Random(0),
                shards=2,
                plan=build_shard_plan(graph, tau=3, shards=2),
            )

    def test_protected_vertices_must_exist(self):
        graph = _random_graph(47, nodes=10, density=0.3)
        with pytest.raises(KeyError):
            sharded_dcc_schedule(
                graph, {999}, 3, random.Random(0), shards=2
            )
