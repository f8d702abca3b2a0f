"""Exact schedule counts on two fixed smoke deployments.

A uniform geometric deployment (seed 21, mean degree 9, a protected
border band one radio range wide) scheduled at tau 4 with
``random.Random(0)``.  Rounds, deletions, fresh verdict tests, BFS
expansions and halo rows are deterministic, so any change to the
engine's caching or eviction policy, the kernel or the shard runtime
that alters the work done or the schedule shows up here as a literal
mismatch.
"""

import math
import random

from repro.core.scheduler import dcc_schedule
from repro.network.topologies import geometric_graph
from repro.shard import sharded_dcc_schedule

TAU = 4


def _deployment(nodes):
    rng = random.Random(21)
    side = math.sqrt(nodes * math.pi / 9.0)
    positions = {
        v: (rng.uniform(0, side), rng.uniform(0, side)) for v in range(nodes)
    }
    graph = geometric_graph(positions, 1.0)
    protected = {
        v
        for v, (x, y) in positions.items()
        if x < 1.0 or y < 1.0 or x > side - 1.0 or y > side - 1.0
    }
    return graph, protected


def test_kernel_schedule_counts_are_pinned():
    graph, protected = _deployment(400)
    result = dcc_schedule(graph, protected, TAU, rng=random.Random(0), workers=1)
    assert result.rounds == 15
    assert len(result.removed) == 197
    assert result.counters.deletability_tests == 420
    assert result.counters.bfs_expansions == 12037


def test_shard_schedule_counts_are_pinned():
    graph, protected = _deployment(1_500)
    serial = dcc_schedule(graph, protected, TAU, rng=random.Random(0), workers=1)
    sharded = sharded_dcc_schedule(
        graph, protected, TAU, random.Random(0), shards=2, workers=1
    )
    assert serial.rounds == 20
    assert len(serial.removed) == 878
    assert sharded.removed == serial.removed
    assert sharded.shard_stats.halo_rows_total == 4799
    # Pickle framing varies across Python versions: bytes get a band.
    assert abs(sharded.shard_stats.halo_bytes_total - 37109) <= 3711
    assert serial.counters.deletability_tests == 1941
    assert sharded.counters.deletability_tests == 1941
