"""Deployment-scale benches for the sharded scheduler.

Each bench prints its entry as one JSON line.  Three claims are on
trial:

* **Identity** — the sharded scheduler removes exactly the vertices the
  unsharded engine removes, at deployment scale, whether the shards are
  hosted inline or in worker processes.  This is asserted every run.
* **Traffic locality** — cross-shard traffic is boundary-band rows, not
  state broadcast: total halo rows stay well under one row per vertex
  per round.  Also asserted every run.
* **Zero redundant verdicts** — the wave MIS tests a boundary candidate
  in exactly one shard, so the sharded run's fresh deletability tests
  equal the serial run's (``redundant_tests`` ~ 0).  Asserted every
  run; the eager per-round verdict sweep this replaced recomputed every
  owned candidate per round (~4.8x the serial test count at 10k).

Wall times are *printed*, not asserted: the per-sub-round barriers and
per-worker IPC are real costs, so sharding wins wall-clock only when
shards run on real parallel hardware.  The entry records ``cpu_count``
so the numbers are interpretable.  End-to-end timing lives in
``pipebench/`` (``sparse10k_serial`` vs ``sparse10k_sharded``).

The fast bench runs 1 500 nodes on 2 shards.  The ``slow``-marked bench
is the 100k-node fig2-style curve on the serial schedule
(``criterion=False`` skips the whole-graph GF(2) span, which is the
scaling bottleneck — the schedule itself is local work).
"""

import json
import math
import os
import random
import time

import pytest

from repro.analysis.experiments import run_fig2_vertex_deletion
from repro.core.scheduler import dcc_schedule
from repro.network.topologies import geometric_graph
from repro.shard import sharded_dcc_schedule

TAU = 4
NODES = 1_500
SHARDS = 2
TARGET_DEGREE = 9.0


def _deployment(nodes):
    """A uniform geometric deployment with a protected boundary band."""
    rng = random.Random(21)
    side = math.sqrt(nodes * math.pi / TARGET_DEGREE)
    positions = {
        v: (rng.uniform(0, side), rng.uniform(0, side)) for v in range(nodes)
    }
    graph = geometric_graph(positions, 1.0)
    band = 1.0
    protected = {
        v
        for v, (x, y) in positions.items()
        if x < band or y < band or x > side - band or y > side - band
    }
    return graph, protected


def test_shard_schedule_scale(benchmark):
    """Serial vs sharded schedule: identity, traffic, walls."""

    def measure():
        graph, protected = _deployment(NODES)
        start = time.perf_counter()
        serial = dcc_schedule(
            graph, protected, TAU, rng=random.Random(0), workers=1
        )
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        inline = sharded_dcc_schedule(
            graph, protected, TAU, random.Random(0), shards=SHARDS, workers=1
        )
        inline_wall = time.perf_counter() - start
        start = time.perf_counter()
        pooled = sharded_dcc_schedule(
            graph,
            protected,
            TAU,
            random.Random(0),
            shards=SHARDS,
            workers=SHARDS,
        )
        pooled_wall = time.perf_counter() - start
        return serial, serial_wall, inline, inline_wall, pooled, pooled_wall

    serial, serial_wall, inline, inline_wall, pooled, pooled_wall = (
        benchmark.pedantic(measure, rounds=1, iterations=1)
    )
    stats = pooled.shard_stats
    entry = {
        "nodes": NODES,
        "tau": TAU,
        "shards": SHARDS,
        "cpu_count": os.cpu_count(),
        "rounds": serial.rounds,
        "deletions": len(serial.removed),
        "removed_identical": inline.removed == serial.removed
        and pooled.removed == serial.removed,
        "serial_wall_s": round(serial_wall, 4),
        "sharded_inline_wall_s": round(inline_wall, 4),
        "sharded_pooled_wall_s": round(pooled_wall, 4),
        "halo_rows_total": stats.halo_rows_total,
        "halo_bytes_total": stats.halo_bytes_total,
        "halo_radius": stats.halo_radius,
        "owned_sizes": stats.owned_sizes,
        "halo_sizes": stats.halo_sizes,
        "serial_tests": serial.counters.deletability_tests,
        "sharded_tests": pooled.counters.deletability_tests,
        "redundant_tests": pooled.counters.deletability_tests
        - serial.counters.deletability_tests,
    }
    print()
    print(f"Sharded schedule at deployment scale: {json.dumps(entry)}")
    assert entry["removed_identical"], "sharded schedule diverged from serial"
    # Locality: halo traffic must stay far below one row per vertex per
    # round (a state broadcast would be nodes * rounds rows).
    assert stats.halo_rows_total < NODES * (serial.rounds + 1) / 4, entry
    # The wave MIS tests each boundary candidate in exactly one shard:
    # redundant tests are ~0 (a small tolerance absorbs verdict-cache
    # asymmetries between the global and partition engines).
    assert abs(entry["redundant_tests"]) <= max(
        4, entry["serial_tests"] // 200
    ), entry


@pytest.mark.slow
def test_fig2_style_curve_at_100k():
    """The 100k-node fig2-style run: completes, coverage preserved."""
    count = 100_000
    start = time.perf_counter()
    result = run_fig2_vertex_deletion(
        count=count,
        degree=TARGET_DEGREE,
        taus=(4,),
        seed=0,
        workers=1,
        criterion=False,
    )
    wall = time.perf_counter() - start
    tau = 4
    entry = {
        "nodes": count,
        "degree": TARGET_DEGREE,
        "tau": tau,
        "cpu_count": os.cpu_count(),
        "criterion": False,
        "wall_s": round(wall, 1),
        "total_nodes": result.total_nodes,
        "protected_nodes": result.protected_nodes,
        "active": result.active_by_tau[tau],
    }
    print()
    print(f"fig2-style curve at 100k nodes: {json.dumps(entry)}")
    assert result.total_nodes >= count * 0.9  # giant component of 100k
    assert 0 < result.active_by_tau[tau] < result.total_nodes
