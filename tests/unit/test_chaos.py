"""Unit tests for the chaos-order sanitizer (REPRO_CHAOS).

The determinism contract says pool outputs never depend on *when* tasks
complete, only on submission-order consumption of their results.  The
chaos harness makes that claim falsifiable: with ``REPRO_CHAOS=1``
every pool barrier waits/drains in a seeded-permuted order and workers
self-delay, and the tests here assert results stay identical to the
unperturbed runs.  The worker-crash tests pin the cleanup guarantee: a
killed worker surfaces as a deterministic RuntimeError and the pool
reaps every worker it started.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from repro.core.scheduler import dcc_schedule
from repro.network.graph import NetworkGraph
from repro.parallel import runner
from repro.parallel.runner import (
    ChaosSchedule,
    ShardWorkerPool,
    chaos_summary,
    current_chaos,
    parallel_starmap,
)
from repro.shard import build_shard_plan, sharded_dcc_schedule


@pytest.fixture(autouse=True)
def _fresh_chaos(monkeypatch):
    """Each case starts with chaos off and no harness carried over."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_SEED", raising=False)
    monkeypatch.setattr(runner, "_CHAOS", None)


def _random_graph(seed: int, nodes: int = 36, density: float = 0.2) -> NetworkGraph:
    rng = random.Random(seed)
    graph = NetworkGraph(range(nodes))
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


def _live_children() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------
class TestChaosSchedule:
    def test_same_seed_same_permutations(self):
        items = list(range(12))
        first = ChaosSchedule(7)
        second = ChaosSchedule(7)
        for _ in range(5):
            assert first.permuted(items) == second.permuted(items)
        assert first.permutations == second.permutations == 5

    def test_different_seeds_diverge(self):
        items = list(range(50))
        a = ChaosSchedule(0).permuted(items)
        b = ChaosSchedule(1).permuted(items)
        assert sorted(a) == sorted(b) == items
        assert a != b

    def test_gated_on_env(self, monkeypatch):
        assert current_chaos() is None
        monkeypatch.setenv("REPRO_CHAOS", "1")
        chaos = current_chaos()
        assert chaos is not None
        # One harness per process: the counter spans the run.
        assert current_chaos() is chaos

    def test_seed_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "42")
        chaos = current_chaos()
        assert chaos is not None and chaos.seed == 42

    def test_summary_line(self, monkeypatch):
        assert chaos_summary() is None
        monkeypatch.setenv("REPRO_CHAOS", "1")
        chaos = current_chaos()
        chaos.permuted([1, 2, 3])
        chaos.permuted([4, 5])
        assert chaos_summary() == "chaos: 2 perturbed orders (seed 0)"


# ----------------------------------------------------------------------
# Pool barriers stay order-invariant under chaos
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


class TestChaosInvariance:
    def test_parallel_starmap_identical_under_chaos(self, monkeypatch):
        tasks = [(i,) for i in range(40)]
        plain = parallel_starmap(_square, tasks, workers=2)
        monkeypatch.setattr(runner, "_CHAOS", None)
        monkeypatch.setenv("REPRO_CHAOS", "1")
        chaotic = parallel_starmap(_square, tasks, workers=2)
        assert chaotic == plain == [i * i for i in range(40)]
        chaos = runner._CHAOS
        assert chaos is not None and chaos.permutations > 0

    def test_sharded_schedule_identical_under_chaos(self, monkeypatch):
        graph = _random_graph(23)
        protected = set(sorted(graph.vertices())[:3])
        serial = dcc_schedule(
            graph, protected, 4, rng=random.Random(5), workers=1
        )
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "3")
        chaotic = sharded_dcc_schedule(
            graph, protected, 4, random.Random(5), shards=2, workers=2
        )
        assert chaotic.removed == serial.removed
        assert chaotic.deletions_per_round == serial.deletions_per_round
        assert sorted(chaotic.active.vertices()) == sorted(
            serial.active.vertices()
        )
        chaos = runner._CHAOS
        assert chaos is not None and chaos.permutations > 0
        assert chaos_summary() == (
            f"chaos: {chaos.permutations} perturbed orders (seed 3)"
        )


# ----------------------------------------------------------------------
# Worker crash: deterministic error, every started worker reaped
# ----------------------------------------------------------------------
class TestWorkerCrashCleanup:
    def test_killed_worker_raises_died_mid_schedule(self):
        graph = _random_graph(29, nodes=30, density=0.25)
        plan = build_shard_plan(graph, tau=3, shards=2, seed=0)
        before = _live_children()
        pool = ShardWorkerPool(graph, plan.specs, tau=3, workers=2)
        try:
            pool._procs[0].kill()
            pool._procs[0].join(timeout=5.0)
            with pytest.raises(RuntimeError, match="died mid-schedule"):
                pool.finish()
        finally:
            pool.close()
        assert not any(proc.is_alive() for proc in pool._procs)
        assert _live_children() - before == set()

    def test_mid_schedule_kill_through_scheduler(self, monkeypatch):
        """A worker killed mid-schedule raises and leaves no worker behind.

        The scheduler's ``finally: backend.close()`` reaps the pool; the
        kill is injected through the halo-exchange barrier so the
        schedule is genuinely in flight when the worker dies.
        """
        graph = _random_graph(31, nodes=30, density=0.25)
        before = _live_children()
        real_roundtrip = ShardWorkerPool._roundtrip
        calls = {"n": 0}

        def killing_roundtrip(self, kind, payloads):
            calls["n"] += 1
            if calls["n"] == 3:
                self._procs[0].kill()
                self._procs[0].join(timeout=5.0)
            return real_roundtrip(self, kind, payloads)

        monkeypatch.setattr(ShardWorkerPool, "_roundtrip", killing_roundtrip)
        with pytest.raises(RuntimeError, match="died mid-schedule"):
            sharded_dcc_schedule(
                graph, set(), 3, random.Random(1), shards=2, workers=2
            )
        assert calls["n"] >= 3
        assert _live_children() - before == set()

    def test_pool_init_failure_reaps_started_workers(self, monkeypatch):
        # The first worker starts, the second cannot be spawned: the
        # failed constructor must still stop the one already running.
        graph = _random_graph(37, nodes=24, density=0.25)
        plan = build_shard_plan(graph, tau=3, shards=2, seed=0)
        before = _live_children()
        real_process = multiprocessing.Process
        started = []

        def second_spawn_fails(*args, **kwargs):
            if started:
                raise OSError("no processes for you")
            proc = real_process(*args, **kwargs)
            started.append(proc)
            return proc

        monkeypatch.setattr(runner.multiprocessing, "Process", second_spawn_fails)
        with pytest.raises(OSError, match="no processes"):
            ShardWorkerPool(graph, plan.specs, tau=3, workers=2)
        assert len(started) == 1
        assert not started[0].is_alive()
        assert _live_children() - before == set()
