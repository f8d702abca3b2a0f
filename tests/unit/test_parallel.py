"""The process-parallel execution layer: contracts and determinism.

Everything here runs at tiny scale — the point is the *equivalence*
guarantees (parallel output byte-identical to serial), not throughput.
"""

import os
import random

import pytest

from repro.checks.sanitizer import (
    SanitizerError,
    current_sanitizer,
    disable_sanitizer,
    enable_sanitizer,
)
from repro.core.scheduler import dcc_schedule
from repro.network.deployment import Rectangle, build_network
from repro.network.graph import NetworkGraph
from repro.parallel import chunk_evenly, parallel_starmap, resolve_workers


def test_resolve_workers_contract():
    assert resolve_workers(1) == 1
    assert resolve_workers(5) == 5
    auto = os.cpu_count() or 1
    assert resolve_workers(None) == auto
    assert resolve_workers(0) == auto
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_chunk_evenly_is_deterministic_and_ordered():
    items = list(range(10))
    chunks = chunk_evenly(items, 3)
    assert [len(c) for c in chunks] == [4, 3, 3]
    assert [x for chunk in chunks for x in chunk] == items
    # More chunks than items: one item each, no empties.
    assert chunk_evenly([7, 8], 5) == [[7], [8]]
    assert chunk_evenly([], 4) == []
    # Same inputs, same boundaries.
    assert chunk_evenly(items, 3) == chunks


def _square(x):
    return x * x


def test_parallel_starmap_matches_inline():
    tasks = [(i,) for i in range(7)]
    assert parallel_starmap(_square, tasks, workers=1) == [i * i for i in range(7)]
    assert parallel_starmap(_square, tasks, workers=3) == [i * i for i in range(7)]


def _sweep_probe(count, bias, seed):
    if count == 13:
        raise ValueError(f"unlucky cell {bias}")
    rng = random.Random(seed)
    return {"value": count * bias + rng.randrange(100)}


def test_parallel_starmap_seeded_cells_identical_to_serial():
    tasks = [
        (count, bias, seed)
        for count in (5, 9)
        for bias in (2, 3)
        for seed in (0, 1)
    ]
    serial = parallel_starmap(_sweep_probe, tasks, workers=1)
    assert parallel_starmap(_sweep_probe, tasks, workers=2) == serial


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_starmap_raises_first_failure_in_submission_order(workers):
    # Both cells with count 13 fail; the first in submission order wins.
    tasks = [(5, 2, 0), (13, 2, 0), (9, 2, 0), (13, 3, 1)]
    with pytest.raises(ValueError) as caught:
        parallel_starmap(_sweep_probe, tasks, workers=workers)
    assert caught.value.args == ("unlucky cell 2",)


def _wrong_ball(index):
    """A task whose one sanitizer check diverges: the ball misses a
    neighbour, as a broken kernel BFS would."""
    graph = NetworkGraph(range(3), [(0, 1), (1, 2)])
    current_sanitizer().check_ball(graph, 0, 1, {0})
    return index


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_sanitizer_violation_reaches_the_caller(workers):
    sanitizer = enable_sanitizer("warn")
    try:
        assert parallel_starmap(_wrong_ball, [(0,), (1,)], workers=workers) == [0, 1]
    finally:
        disable_sanitizer()
    assert sanitizer.checks == {"ball": 2}
    assert [v.kind for v in sanitizer.violations] == ["kernel-ball-divergence"] * 2


def test_worker_sanitizer_violation_raises_in_raise_mode():
    enable_sanitizer()
    try:
        with pytest.raises(SanitizerError, match="kernel-ball-divergence"):
            parallel_starmap(_wrong_ball, [(0,), (1,)], workers=2)
    finally:
        disable_sanitizer()


@pytest.mark.parametrize("workers", [2, 0, None])
def test_unsharded_workers_require_shards(workers):
    # Worker processes only ever host region shards: a workers request
    # without shards= is refused rather than silently run serial.
    net = build_network(60, Rectangle(0, 0, 3.6, 3.6), 1.0, 1.0, seed=7)
    protected = set(net.boundary_nodes)
    with pytest.raises(ValueError, match="shards="):
        dcc_schedule(
            net.graph, protected, 4, rng=random.Random(0), workers=workers
        )
    # The same request with shards= runs, and matches the serial schedule.
    serial = dcc_schedule(net.graph, protected, 4, rng=random.Random(0), workers=1)
    sharded = dcc_schedule(
        net.graph, protected, 4, rng=random.Random(0), shards=2, workers=1
    )
    assert sharded.removed == serial.removed
