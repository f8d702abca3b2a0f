"""The process-parallel execution layer: contracts and determinism.

Everything here runs at tiny scale — the point is the *equivalence*
guarantees (parallel output byte-identical to serial), not throughput.
"""

import os
import random

import pytest

from repro.analysis.sweeps import parameter_grid, run_sweep
from repro.core.scheduler import dcc_schedule
from repro.network.deployment import Rectangle, build_network
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


def _record_init(value):
    # Runs in the worker (or inline for the serial path); _square does
    # not read it — the test only checks the initializer is invoked on
    # the inline path too.
    global _INIT_SEEN
    _INIT_SEEN = value


def test_parallel_starmap_matches_inline():
    tasks = [(i,) for i in range(7)]
    assert parallel_starmap(_square, tasks, workers=1) == [i * i for i in range(7)]
    assert parallel_starmap(_square, tasks, workers=3) == [i * i for i in range(7)]
    # Inline path still runs the initializer.
    parallel_starmap(_square, [(2,)], workers=1, initializer=_record_init, initargs=(9,))
    assert _INIT_SEEN == 9


def _sweep_probe(count, bias, seed):
    if count == 13:
        raise ValueError("unlucky cell")
    rng = random.Random(seed)
    return {"value": count * bias + rng.randrange(100)}


def test_run_sweep_parallel_rows_identical_to_serial():
    grid = parameter_grid(count=(5, 9), bias=(2, 3))
    serial = run_sweep(_sweep_probe, grid, seeds=(0, 1), workers=1)
    fanned = run_sweep(_sweep_probe, grid, seeds=(0, 1), workers=2)
    assert fanned.rows == serial.rows


def test_run_sweep_parallel_error_rows_identical_to_serial():
    grid = parameter_grid(count=(5, 13), bias=(2,))
    serial = run_sweep(_sweep_probe, grid, seeds=(0,), on_error="skip", workers=1)
    fanned = run_sweep(_sweep_probe, grid, seeds=(0,), on_error="skip", workers=2)
    assert serial.rows[1]["error"] == "ValueError('unlucky cell')"
    assert fanned.rows == serial.rows


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
    with pytest.raises(ValueError, match="shards="):
        dcc_schedule(
            net.graph, protected, 4, mode="sequential", workers=workers
        )
    # The same request with shards= runs, and matches the serial schedule.
    serial = dcc_schedule(net.graph, protected, 4, rng=random.Random(0), workers=1)
    sharded = dcc_schedule(
        net.graph, protected, 4, rng=random.Random(0), shards=2, workers=1
    )
    assert sharded.removed == serial.removed
