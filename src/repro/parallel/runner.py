"""Process-parallel execution layer for independent-by-construction work.

Two sites in the stack are embarrassingly parallel *by construction*:
sweep cells (each cell builds its own deployment from its own seed) and
repeated figure trials, which run through :func:`parallel_starmap`.
Sharded scheduling runs on :class:`ShardWorkerPool`, whose persistent
workers each own a fixed set of region shards.  Both follow one
determinism contract:

* **Work is chunked deterministically.**  Tasks are submitted in a fixed
  order derived from the caller's (already seeded) ordering and results
  are consumed in submission order — never completion order — so output
  is byte-identical to a serial run at the same seeds, regardless of
  worker count or OS scheduling.
* **Workers hold warm, worker-local state.**  A shard worker receives
  its partitions once, as pickled vertex/edge parts, and builds its own
  :class:`~repro.topology.LocalTopologyEngine` per shard — kernel CSR
  mirror, verdict cache and span memo included.  Rounds then send only
  boundary-band rows, so caches stay warm across rounds without any
  shared memory.
* **Counters merge back.**  Workers return
  :class:`~repro.topology.TopologyCounters` deltas with their results;
  the caller merges them into its own counters, so instrumentation is a
  complete account of the run no matter where the work executed.
* **Observations merge back the same way.**  When the ambient tracer is
  enabled (or an ambient metrics registry is installed — see
  :func:`repro.obs.tracer.observe`), every task runs under a fresh
  capture-local :class:`~repro.obs.tracer.Tracer` and
  :class:`~repro.obs.metrics.MetricsRegistry` whose contents ship back
  with the result and merge in *submission order* — in both the
  worker-pool path and the serial inline path, so a serial run and a
  fanned-out run produce identical run-reports once the volatile
  wall-clock fields are stripped (DESIGN.md section 6).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import knobs
from repro.checks.sanitizer import current_sanitizer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    Tracer,
    current_metrics,
    current_tracer,
    observe,
    reset_ambient,
)


# ----------------------------------------------------------------------
# Chaos-order sanitizer (REPRO_CHAOS)
# ----------------------------------------------------------------------
class ChaosSchedule:
    """Seeded adversarial perturbation of completion/consumption order.

    The determinism contract says outputs never depend on *when* tasks
    complete, only on the submission-order consumption of their results.
    With ``REPRO_CHAOS`` on, every pool barrier waits on its futures (or
    drains its pipes) in a seeded-permuted order and every worker sleeps
    a tiny seeded delay before replying — the adversarial schedule the
    contract claims to be immune to.  Reports and schedules must stay
    byte-identical to the serial baseline; CI asserts exactly that.

    The permutation stream is its own :class:`random.Random` so chaos
    never consumes the scheduler's RNG.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.permutations = 0
        self._rng = random.Random(seed)

    def permuted(self, items: Iterable[Any]) -> List[Any]:
        """A seeded shuffle of ``items`` (counted as one perturbation)."""
        out = list(items)
        self._rng.shuffle(out)
        self.permutations += 1
        return out

    def delay(self) -> None:
        """Sleep 0-2ms from the seeded stream (worker-side jitter)."""
        time.sleep(self._rng.random() * 0.002)


_CHAOS: Optional[ChaosSchedule] = None


def current_chaos() -> Optional[ChaosSchedule]:
    """The process-local chaos harness, or ``None`` when REPRO_CHAOS is off.

    Gated at call time so tests flip it per case; the harness itself is
    created once per process (the perturbation counter spans the run)
    from the env-exported seed, so pool workers — which inherit the
    environment — build their own worker-local stream.
    """
    global _CHAOS
    if not knobs.get_flag("REPRO_CHAOS"):
        return None
    if _CHAOS is None:
        _CHAOS = ChaosSchedule(knobs.get_int("REPRO_CHAOS_SEED"))
    return _CHAOS


def chaos_summary() -> Optional[str]:
    """One summary line for the CLI, or ``None`` if chaos never ran."""
    if _CHAOS is None:
        return None
    return (
        f"chaos: {_CHAOS.permutations} perturbed orders (seed {_CHAOS.seed})"
    )


def _chaos_wait(futures: Sequence[Future]) -> None:
    """Under chaos, block on ``futures`` in a seeded-permuted order.

    Results are still *consumed* in submission order by the caller;
    this only forces them to materialize in an adversarial order.
    ``Future.exception()`` waits without raising, so the first failure
    still propagates from the submission-order consumption loop.
    """
    chaos = current_chaos()
    if chaos is not None:
        for future in chaos.permuted(futures):
            future.exception()


def resolve_workers(workers: Optional[int]) -> int:
    """Worker-count contract: ``None``/``0`` auto-detect, ``1`` is serial.

    Auto-detection uses ``os.cpu_count()``; explicit positive values are
    taken as given (oversubscription is the caller's choice).
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = auto-detect)")
    return workers


def chunk_evenly(items: Sequence[Any], chunks: int) -> List[Sequence[Any]]:
    """Split ``items`` into at most ``chunks`` contiguous, ordered parts.

    Deterministic: chunk boundaries depend only on ``len(items)`` and
    ``chunks``.  Sizes differ by at most one; empty chunks are dropped.
    """
    count = len(items)
    if count == 0:
        return []
    chunks = max(1, min(chunks, count))
    size, extra = divmod(count, chunks)
    out: List[Sequence[Any]] = []
    start = 0
    for i in range(chunks):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def _observed_call(
    label: str, func: Callable[..., Any], *args: Any
) -> Tuple[Any, Any, Any]:
    """Run one task under a fresh capture-local observation.

    Installs a per-task :class:`Tracer` / :class:`MetricsRegistry` pair
    as the ambient observers for the duration of the call and returns
    their picklable exports with the result.  Used identically by the
    worker-pool and serial-inline paths of :func:`parallel_starmap`, so
    what gets captured does not depend on where the task ran.  The spans
    ship as an aligned v2 payload labelled ``label`` (the submission
    index, e.g. ``task3``), so merged spans carry a deterministic
    ``proc`` attribute and true timeline positions.
    """
    chaos = current_chaos()
    if chaos is not None:
        # Seeded jitter (pool workers inherit REPRO_CHAOS through the
        # environment): perturbs completion order, never results.
        chaos.delay()
    tracer = Tracer()
    metrics = MetricsRegistry()
    with observe(tracer, metrics):
        result = func(*args)
    return result, tracer.export_payload(process=label), metrics.to_payload()


def parallel_starmap(
    func: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    workers: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> List[Any]:
    """``[func(*t) for t in tasks]``, fanned out, in submission order.

    ``func``, ``initializer`` and every task must be picklable
    (top-level functions, plain-data arguments).  With one resolved
    worker (or at most one task) everything runs inline in this process
    — including ``initializer``, so warm-state task functions behave
    identically.  Exceptions propagate from the first failing task in
    *submission* order; later tasks may already have run.

    When the *caller's* ambient tracer is enabled (or an ambient metrics
    registry is installed), every task is wrapped in
    :func:`_observed_call`: its spans import under a ``fanout.task``
    span and its metrics merge into the ambient registry, always in
    submission order.  The serial inline path performs the identical
    capture-and-merge, which is what makes run-reports worker-count
    invariant modulo wall-clock fields.
    """
    count = resolve_workers(workers)
    tracer = current_tracer()
    metrics = current_metrics()
    capture = tracer.enabled or metrics is not None
    merged_rows: List[Any] = []

    def consume(index: int, observed: Tuple[Any, Any, Any]) -> Any:
        result, spans, rows = observed
        with tracer.trace("fanout.task", task=index):
            tracer.import_spans(spans)
        if metrics is not None:
            metrics.merge_payload(rows)
            merged_rows.append(rows)
        return result

    def check_merge() -> None:
        # Shadow-oracle: re-associate the submission-order metrics merge
        # and require the re-grouped registries to agree.
        sanitizer = current_sanitizer()
        if sanitizer is not None:
            sanitizer.check_merge(merged_rows)

    if count <= 1 or len(tasks) <= 1:
        if initializer is not None:
            initializer(*initargs)
        if not capture:
            return [func(*task) for task in tasks]
        results = [
            consume(i, _observed_call(f"task{i}", func, *task))
            for i, task in enumerate(tasks)
        ]
        check_merge()
        return results
    with ProcessPoolExecutor(
        max_workers=count, initializer=initializer, initargs=initargs
    ) as pool:
        if not capture:
            futures = [pool.submit(func, *task) for task in tasks]
            _chaos_wait(futures)
            return [future.result() for future in futures]
        futures = [
            pool.submit(_observed_call, f"task{i}", func, *task)
            for i, task in enumerate(tasks)
        ]
        _chaos_wait(futures)
        results = [
            consume(i, future.result()) for i, future in enumerate(futures)
        ]
        check_merge()
        return results


# ----------------------------------------------------------------------
# Sharded scheduling: persistent warm workers, one partition per shard
# ----------------------------------------------------------------------
def _shard_worker_main(conn, inits, tau: int, capture: bool) -> None:
    """One worker process hosting a fixed set of :class:`LocalShard`\\ s.

    ``inits`` is ``[(shard index, partition parts), ...]``; the
    partitions (CSR mirrors, verdict caches) live for the whole schedule
    and the per-round messages carry only rows.
    """
    from repro.shard.runtime import LocalShard

    # Fork-inheritance hygiene (REPRO307): shard workers never observe
    # through the coordinator's ambient tracer.
    reset_ambient()
    chaos = current_chaos()
    hosted = {
        index: LocalShard(index, tau, source, capture=capture)
        for index, source in inits
    }
    indices = sorted(hosted)
    try:
        while True:
            kind, payload = conn.recv()
            if kind == "stop":
                break
            if chaos is not None:
                # Seeded jitter: workers reply to the barrier in an
                # adversarial order; the decisions are unchanged.
                chaos.delay()
            try:
                out = None
                if kind == "begin":
                    # Payload per shard: (deletion batch, owned rows,
                    # halo rows).  The previous round's deletions ride
                    # this message, and the reply is already the first
                    # sub-round — two fewer roundtrips per round.
                    for index in indices:
                        batch, owned_rows, halo_rows = payload[index]
                        if batch:
                            hosted[index].apply_deletions(batch)
                        hosted[index].begin_round(owned_rows, halo_rows)
                    out = {
                        index: hosted[index].mis_subround()
                        for index in indices
                    }
                elif kind == "subround":
                    for index in indices:
                        rows = payload.get(index)
                        if rows:
                            hosted[index].apply_status(rows)
                    out = {
                        index: hosted[index].mis_subround()
                        for index in indices
                    }
                elif kind == "finish":
                    out = {
                        index: (
                            hosted[index].counters_snapshot(),
                            hosted[index].spans_payload(),
                        )
                        for index in indices
                    }
                else:
                    raise ValueError(f"unknown shard message {kind!r}")
                conn.send(("ok", out))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    except EOFError:  # coordinator went away; nothing left to serve
        pass
    finally:
        conn.close()


class ShardWorkerPool:
    """Persistent warm workers for sharded scheduling.

    Each worker *owns* its shards' partitions for the lifetime of the
    schedule: the partitions ship once at startup, as pickled partition
    parts, and every subsequent message is boundary-band rows.  Shards
    are assigned to workers contiguously by index (:func:`chunk_evenly`),
    and all merge points key on shard index, so results are identical
    at any worker count — including the in-process backend at
    ``workers=1``.
    """

    def __init__(
        self,
        graph,
        specs: Sequence[Any],
        tau: int,
        workers: int,
        capture: bool = False,
    ) -> None:
        from repro.shard.plan import partition_parts

        if workers < 2:
            raise ValueError("ShardWorkerPool needs at least 2 workers")
        self._procs: List[multiprocessing.Process] = []
        self._conns: List[Any] = []
        try:
            inits = [
                (index, partition_parts(graph, spec))
                for index, spec in enumerate(specs)
            ]
            assignments = chunk_evenly(inits, workers)
            self._assigned: List[List[int]] = [
                [index for index, __ in chunk] for chunk in assignments
            ]
            for chunk in assignments:
                parent_conn, child_conn = multiprocessing.Pipe()
                proc = multiprocessing.Process(
                    target=_shard_worker_main,
                    args=(child_conn, list(chunk), tau, capture),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            # A partially-built pool still owns every worker it spawned;
            # close() tolerates the partial state.
            self.close()
            raise

    def _roundtrip(self, kind: str, payloads: List[Any]) -> List[Any]:
        # Under chaos, sends and receives are both permuted: each pipe
        # carries only its own worker's reply, so the drain order across
        # pipes is free — exactly the freedom the determinism contract
        # claims not to depend on.
        chaos = current_chaos()
        indices = list(range(len(self._conns)))
        for i in chaos.permuted(indices) if chaos is not None else indices:
            try:
                self._conns[i].send((kind, payloads[i]))
            except (BrokenPipeError, OSError):
                # Dead before the request even landed: same deterministic
                # error as a mid-reply death, same cleanup path (the
                # scheduler's finally runs close()).
                raise RuntimeError(
                    f"shard worker {i} died mid-schedule "
                    f"(pipe closed before {kind!r})"
                ) from None
        outs: List[Any] = [None] * len(self._conns)
        failures: Dict[int, str] = {}
        for i in chaos.permuted(indices) if chaos is not None else indices:
            try:
                status, out = self._conns[i].recv()
            except EOFError:
                # The worker died without replying (crash, OOM kill).
                # Raising here lands in the scheduler's finally, whose
                # close() reaps the surviving workers.
                raise RuntimeError(
                    f"shard worker {i} died mid-schedule "
                    f"(no reply to {kind!r})"
                ) from None
            if status == "error":
                failures[i] = out
            outs[i] = out
        if failures:
            # Deterministic pick regardless of the drain order above.
            raise RuntimeError(
                f"shard worker failed:\n{failures[min(failures)]}"
            )
        return outs

    def _merged(self, kind: str, payloads: List[Any]) -> Dict[int, Any]:
        merged: Dict[int, Any] = {}
        for out in self._roundtrip(kind, payloads):
            merged.update(out)
        return merged

    def begin_round(
        self,
        batches: Dict[int, List[int]],
        owned_rows: List[list],
        halo_rows: List[list],
    ) -> Dict[int, Any]:
        return self._merged(
            "begin",
            [
                {
                    index: (
                        batches.get(index),
                        owned_rows[index],
                        halo_rows[index],
                    )
                    for index in assigned
                }
                for assigned in self._assigned
            ],
        )

    def mis_subround(self, deliveries: Dict[int, list]) -> Dict[int, Any]:
        return self._merged(
            "subround",
            [
                {
                    index: deliveries[index]
                    for index in assigned
                    if index in deliveries
                }
                for assigned in self._assigned
            ],
        )

    def finish(self) -> Dict[int, Any]:
        return self._merged("finish", [None] * len(self._conns))

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
