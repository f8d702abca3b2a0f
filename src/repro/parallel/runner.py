"""Process-parallel execution layer for independent-by-construction work.

The figure drivers' cells (independent seeds or taus, each building its
own state) are embarrassingly parallel *by construction* and run
through :func:`parallel_starmap`.  Sharded scheduling runs on
:class:`ShardWorkerPool`, whose persistent workers each own a fixed set
of region shards.  Both follow one determinism contract:

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
* **Spans merge back the same way.**  When the ambient tracer is
  enabled (see :func:`repro.obs.tracer.observe`), every task runs under
  a fresh capture-local :class:`~repro.obs.tracer.Tracer` whose spans
  ship back with the result and import in *submission order* — in both
  the worker-pool path and the serial inline path, so a serial run and
  a fanned-out run produce identical run-reports once the volatile
  wall-clock fields are stripped (DESIGN.md section 6).  A pool task's
  sanitizer checks and violations ship back too and fold into the
  caller's sanitizer in submission order, so ``REPRO_SANITIZE`` reports
  the same account at any worker count.
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
from repro.obs.tracer import Tracer, current_tracer, observe, reset_ambient


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
    with seed 0, so pool workers — which inherit the environment — build
    their own worker-local stream.  Tests that need another stream
    construct :class:`ChaosSchedule` directly.
    """
    global _CHAOS
    if not knobs.get_flag("REPRO_CHAOS"):
        return None
    if _CHAOS is None:
        _CHAOS = ChaosSchedule(0)
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
    label: str, capture: bool, func: Callable[..., Any], *args: Any
) -> Tuple[Any, Any, Any]:
    """Run one task and return its result with what observed it.

    With ``capture``, installs a per-task :class:`Tracer` as the ambient
    observer for the duration of the call and returns its picklable
    export (``None`` otherwise).  Used identically by the worker-pool
    and serial-inline paths of :func:`parallel_starmap`, so what gets
    captured does not depend on where the task ran.  The spans ship as
    an aligned v2 payload labelled ``label`` (the submission index, e.g.
    ``task3``), so merged spans carry a deterministic ``proc`` attribute
    and true timeline positions.  The last element is the task's
    sanitizer account (:meth:`Sanitizer.since`), ``None`` when no
    sanitizer is active.
    """
    chaos = current_chaos()
    if chaos is not None:
        # Seeded jitter (pool workers inherit REPRO_CHAOS through the
        # environment): perturbs completion order, never results.
        chaos.delay()
    sanitizer = current_sanitizer()
    mark = sanitizer.mark() if sanitizer is not None else None
    if not capture:
        result = func(*args)
        spans = None
    else:
        tracer = Tracer()
        with observe(tracer):
            result = func(*args)
        spans = tracer.export_payload(process=label)
    account = sanitizer.since(mark) if sanitizer is not None else None
    return result, spans, account


def parallel_starmap(
    func: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    workers: Optional[int] = None,
) -> List[Any]:
    """``[func(*t) for t in tasks]``, fanned out, in submission order.

    ``func`` and every task must be picklable (top-level functions,
    plain-data arguments).  With one resolved worker (or at most one
    task) everything runs inline in this process.  Exceptions propagate
    from the first failing task in *submission* order; later tasks may
    already have run.

    When the *caller's* ambient tracer is enabled, every task is wrapped
    in :func:`_observed_call`: its spans import under a ``fanout.task``
    span, always in submission order.  The serial inline path performs
    the identical capture-and-import, which is what makes run-reports
    worker-count invariant modulo wall-clock fields.  Under an active
    sanitizer, each pool task's checks and violations fold into this
    process's sanitizer in submission order; inline tasks count here
    directly.
    """
    count = resolve_workers(workers)
    tracer = current_tracer()
    sanitizer = current_sanitizer()
    capture = tracer.enabled

    def consume(index: int, observed: Tuple[Any, Any, Any], pooled: bool) -> Any:
        result, spans, account = observed
        if capture:
            with tracer.trace("fanout.task", task=index):
                tracer.import_spans(spans)
        if pooled and sanitizer is not None and account is not None:
            # An inline task already counted in this process's sanitizer.
            sanitizer.absorb(*account)
        return result

    if count <= 1 or len(tasks) <= 1:
        if not capture:
            return [func(*task) for task in tasks]
        return [
            consume(i, _observed_call(f"task{i}", True, func, *task), False)
            for i, task in enumerate(tasks)
        ]
    with ProcessPoolExecutor(max_workers=count) as pool:
        futures = [
            pool.submit(_observed_call, f"task{i}", capture, func, *task)
            for i, task in enumerate(tasks)
        ]
        _chaos_wait(futures)
        return [
            consume(i, future.result(), True)
            for i, future in enumerate(futures)
        ]


# ----------------------------------------------------------------------
# Sharded scheduling: persistent warm workers, one partition per shard
# ----------------------------------------------------------------------
def _shard_worker_main(conn, parts, tau: int, capture: bool) -> None:
    """One worker process serving a :class:`~repro.shard.runtime.ShardHost`.

    ``parts`` is ``[(shard index, partition parts), ...]``; the
    partitions (CSR mirrors, verdict caches) live for the whole schedule
    and the per-round messages carry only rows.  Each message names the
    host method to call and its arguments; the reply is its result.
    """
    from repro.shard.runtime import ShardHost

    # Fork-inheritance hygiene: shard workers never observe
    # through the coordinator's ambient tracer.
    reset_ambient()
    chaos = current_chaos()
    host = ShardHost(parts, tau, capture)
    try:
        while True:
            method, args = conn.recv()
            if method == "stop":
                break
            if chaos is not None:
                # Seeded jitter: workers reply to the barrier in an
                # adversarial order; the decisions are unchanged.
                chaos.delay()
            try:
                conn.send(("ok", getattr(host, method)(*args)))
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
    at any worker count — including the in-process
    :class:`~repro.shard.runtime.ShardHost` at ``workers=1``, whose
    ``begin_round`` / ``mis_subround`` / ``finish`` calls this pool
    mirrors.
    """

    def __init__(
        self,
        parts: Iterable[Any],
        tau: int,
        workers: int,
        capture: bool = False,
    ) -> None:
        if workers < 2:
            raise ValueError("ShardWorkerPool needs at least 2 workers")
        self._procs: List[multiprocessing.Process] = []
        self._conns: List[Any] = []
        try:
            assignments = chunk_evenly(list(enumerate(parts)), workers)
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

    def _call(
        self, method: str, per_shard: Optional[Dict[int, Any]]
    ) -> Dict[int, Any]:
        """Call ``method`` on every worker's host and merge the replies.

        ``per_shard`` (keyed by shard index) is split by assignment, each
        worker getting only its own shards' entries; ``None`` calls the
        method without arguments.
        """
        payloads = [
            ()
            if per_shard is None
            else (
                {
                    index: per_shard[index]
                    for index in assigned
                    if index in per_shard
                },
            )
            for assigned in self._assigned
        ]
        merged: Dict[int, Any] = {}
        for out in self._roundtrip(method, payloads):
            merged.update(out)
        return merged

    def begin_round(self, payload: Dict[int, Any]) -> Dict[int, Any]:
        return self._call("begin_round", payload)

    def mis_subround(self, deliveries: Dict[int, list]) -> Dict[int, Any]:
        return self._call("mis_subround", deliveries)

    def finish(self) -> Dict[int, Any]:
        return self._call("finish", None)

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
