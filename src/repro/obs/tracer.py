"""Low-overhead structured span tracing.

A :class:`Tracer` records *spans* — named, nested intervals with wall
and CPU time plus free-form attributes — into a bounded ring buffer.
Spans are recorded at **exit** time, so a parent's record always follows
its children's; every consumer (phase aggregation, the profile tree, the
timeline) relies on that exit-order nesting invariant.

The default tracer everywhere is :data:`NULL_TRACER`, whose
``enabled`` attribute is ``False``: hot paths guard their timing with a
single attribute lookup (``if tracer.enabled:``) and pay nothing else
when tracing is off.  Coarse sites (one span per scheduling round, per
figure) may call :meth:`Tracer.trace` unconditionally — the
null tracer hands back a shared no-op context manager.

An *ambient* tracer can be installed with :func:`observe`;
:func:`current_tracer` is the only way any layer (the engine, the
schedulers, the simulator, the fan-out runner) picks one up.  The
tracer is the run's one recorder: a run-report's metrics are derived
from its spans (:func:`repro.obs.export.build_run_report`).  The
ambient slot is process-global: worker processes of the parallel layer
start with the null tracer and install their own capture-local tracers
(see :mod:`repro.parallel.runner`).

Determinism contract: span *names, attributes, nesting and order* are
deterministic functions of the computation at a fixed seed; only the
``start_s`` / ``wall_s`` / ``cpu_s`` fields are volatile.  Run-report
comparisons must strip the volatile fields (see
:func:`repro.obs.export.strip_volatile`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

#: picklable wire format for a span: (name, depth, start_s, wall_s, cpu_s, attrs)
SpanTuple = Tuple[str, int, float, float, float, Dict[str, Any]]

#: schema version of the dict payload produced by :meth:`Tracer.export_payload`
PAYLOAD_VERSION = 2

DEFAULT_CAPACITY = 131_072


class Span:
    """One recorded interval.  Plain attribute bag, ``__slots__``-packed."""

    __slots__ = ("name", "depth", "start_s", "wall_s", "cpu_s", "attrs")

    def __init__(
        self,
        name: str,
        depth: int,
        start_s: float,
        wall_s: float,
        cpu_s: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.depth = depth
        self.start_s = start_s
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.attrs = attrs

    def as_tuple(self) -> SpanTuple:
        return (self.name, self.depth, self.start_s, self.wall_s, self.cpu_s, self.attrs)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "depth": self.depth,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, depth={self.depth}, "
            f"wall_s={self.wall_s:.6f}, attrs={self.attrs!r})"
        )


class _SpanHandle:
    """Context manager for one open span; records into the tracer on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        tracer._depth += 1
        self._start = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        wall = time.perf_counter() - self._start
        cpu = time.process_time() - self._cpu0
        tracer = self._tracer
        tracer._depth -= 1
        tracer._record(
            Span(
                self._name,
                tracer._depth,
                self._start - tracer._epoch,
                wall,
                cpu,
                self._attrs,
            )
        )


class _NullHandle:
    """Shared no-op handle returned by the null tracer."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Span recorder with a bounded ring buffer.

    ``capacity`` bounds memory: once full, the *oldest* spans are
    overwritten and counted in :attr:`dropped` (and surfaced as
    ``spans_dropped`` in run-reports, so truncation is never silent).
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.clear()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return self._depth

    def _record(self, span: Span) -> None:
        if len(self._buf) < self.capacity:
            self._buf.append(span)
        else:
            self._buf[self._next] = span
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    def trace(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a span: ``with tracer.trace("phase", key=value): ...``."""
        return _SpanHandle(self, name, attrs)

    def add_span(
        self, name: str, wall_s: float, cpu_s: float = 0.0, **attrs: Any
    ) -> None:
        """Record a pre-timed *leaf* span at the current nesting depth.

        For sites that time manually (e.g. around a block with multiple
        exits) and must not pay the context-manager protocol.
        """
        self._record(
            Span(
                name,
                self._depth,
                time.perf_counter() - self._epoch - wall_s,
                wall_s,
                cpu_s,
                attrs,
            )
        )

    def spans(self) -> List[Span]:
        """Recorded spans, oldest first (ring wrap accounted for)."""
        if self._next == 0:
            return list(self._buf)
        return self._buf[self._next :] + self._buf[: self._next]

    def last_span(self) -> Optional[Span]:
        if not self._buf:
            return None
        return self._buf[self._next - 1]

    def clear(self) -> None:
        """Drop every span and restart the clock."""
        self._buf: List[Span] = []
        self._next = 0
        self.dropped = 0
        self._depth = 0
        self._epoch = time.perf_counter()
        # The wall-clock instant matching self._epoch: span start offsets
        # map onto one shared timeline as epoch_unix + start_s, which is
        # how cross-process payloads align at import time.  Wall clock is
        # volatile by the determinism contract: only repro/obs/ reads it,
        # and CI's byte-diff of two example runs shows no output
        # depends on it.
        self._epoch_unix = time.time()

    # ------------------------------------------------------------------
    # Cross-process shipping
    # ------------------------------------------------------------------
    def export_payload(self, process: Optional[str] = None) -> Dict[str, Any]:
        """The v2 trace-context payload: spans plus this tracer's origin.

        ``process`` labels the exporting process (``"shard3"``,
        ``"chunk0"``); :meth:`import_spans` stamps it onto every imported
        span as a ``proc`` attribute, which is what gives the multi-lane
        timeline and the attribution analysis their lanes.
        ``epoch_unix`` is the wall-clock instant of this tracer's time
        origin, so the importer can place the spans on *its* clock by
        shifting with the epoch difference instead of pretending they
        happened at merge time.
        """
        return {
            "version": PAYLOAD_VERSION,
            "process": process,
            "epoch_unix": self._epoch_unix,
            "spans": [s.as_tuple() for s in self.spans()],
            "dropped": self.dropped,
        }

    def import_spans(self, payload: Dict[str, Any]) -> None:
        """Merge spans exported elsewhere (a worker, a nested observer).

        Depths are offset by the current open depth, so imported spans
        nest under whatever span is open at merge time; the exit-order
        invariant is preserved because the open parent's own record is
        appended later.

        The payload is an :meth:`export_payload` dict.  Its
        ``epoch_unix`` anchors the exporter's offsets onto this tracer's
        timeline, so concurrent shard/worker spans land where they
        actually ran, and its ``process`` label is stamped on every span
        as a ``proc`` attribute.  Start times stay volatile; names,
        attributes and nesting stay deterministic.
        """
        spans = payload["spans"]
        proc = payload.get("process")
        shift = payload["epoch_unix"] - self._epoch_unix
        self.dropped += payload["dropped"]
        if not spans:
            return
        offset = self._depth
        for name, depth, start_s, wall_s, cpu_s, attrs in spans:
            if proc is not None:
                attrs = dict(attrs)
                attrs.setdefault("proc", proc)
            self._record(
                Span(name, depth + offset, start_s + shift, wall_s, cpu_s, attrs)
            )


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Hot paths check ``tracer.enabled`` (one attribute lookup); coarse
    paths may call :meth:`trace` / :meth:`add_span` directly and pay one
    method call.
    """

    enabled = False
    dropped = 0
    capacity = 0
    depth = 0

    def trace(self, name: str, **attrs: Any) -> _NullHandle:
        return _NULL_HANDLE

    def add_span(
        self, name: str, wall_s: float, cpu_s: float = 0.0, **attrs: Any
    ) -> None:
        pass

    def spans(self) -> List[Span]:
        return []

    def last_span(self) -> None:
        return None

    def clear(self) -> None:
        pass

    def export_payload(self, process: Optional[str] = None) -> Dict[str, Any]:
        return {
            "version": PAYLOAD_VERSION,
            "process": process,
            "epoch_unix": 0.0,
            "spans": [],
            "dropped": 0,
        }

    def import_spans(self, payload: Dict[str, Any]) -> None:
        pass


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Ambient observation (process-global; workers install their own)
# ----------------------------------------------------------------------
_CURRENT_TRACER: Any = NULL_TRACER


def current_tracer() -> Any:
    """The ambient tracer (the null tracer unless :func:`observe` is active)."""
    return _CURRENT_TRACER


def reset_ambient() -> None:
    """Reset the ambient tracer to the null tracer.

    Worker bootstraps call this so forked pool workers never observe
    through a tracer inherited from the coordinator (fork-inheritance
    hygiene): workers capture through explicit task-local tracers whose
    payloads merge back in submission order.
    """
    global _CURRENT_TRACER
    _CURRENT_TRACER = NULL_TRACER


class _Observation:
    """Context manager installing an ambient tracer."""

    __slots__ = ("tracer", "_prev")

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def __enter__(self) -> "_Observation":
        global _CURRENT_TRACER
        self._prev = _CURRENT_TRACER
        _CURRENT_TRACER = self.tracer
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _CURRENT_TRACER
        _CURRENT_TRACER = self._prev


def observe(tracer: Any = None) -> _Observation:
    """Install ``tracer`` as the ambient observer.

    ::

        tracer = Tracer()
        with observe(tracer):
            dcc_schedule(...)   # picks the tracer up ambiently
    """
    return _Observation(tracer)
