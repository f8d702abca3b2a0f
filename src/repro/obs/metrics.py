"""A registry of named counters, gauges and histograms.

The registry is the *numeric* half of the observability layer (spans are
the *temporal* half): scheduler rounds, simulator message traffic and
engine verdict latencies all land here as named metrics, and the
per-subsystem accounting objects that predate this layer —
:class:`~repro.topology.TopologyCounters` and
:class:`~repro.runtime.stats.RuntimeStats` — are absorbed wholesale via
:meth:`MetricsRegistry.absorb_topology` / :meth:`absorb_runtime`.

Merging is associative and order-insensitive for counters and
histograms' aggregates, and submission-ordered for histogram
observation lists, matching the parallel layer's determinism contract:
merging worker payloads in submission order yields the same registry at
any worker count.

Histograms flagged ``volatile`` hold wall-clock observations; their
value statistics are stripped by
:func:`repro.obs.export.strip_volatile` before determinism comparisons
(their *counts* are deterministic and survive the strip).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple


class Counter:
    """A monotonically accumulated integer."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins scalar (e.g. a configuration fact)."""

    __slots__ = ("value", "_set")
    kind = "gauge"

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self._set = False

    def set(self, value: float) -> None:
        self.value = value
        self._set = True

    def merge(self, other: "Gauge") -> None:
        # ``other`` is the later observation by the merge-order contract.
        if other._set:
            self.value = other.value
            self._set = True

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A distribution of observations.

    Raw observations are kept (runs are bounded; exports summarise), so
    merge is plain submission-order concatenation — associative, and
    deterministic under the parallel layer's ordered-consumption rule.
    """

    __slots__ = ("values", "volatile")
    kind = "histogram"

    def __init__(self, volatile: bool = False) -> None:
        self.values: List[float] = []
        self.volatile = volatile

    def observe(self, value: float) -> None:
        self.values.append(value)

    def merge(self, other: "Histogram") -> None:
        self.values.extend(other.values)
        self.volatile = self.volatile or other.volatile

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "type": "histogram",
            "count": self.count,
            "volatile": self.volatile,
        }
        if self.values:
            total = sum(self.values)
            out.update(
                total=total,
                min=min(self.values),
                max=max(self.values),
                mean=total / len(self.values),
                p50=self.percentile(50),
                p90=self.percentile(90),
                p99=self.percentile(99),
            )
        return out


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: name prefixes of the counters the ``absorb_*`` methods fold in
_TOPOLOGY = "topology."
_RUNTIME = "runtime."
_ATTRIBUTION = "attribution."


class MetricsRegistry:
    """Named metrics with get-or-create accessors and associative merge."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def _get(self, name: str, cls: type, **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(**kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, volatile: bool = False) -> Histogram:
        hist = self._get(name, Histogram, volatile=volatile)
        hist.volatile = hist.volatile or volatile
        return hist

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float, volatile: bool = False) -> None:
        self.histogram(name, volatile=volatile).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(self._metrics.items())

    # ------------------------------------------------------------------
    # Absorption of the pre-existing accounting objects
    # ------------------------------------------------------------------
    def absorb_topology(self, counters: Any) -> None:
        """Fold a :class:`TopologyCounters` delta into ``topology.*`` counters."""
        for name, value in counters.as_dict().items():
            if value:
                self.inc(_TOPOLOGY + name, value)

    def absorb_runtime(self, stats: Any) -> None:
        """Fold a :class:`RuntimeStats` delta into ``runtime.*`` counters.

        The embedded topology counters land under ``topology.`` so the
        registry aggregates engine work identically whether it arrives
        via a schedule result or a runtime run.
        """
        self.inc(_RUNTIME + "rounds", stats.rounds)
        self.inc(_RUNTIME + "messages_sent", stats.messages_sent)
        self.inc(_RUNTIME + "messages_delivered", stats.messages_delivered)
        self.inc(_RUNTIME + "deletion_iterations", stats.deletion_iterations)
        for kind, count in sorted(stats.messages_by_kind.items()):
            self.inc(f"{_RUNTIME}messages_by_kind.{kind}", count)
        # Dropped-message counters only materialise when non-zero, so a
        # clean run's report is byte-identical to the pre-counter era.
        for kind, count in sorted(stats.messages_dropped.items()):
            if count:
                self.inc(f"{_RUNTIME}messages_dropped.{kind}", count)
        self.absorb_topology(stats.topology)

    def absorb_attribution(self, attribution: Dict[str, Any]) -> None:
        """Fold an attribution document's lane totals into the registry.

        Lane seconds land as volatile histograms (one observation per
        document — their statistics strip away in determinism
        comparisons); the attributed round count is a plain counter, so
        a report records *that* the analysis ran deterministically.
        """
        totals = attribution["totals"]
        for lane in ("wall_s", "compute_s", "barrier_wait_s", "halo_s", "merge_s"):
            self.observe(_ATTRIBUTION + lane, totals[lane], volatile=True)
        self.inc(_ATTRIBUTION + "rounds", totals["rounds"])

    # ------------------------------------------------------------------
    # Merge / wire format
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate ``other`` into this registry (associative)."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                cls = type(metric)
                if isinstance(metric, Histogram):
                    mine = Histogram(volatile=metric.volatile)
                else:
                    mine = cls()
                self._metrics[name] = mine
            elif type(mine) is not type(metric):
                raise TypeError(
                    f"metric {name!r}: cannot merge {metric.kind} into {mine.kind}"
                )
            mine.merge(metric)

    def to_payload(self) -> List[Tuple[str, str, Any, bool]]:
        """A picklable snapshot: ``(name, kind, data, volatile)`` rows."""
        rows: List[Tuple[str, str, Any, bool]] = []
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                rows.append((name, "counter", metric.value, False))
            elif isinstance(metric, Gauge):
                rows.append((name, "gauge", (metric.value, metric._set), False))
            else:
                rows.append((name, "histogram", list(metric.values), metric.volatile))
        return rows

    def merge_payload(self, payload: List[Tuple[str, str, Any, bool]]) -> None:
        """Merge a :meth:`to_payload` snapshot (submission order)."""
        for name, kind, data, volatile in payload:
            if kind == "counter":
                self.inc(name, data)
            elif kind == "gauge":
                value, was_set = data
                if was_set:
                    self.set_gauge(name, value)
            elif kind == "histogram":
                self.histogram(name, volatile=volatile).values.extend(data)
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Name-sorted plain-dict rendering (the run-report's ``metrics``)."""
        return {name: self._metrics[name].as_dict() for name in sorted(self._metrics)}
