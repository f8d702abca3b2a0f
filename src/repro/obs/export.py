"""Trace export: JSONL traces, run-reports, profile trees.

Three consumers, one span stream:

* :func:`write_trace_jsonl` — the raw spans, one JSON object per line,
  headed by a schema line (machine processing, flame tooling).
* :func:`build_run_report` — a deterministic, schema-versioned JSON
  document combining per-phase time aggregates with the metrics
  derived from the same spans (:func:`span_metrics`).
  :func:`strip_volatile` removes every wall-clock field so reports from
  runs at different worker counts (or on different machines) can be
  compared for determinism.
* :func:`profile_summary` — a human-readable tree (per-phase
  inclusive/exclusive wall time, call counts, top-N hottest spans).

Schema stability is a test target: :func:`validate_run_report` is the
single source of truth for what a v1 report must contain, and CI fails
on drift.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.attribution import ATTRIBUTION_SCHEMA, LANES
from repro.obs.tracer import Span, Tracer

RUN_REPORT_SCHEMA = "repro.run_report/v1"
TRACE_SCHEMA = "repro.trace/v1"

#: ``meta`` keys that describe the execution environment rather than the
#: computation — stripped (with every wall/cpu field) before determinism
#: comparisons.
VOLATILE_META_KEYS = frozenset(
    {"wall_s", "cpu_s", "workers", "cpu_count", "hostname", "created", "python"}
)

#: the :class:`~repro.topology.TopologyCounters` fields whose per-round
#: deltas each ``scheduler.round`` span of a traced schedule carries
ROUND_COUNTERS = (
    "deletability_queries", "deletability_cache_hits", "deletability_tests",
    "span_computations", "ball_computations", "bfs_expansions", "invalidations",
)

#: ``profile_summary``: phase-tree depth shown, and hottest spans listed
_PROFILE_MAX_DEPTH = 6
_PROFILE_TOP = 10


class SchemaError(ValueError):
    """A run-report failed schema validation."""


# ----------------------------------------------------------------------
# Phase aggregation
# ----------------------------------------------------------------------
def phase_aggregates(spans: Sequence[Span]) -> Dict[str, Dict[str, Any]]:
    """Per-name inclusive/exclusive time and call counts.

    Exclusive time uses the exit-order nesting invariant: children are
    recorded before their parent, so a per-depth accumulator of child
    inclusive time is exact for properly nested streams.
    """
    out: Dict[str, Dict[str, Any]] = {}
    child_wall: Dict[int, float] = {}
    for span in spans:
        nested = child_wall.pop(span.depth + 1, 0.0)
        child_wall[span.depth] = child_wall.get(span.depth, 0.0) + span.wall_s
        entry = out.get(span.name)
        if entry is None:
            entry = out[span.name] = {
                "calls": 0,
                "wall_s": 0.0,
                "exclusive_s": 0.0,
                "cpu_s": 0.0,
            }
        entry["calls"] += 1
        entry["wall_s"] += span.wall_s
        entry["exclusive_s"] += max(0.0, span.wall_s - nested)
        entry["cpu_s"] += span.cpu_s
    for entry in out.values():
        for key in ("wall_s", "exclusive_s", "cpu_s"):
            entry[key] = round(entry[key], 6)
    return {name: out[name] for name in sorted(out)}


# ----------------------------------------------------------------------
# Metrics derived from the spans
# ----------------------------------------------------------------------
def _histogram(values: List[Any], volatile: bool) -> Dict[str, Any]:
    """Count, total, extremes, mean and nearest-rank percentiles."""
    out: Dict[str, Any] = {"type": "histogram", "count": len(values), "volatile": volatile}
    if values:
        total = sum(values)
        ordered = sorted(values)
        last = len(ordered) - 1
        out.update(total=total, min=ordered[0], max=ordered[-1], mean=total / len(values))
        for q in (50, 90, 99):
            out[f"p{q}"] = ordered[max(0, min(last, round(q / 100.0 * last)))]
    return out


def span_metrics(
    spans: Sequence[Span],
    attribution: Optional[Dict[str, Any]] = None,
    sanitizer: Optional[Tuple[Dict[str, int], Sequence[Any]]] = None,
) -> Dict[str, Dict[str, Any]]:
    """The run-report's ``metrics`` block, read off what the run recorded.

    ``engine.verdict`` spans time the fresh verdicts.
    ``scheduler.deletion`` spans count the deleting rounds and their
    deletions.  ``scheduler.round`` spans count the runs (one round 0
    each), time the rounds that deleted (whose last child is the
    deletion) and carry the :data:`ROUND_COUNTERS` deltas summed into
    ``topology.*`` (zeros omitted).  ``runtime.round`` spans give the
    simulator's per-round message counts.  ``attribution`` adds its lane
    totals and ``sanitizer``, a :meth:`repro.checks.Sanitizer.since`
    account, its check and violation counts.  Wall-clock histograms are
    ``volatile``.  Like ``phases``, the block is exact only while the
    ring buffer dropped nothing.
    """
    counters: Dict[str, int] = {}
    histograms: Dict[str, Tuple[List[Any], bool]] = {}

    def observe(name: str, value: Any, volatile: bool = False) -> None:
        histograms.setdefault(name, ([], volatile))[0].append(value)

    runs = 0
    previous: Optional[Span] = None
    for span in spans:
        name, attrs = span.name, span.attrs
        if name == "engine.verdict":
            observe("engine.verdict_wall_s", span.wall_s, volatile=True)
        elif name == "scheduler.deletion":
            observe("scheduler.deletions_per_round", attrs["deletions"])
        elif name == "scheduler.round":
            if attrs.get("round") == 0:
                runs += 1
            if previous is not None and previous.name == "scheduler.deletion":
                observe("scheduler.round_wall_s", span.wall_s, volatile=True)
            for key in ROUND_COUNTERS:
                if attrs.get(key):
                    counters["topology." + key] = counters.get("topology." + key, 0) + attrs[key]
        elif name == "runtime.round":
            observe("runtime.messages_per_round", attrs["messages"])
            observe("runtime.delivered_per_round", attrs["delivered"])
        previous = span
    if runs:
        deletions = histograms.get("scheduler.deletions_per_round", ([], False))[0]
        counters["scheduler.runs"] = runs
        counters["scheduler.rounds"] = len(deletions)
        counters["scheduler.deletions"] = sum(deletions)
    if attribution is not None:
        totals = attribution["totals"]
        for lane in ("wall_s",) + LANES:
            observe("attribution." + lane, totals[lane], volatile=True)
        counters["attribution.rounds"] = totals["rounds"]
    if sanitizer is not None:
        checks, violations = sanitizer
        for kind, amount in checks.items():
            counters[f"sanitizer.checks.{kind}"] = amount
        if violations:
            counters["sanitizer.violations"] = len(violations)
    out: Dict[str, Dict[str, Any]] = {
        name: {"type": "counter", "value": value} for name, value in counters.items()
    }
    for name, (values, volatile) in histograms.items():
        out[name] = _histogram(values, volatile)
    return {name: out[name] for name in sorted(out)}


# ----------------------------------------------------------------------
# JSONL trace export
# ----------------------------------------------------------------------
def write_trace_jsonl(tracer: Tracer, path: str) -> int:
    """Write the tracer's spans as JSON lines; returns the span count.

    The first line is a header record carrying the schema tag and the
    drop count; every following line is one span
    (``name/depth/start_s/wall_s/cpu_s/attrs``).
    """
    spans = tracer.spans()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {"schema": TRACE_SCHEMA, "spans": len(spans), "dropped": tracer.dropped},
                sort_keys=True,
            )
            + "\n"
        )
        for span in spans:
            record = span.as_dict()
            for key in ("start_s", "wall_s", "cpu_s"):
                record[key] = round(record[key], 6)
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(spans)


def read_trace_jsonl(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """``(header, span records)`` from a :func:`write_trace_jsonl` file."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if not lines or lines[0].get("schema") != TRACE_SCHEMA:
        raise SchemaError(f"{path} is not a {TRACE_SCHEMA} trace")
    return lines[0], lines[1:]


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------
def build_run_report(
    name: str,
    tracer: Tracer,
    meta: Optional[Dict[str, Any]] = None,
    attribution: Optional[Dict[str, Any]] = None,
    sanitizer: Optional[Tuple[Dict[str, int], Sequence[Any]]] = None,
) -> Dict[str, Any]:
    """A schema-versioned report of one run: phases + metrics + meta.

    ``phases`` and ``metrics`` both come from the tracer's spans
    (:func:`phase_aggregates`, :func:`span_metrics`); the metrics also
    summarise ``attribution`` and the ``sanitizer`` account when given.
    ``attribution`` (a ``repro.attribution/v1`` document from
    :func:`repro.obs.attribution.attribute_spans`) is attached under an
    ``attribution`` key only when provided, so reports without the
    analysis keep the exact v1 key set.

    Deterministic at fixed seeds apart from wall/cpu fields and the
    volatile ``meta`` keys — see :func:`strip_volatile`.
    """
    spans = tracer.spans()
    report = {
        "schema": RUN_REPORT_SCHEMA,
        "name": name,
        "meta": dict(meta) if meta else {},
        "phases": phase_aggregates(spans),
        "metrics": span_metrics(spans, attribution, sanitizer),
        "spans_dropped": tracer.dropped,
    }
    if attribution is not None:
        report["attribution"] = attribution
    return report


def write_run_report(report: Dict[str, Any], path: str) -> None:
    """Serialise deterministically (sorted keys, stable layout)."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_run_report(path: str) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_run_report(report: Dict[str, Any]) -> None:
    """Raise :class:`SchemaError` unless ``report`` is a valid v1 report."""
    if not isinstance(report, dict):
        raise SchemaError("report must be a JSON object")
    if report.get("schema") != RUN_REPORT_SCHEMA:
        raise SchemaError(
            f"schema must be {RUN_REPORT_SCHEMA!r}, got {report.get('schema')!r}"
        )
    for key, types in (
        ("name", str),
        ("meta", dict),
        ("phases", dict),
        ("metrics", dict),
        ("spans_dropped", int),
    ):
        if key not in report:
            raise SchemaError(f"missing required key {key!r}")
        if not isinstance(report[key], types):
            raise SchemaError(f"key {key!r} must be {types.__name__}")
    for phase, entry in report["phases"].items():
        if not isinstance(entry, dict):
            raise SchemaError(f"phase {phase!r} must be an object")
        for field in ("calls", "wall_s", "exclusive_s", "cpu_s"):
            if not isinstance(entry.get(field), (int, float)):
                raise SchemaError(f"phase {phase!r} missing numeric {field!r}")
    for name, metric in report["metrics"].items():
        if not isinstance(metric, dict):
            raise SchemaError(f"metric {name!r} must be an object")
        kind = metric.get("type")
        if kind == "counter":
            if not isinstance(metric.get("value"), int):
                raise SchemaError(f"counter {name!r} missing integer value")
        elif kind == "gauge":
            if "value" not in metric:
                raise SchemaError(f"gauge {name!r} missing value")
        elif kind == "histogram":
            if not isinstance(metric.get("count"), int):
                raise SchemaError(f"histogram {name!r} missing integer count")
            if not isinstance(metric.get("volatile"), bool):
                raise SchemaError(f"histogram {name!r} missing volatile flag")
        else:
            raise SchemaError(f"metric {name!r} has unknown type {kind!r}")
    if "attribution" in report:
        attribution = report["attribution"]
        if not isinstance(attribution, dict):
            raise SchemaError("attribution must be an object")
        if attribution.get("schema") != ATTRIBUTION_SCHEMA:
            raise SchemaError(
                "attribution schema must be "
                f"{ATTRIBUTION_SCHEMA!r}, got {attribution.get('schema')!r}"
            )
        if not isinstance(attribution.get("runs"), list):
            raise SchemaError("attribution missing runs list")
        if not isinstance(attribution.get("totals"), dict):
            raise SchemaError("attribution missing totals object")


def strip_volatile(report: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy with every nondeterministic field removed.

    Drops wall/cpu aggregates from phases (call counts survive), value
    statistics from volatile histograms (observation counts survive),
    and the environment keys of ``meta`` (:data:`VOLATILE_META_KEYS`).
    Two runs of the same computation at the same seeds must compare
    equal after this strip — that equality is tested property-style for
    serial vs fanned-out execution.
    """
    out = copy.deepcopy(report)
    out["meta"] = {
        key: value
        for key, value in out.get("meta", {}).items()
        if key not in VOLATILE_META_KEYS
    }
    out["phases"] = {
        phase: {"calls": entry["calls"]}
        for phase, entry in out.get("phases", {}).items()
    }
    metrics = out.get("metrics", {})
    for name, metric in metrics.items():
        if metric.get("type") == "histogram" and metric.get("volatile"):
            metrics[name] = {"type": "histogram", "count": metric["count"], "volatile": True}
    if "attribution" in out:
        out["attribution"] = _strip_timing(out["attribution"])
    return out


def _strip_timing(value: Any) -> Any:
    """Recursively drop seconds-valued and environment-shaped fields.

    Applied to the ``attribution`` block: every ``*_s`` key and the
    ``workers`` count are volatile, while the structural skeleton
    (round/sub-round/shard indices, halo row and byte counts) is the
    deterministic part the worker-invariance property compares.
    """
    if isinstance(value, dict):
        return {
            key: _strip_timing(entry)
            for key, entry in value.items()
            if not key.endswith("_s") and key not in VOLATILE_META_KEYS
        }
    if isinstance(value, list):
        return [_strip_timing(entry) for entry in value]
    return value


# ----------------------------------------------------------------------
# Human profile tree
# ----------------------------------------------------------------------
def _build_tree(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Reconstruct the nesting forest from the exit-ordered stream."""
    pending: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        node = {
            "name": span.name,
            "wall_s": span.wall_s,
            "children": pending.pop(span.depth + 1, []),
        }
        pending.setdefault(span.depth, []).append(node)
    # Orphans deeper than the shallowest recorded depth (open parents,
    # ring-dropped heads) are promoted to roots rather than lost.
    roots: List[Dict[str, Any]] = []
    for depth in sorted(pending):
        roots.extend(pending[depth])
    return roots


def _aggregate_children(nodes: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Group sibling nodes by name, summing times and call counts."""
    grouped: Dict[str, Dict[str, Any]] = {}
    for node in nodes:
        entry = grouped.get(node["name"])
        if entry is None:
            entry = grouped[node["name"]] = {
                "name": node["name"],
                "calls": 0,
                "wall_s": 0.0,
                "child_s": 0.0,
                "children": [],
            }
        entry["calls"] += 1
        entry["wall_s"] += node["wall_s"]
        entry["child_s"] += sum(c["wall_s"] for c in node["children"])
        entry["children"].extend(node["children"])
    out = list(grouped.values())
    out.sort(key=lambda e: -e["wall_s"])
    for entry in out:
        entry["children"] = _aggregate_children(entry["children"])
    return out


def profile_summary(tracer: Tracer) -> str:
    """The ``--profile`` rendering: phase tree + hottest individual spans."""
    spans = tracer.spans()
    if not spans:
        return "profile: no spans recorded"
    lines: List[str] = ["profile (inclusive / exclusive wall seconds):"]

    def render(entries: List[Dict[str, Any]], indent: int) -> None:
        if indent >= _PROFILE_MAX_DEPTH:
            return
        for entry in entries:
            exclusive = max(0.0, entry["wall_s"] - entry["child_s"])
            lines.append(
                f"  {'  ' * indent}{entry['name']:<32} "
                f"{entry['wall_s']:9.4f} / {exclusive:9.4f}  "
                f"x{entry['calls']}"
            )
            render(entry["children"], indent + 1)

    render(_aggregate_children(_build_tree(spans)), 0)
    hottest = sorted(spans, key=lambda s: -s.wall_s)[:_PROFILE_TOP]
    lines.append(f"top {len(hottest)} spans by wall time:")
    for span in hottest:
        attrs = ""
        if span.attrs:
            attrs = " " + ", ".join(
                f"{k}={v}" for k, v in sorted(span.attrs.items())
            )
        lines.append(f"  {span.wall_s:9.4f}s  {span.name}{attrs}")
    if tracer.dropped:
        lines.append(f"  ({tracer.dropped} oldest spans dropped by the ring buffer)")
    return "\n".join(lines)
