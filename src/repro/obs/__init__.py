"""Observability: structured tracing and the exports built on it.

``TopologyCounters`` and ``RuntimeStats`` *count* the repo's work;
this subpackage records *when and where* that work happens and exports
it machine-readably.  The tracer is a run's one recorder: every export,
the run-report's metrics included, is derived from its spans.

* :mod:`repro.obs.tracer` — ring-buffered span tracer with a no-op null
  tracer as the universal default and an ambient-observer context
  (:func:`observe` / :func:`current_tracer`).
* :mod:`repro.obs.export` — JSONL traces, schema-versioned deterministic
  run-reports (``repro.run_report/v1``, metrics derived from the spans)
  and the ``--profile`` tree.
* :mod:`repro.obs.attribution` — distributed wall-clock attribution
  (``repro.attribution/v1``): per-round compute / barrier-wait / halo /
  merge lanes over the aligned cross-process span timeline.
* :mod:`repro.obs.timeline` — SVG per-round timelines and multi-lane
  per-worker timelines through :mod:`repro.viz.svg`.

See DESIGN.md sections 6 and 11 for the null-tracer contract, the
clock-alignment rules for merged worker observations and the
attribution taxonomy.
"""

from repro.obs.attribution import (
    ATTRIBUTION_SCHEMA,
    attribute_spans,
    attribution_from_tracer,
    attribution_summary,
)
from repro.obs.export import (
    RUN_REPORT_SCHEMA,
    TRACE_SCHEMA,
    VOLATILE_META_KEYS,
    SchemaError,
    build_run_report,
    load_run_report,
    phase_aggregates,
    profile_summary,
    read_trace_jsonl,
    span_metrics,
    strip_volatile,
    validate_run_report,
    write_run_report,
    write_trace_jsonl,
)
from repro.obs.timeline import render_lane_timeline, render_timeline
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    observe,
)

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "NULL_TRACER",
    "NullTracer",
    "RUN_REPORT_SCHEMA",
    "SchemaError",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "VOLATILE_META_KEYS",
    "attribute_spans",
    "attribution_from_tracer",
    "attribution_summary",
    "build_run_report",
    "current_tracer",
    "load_run_report",
    "observe",
    "phase_aggregates",
    "profile_summary",
    "read_trace_jsonl",
    "span_metrics",
    "render_lane_timeline",
    "render_timeline",
    "strip_volatile",
    "validate_run_report",
    "write_run_report",
    "write_trace_jsonl",
]
