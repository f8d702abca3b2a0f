"""Static bound envelopes and the runtime cross-check that consumes them.

``repro-bounds`` (:mod:`repro.checks.bounds`) proves radius and traffic
bounds *statically* and emits them as a :data:`MANIFEST_SCHEMA` manifest:
a mapping from meter names (``halo.rows_per_round``,
``messages.priority.sent``, ``bfs.max_depth``, ...) to symbolic bound
expressions over shape parameters (``n``, ``delta``, ``tau``, ``k``,
``m``, ``shards``, ``halo_members``, ...).  This module is the *runtime*
half of that contract: evaluate each bound for a concrete run's
parameters and assert every measured meter lies inside its envelope,
reporting the margins.

Everything here is pure stdlib and deterministic — the cross-check runs
inside CI's sharded fig2 smoke and its report must be byte-stable.

Bound-expression grammar (DESIGN.md section 14): integer literals,
parameter names, ``+ - * //``, ``min(...)``/``max(...)`` calls, and
parentheses.  Nothing else evaluates — an unknown name or node is a
:class:`SchemaError` listing the parameters that *are* in scope, so a
manifest/params mismatch reads as a contract error, not a crash.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.export import SchemaError

MANIFEST_SCHEMA = "repro-bounds-manifest/v1"

__all__ = [
    "MANIFEST_SCHEMA",
    "EnvelopeReport",
    "EnvelopeRow",
    "check_envelope",
    "envelope_params",
    "eval_bound",
    "margins_entry",
    "max_bfs_depth_from_tracer",
    "measured_from_runtime_stats",
    "measured_from_shard_stats",
    "moore_ball_bound",
    "shape_params_from_graph",
]


def eval_bound(expr: str, env: Mapping[str, int]) -> int:
    """Evaluate a manifest bound expression over integer parameters.

    Whitelisted AST only — names resolve through ``env``, arithmetic is
    ``+ - * //`` plus ``min``/``max`` calls.  Anything else (floats,
    attribute access, comparisons, ``**``) raises :class:`SchemaError`.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise SchemaError(f"unparseable bound expression {expr!r}: {exc}")
    return _eval_node(tree.body, expr, env)


def _eval_node(node: ast.AST, expr: str, env: Mapping[str, int]) -> int:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return node.value
        raise SchemaError(
            f"bound {expr!r}: only integer literals allowed, "
            f"got {node.value!r}"
        )
    if isinstance(node, ast.Name):
        if node.id not in env:
            known = ", ".join(sorted(env))
            raise SchemaError(
                f"bound {expr!r}: unknown parameter {node.id!r} "
                f"(in scope: {known})"
            )
        return int(env[node.id])
    if isinstance(node, ast.BinOp):
        left = _eval_node(node.left, expr, env)
        right = _eval_node(node.right, expr, env)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.FloorDiv):
            if right == 0:
                raise SchemaError(f"bound {expr!r}: division by zero")
            return left // right
        raise SchemaError(
            f"bound {expr!r}: operator {type(node.op).__name__} not allowed"
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_node(node.operand, expr, env)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("min", "max")
        and not node.keywords
    ):
        values = [_eval_node(arg, expr, env) for arg in node.args]
        if not values:
            raise SchemaError(f"bound {expr!r}: empty {node.func.id}() call")
        return min(values) if node.func.id == "min" else max(values)
    raise SchemaError(
        f"bound {expr!r}: node {type(node).__name__} not in the "
        "envelope grammar (int literals, names, + - * //, min/max)"
    )


def moore_ball_bound(n: int, delta: int, radius: int) -> int:
    """Closed-ball size bound: ``min(n, Moore(delta, radius))``.

    In a graph of maximum degree ``delta``, a closed ``radius``-ball has
    at most ``1 + delta * ((delta - 1)^radius - 1) / (delta - 2)``
    vertices (the Moore bound), and never more than ``n``.
    """
    if radius <= 0:
        return min(n, 1)
    if delta <= 1:
        return min(n, 1 + delta)
    if delta == 2:
        return min(n, 1 + 2 * radius)
    moore = 1 + delta * (((delta - 1) ** radius - 1) // (delta - 2))
    return min(n, moore)


def envelope_params(params: Mapping[str, int]) -> Dict[str, int]:
    """Complete a parameter set with the derived ball-size bounds.

    Callers supply the measured shape parameters (``n``, ``delta``,
    ``tau``, ``k``, ``m``, ``shards``, ``rounds``, ``subrounds``,
    ``halo_members``, ``deletions``, ...); this derives ``ball_k`` and
    ``ball_m`` via :func:`moore_ball_bound` when the inputs are present.
    """
    env = {name: int(value) for name, value in params.items()}
    n = env.get("n")
    delta = env.get("delta")
    if n is not None and delta is not None:
        for sym in ("k", "m"):
            radius = env.get(sym)
            if radius is not None and f"ball_{sym}" not in env:
                env[f"ball_{sym}"] = moore_ball_bound(n, delta, radius)
    return env


@dataclass
class EnvelopeRow:
    """One meter checked against its static bound."""

    meter: str
    measured: int
    bound_expr: str
    bound_value: int
    ok: bool

    @property
    def margin(self) -> int:
        """Headroom left under the bound (negative = violation)."""
        return self.bound_value - self.measured

    def as_dict(self) -> Dict[str, Any]:
        return {
            "meter": self.meter,
            "measured": self.measured,
            "bound_expr": self.bound_expr,
            "bound_value": self.bound_value,
            "margin": self.margin,
            "ok": self.ok,
        }


@dataclass
class EnvelopeReport:
    """Result of checking every measured meter against the manifest."""

    rows: List[EnvelopeRow] = field(default_factory=list)
    #: manifest meters with no measured value (reported, never fatal:
    #: a smoke run may legitimately not exercise every meter)
    unmeasured: List[str] = field(default_factory=list)
    #: measured meters with no manifest envelope (reported so a new
    #: meter cannot silently dodge certification)
    uncovered: List[str] = field(default_factory=list)
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def violations(self) -> List[EnvelopeRow]:
        return [row for row in self.rows if not row.ok]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "ok": self.ok,
            "params": dict(sorted(self.params.items())),
            "rows": [row.as_dict() for row in self.rows],
            "unmeasured": sorted(self.unmeasured),
            "uncovered": sorted(self.uncovered),
        }

    def format_diff(self) -> str:
        """Readable pass/FAIL table, one meter per line.

        This is the text a failing CI gate prints, so it must answer the
        three questions on its own: which meter, how far outside, and
        what the bound evaluated from.
        """
        lines: List[str] = []
        width = max((len(row.meter) for row in self.rows), default=5)
        for row in self.rows:
            status = "ok  " if row.ok else "FAIL"
            lines.append(
                f"{status} {row.meter:<{width}}  measured={row.measured}"
                f"  bound={row.bound_value}  margin={row.margin}"
                f"  [{row.bound_expr}]"
            )
        for meter in sorted(self.unmeasured):
            lines.append(f"--   {meter:<{width}}  (not measured this run)")
        for meter in sorted(self.uncovered):
            lines.append(
                f"??   {meter:<{width}}  (measured but no static envelope)"
            )
        if not self.ok:
            names = ", ".join(row.meter for row in self.violations)
            lines.append(
                f"envelope violated: {names} — measured value exceeds the "
                "statically certified bound (see DESIGN.md section 14)"
            )
        return "\n".join(lines)


def _manifest_envelopes(manifest: Mapping[str, Any]) -> Dict[str, str]:
    if manifest.get("format") != MANIFEST_SCHEMA:
        raise SchemaError(
            f"not a bounds manifest: format="
            f"{manifest.get('format')!r}, expected {MANIFEST_SCHEMA!r}"
        )
    envelopes = manifest.get("envelopes")
    if not isinstance(envelopes, dict):
        raise SchemaError("bounds manifest has no 'envelopes' mapping")
    out: Dict[str, str] = {}
    for meter, entry in envelopes.items():
        if isinstance(entry, str):
            out[meter] = entry
        elif isinstance(entry, dict) and isinstance(entry.get("bound"), str):
            out[meter] = entry["bound"]
        else:
            raise SchemaError(
                f"envelope for {meter!r} must be a bound expression "
                f"string (or a dict with a 'bound' key), got {entry!r}"
            )
    return out


def check_envelope(
    manifest: Mapping[str, Any],
    measured: Mapping[str, int],
    params: Mapping[str, int],
) -> EnvelopeReport:
    """Check every measured meter against its static bound.

    ``manifest`` is a ``repro-bounds-manifest/v1`` dict (as emitted by
    ``repro-bounds --manifest``), ``measured`` maps meter names to the
    run's observed values, ``params`` supplies the shape parameters the
    bound expressions mention (completed via :func:`envelope_params`).
    """
    envelopes = _manifest_envelopes(manifest)
    env = envelope_params(params)
    report = EnvelopeReport(params=env)
    for meter in sorted(envelopes):
        if meter not in measured:
            report.unmeasured.append(meter)
            continue
        value = int(measured[meter])
        bound = eval_bound(envelopes[meter], env)
        report.rows.append(
            EnvelopeRow(
                meter=meter,
                measured=value,
                bound_expr=envelopes[meter],
                bound_value=bound,
                ok=value <= bound,
            )
        )
    report.uncovered = [m for m in sorted(measured) if m not in envelopes]
    return report


# ----------------------------------------------------------------------
# Measured-meter collection helpers
# ----------------------------------------------------------------------
def measured_from_shard_stats(stats: Any) -> Dict[str, int]:
    """Halo-traffic meters from a ``ShardStats`` account.

    Peaks (not totals) are what the per-round envelopes bound; totals
    ride along for the margins artifact under distinct meter names.
    """
    return {
        "halo.rows_per_round": max(stats.halo_rows_per_round, default=0),
        "halo.bytes_per_round": max(stats.halo_bytes_per_round, default=0),
        "halo.subrounds_per_round": max(stats.subrounds_per_round, default=0),
    }


def measured_from_runtime_stats(stats: Any) -> Dict[str, int]:
    """Per-kind message-send meters from a ``RuntimeStats`` account."""
    return {
        f"messages.{kind}.sent": count
        for kind, count in sorted(stats.messages_by_kind.items())
    }


def max_bfs_depth_from_tracer(
    tracer: Any, span_name: str = "kernel.ball_bfs"
) -> Optional[int]:
    """Deepest observed ball BFS, read off the kernel's tracer spans.

    Returns ``None`` when no such span was recorded (tracing disabled or
    the packed path bypassed the per-ball spans).
    """
    depths = [
        int(span.attrs["radius"])
        for span in tracer.spans()
        if span.name == span_name and "radius" in span.attrs
    ]
    return max(depths) if depths else None


def shape_params_from_graph(graph: Any, tau: int) -> Dict[str, int]:
    """The (n, delta, tau, k, m) shape parameters of one deployment."""
    vertices = list(graph.vertices())
    delta = max((graph.degree(v) for v in vertices), default=0)
    k = -(-tau // 2)  # ceil(tau / 2) without importing repro.topology
    return {
        "n": len(vertices),
        "delta": delta,
        "tau": tau,
        "k": k,
        "m": k + 1,
    }


def margins_entry(
    report: EnvelopeReport, label: str
) -> Tuple[str, Dict[str, Any]]:
    """A ``(key, payload)`` pair for the margins artifact.

    The key names the run, so entries from repeated smoke runs can sit
    side by side in one deterministic JSON object.
    """
    return label, report.as_dict()
