"""repro-bounds: the symbolic locality/complexity certifier (REPRO4xx).

The paper's correctness and cost arguments are radius arguments: every
verdict depends only on a ``k = ceil(tau / 2)``-hop neighbourhood
(Definition 5), floods terminate within a provable TTL radius, shard
halos are sufficient at exactly ``k`` hops, and the Horton stage-3
cutoffs stay at ``floor(tau / 2)``.  This module *extracts* those
bounds from the source and *proves* them against the paper-derived
envelope:

* **Symbolic radius analysis** (REPRO401-403) — one AST pass over
  ``topology/``, ``shard/``, ``runtime/`` and ``core/`` finds every
  BFS/ball/halo call site and abstract-evaluates the arithmetic feeding
  its radius into a small symbolic expression over ``(tau, k, m)``,
  proven pointwise over ``tau in 3..16``.  Unresolvable or hand-written
  literals are flagged; resolvable radii must stay ``<= k`` (the
  certified verdict ball), and the shard halo band must equal ``k``
  exactly.
* **Flood-TTL certification** (REPRO404) — reuses
  :func:`repro.checks.protocol.extract_contract`'s FloodSpecs (the same
  extraction ``repro-verify`` model-checks) and proves each declared
  flood's initial TTL equals ``radius - 1``
  (:func:`repro.topology.radii.flood_ttl`) with decrement, guard and
  origin-dedup all present.
* **Stage-cutoff certification** (REPRO405) — the Horton stage-3
  cutoffs of ``cycles/kernel.py``/``horton.py`` must be exactly
  ``floor(tau / 2)``.
* **Traffic envelopes** (REPRO407) — derives per-round halo-row bounds
  for the shard exchange and per-kind message-send bounds for the
  runtime as functions of ``(n, delta, tau, boundary size)``, and emits
  them as a :class:`BoundsManifest` that
  :func:`repro.obs.envelope.check_envelope` asserts against a real run's
  meters (the CI sharded fig2 smoke).

Inline ``# repro: allow[rule]`` comments suppress findings exactly as in
the other fronts (same line or the line above).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checks.engine import Finding, apply_suppressions
from repro.checks.protocol import (
    ProtocolContract,
    _parse_files,
    _SourceFile,
    extract_contract,
)
from repro.obs.envelope import MANIFEST_SCHEMA

BOUNDS_REPORT_SCHEMA = "repro-bounds/v1"

#: (rule id, rule name, summary) — the REPRO4xx family.
BOUNDS_RULES: Tuple[Tuple[str, str, str], ...] = (
    (
        "REPRO401",
        "radius-unproven",
        "a BFS/ball radius could not be resolved to a symbolic expression "
        "over (tau, k, m) — hand-written literal, unbounded traversal, or "
        "opaque dataflow",
    ),
    (
        "REPRO402",
        "radius-exceeds-ball",
        "a resolved radius exceeds the certified verdict ball k = "
        "ceil(tau / 2) for some tau in 3..16",
    ),
    (
        "REPRO403",
        "halo-band-radius",
        "the shard halo band must be exactly k hops — thinner truncates an "
        "owned verdict ball, thicker ships unread rows",
    ),
    (
        "REPRO404",
        "flood-ttl",
        "a flood's initial TTL must equal its declared radius - 1 with "
        "decrement, TTL guard and origin dedup all present (FloodSpec "
        "extraction shared with repro-verify)",
    ),
    (
        "REPRO405",
        "stage-cutoff",
        "a Horton stage-3 BFS cutoff is not the derived floor(tau / 2)",
    ),
    (
        "REPRO407",
        "traffic-envelope",
        "a send/route site has no derivable per-round traffic envelope",
    ),
)

#: Pointwise proof domain: every admissible tau the schedulers accept in
#: practice.  All bound expressions here are monotone step functions of
#: tau through k and m, so pointwise equality/inequality on this range
#: is a proof for the range the paper's theorems quantify over.
TAU_SAMPLES: Tuple[int, ...] = tuple(range(3, 17))

#: The directories the radius pass certifies (module path substrings).
RADIUS_SCAN_DIRS: Tuple[str, ...] = (
    "repro/topology/",
    "repro/shard/",
    "repro/runtime/",
    "repro/core/",
)

#: Flood kinds the paper declares, with the radius symbol each must
#: cover (DELETE floods the deletion k-ball, PRIORITY the MIS m-ball).
DECLARED_FLOODS: Dict[str, str] = {"DELETE": "k", "PRIORITY": "m"}


def _radius_env(tau: int) -> Dict[str, int]:
    k = math.ceil(tau / 2)
    return {"tau": tau, "k": k, "m": k + 1}


def _points(fn: Any) -> Tuple[int, ...]:
    return tuple(fn(_radius_env(tau)) for tau in TAU_SAMPLES)


_K_POINTS = _points(lambda env: env["k"])

#: Canonical spellings for proven expressions, matched pointwise so
#: ``mis_separation(tau) - 1`` and ``self.radius`` both print as ``k``.
_CANONICAL: Tuple[Tuple[str, Tuple[int, ...]], ...] = tuple(
    (text, _points(eval_fn))
    for text, eval_fn in (
        ("k", lambda env: env["k"]),
        ("m", lambda env: env["m"]),
        ("k - 1", lambda env: env["k"] - 1),
        ("m - 1", lambda env: env["m"] - 1),
        ("k + 1", lambda env: env["k"] + 1),
        ("tau // 2", lambda env: env["tau"] // 2),
        ("tau", lambda env: env["tau"]),
    )
)


@dataclass(frozen=True)
class SymExpr:
    """A radius as a pointwise function of tau (via k, m)."""

    text: str
    values: Tuple[int, ...]

    def canonical(self) -> str:
        for text, values in _CANONICAL:
            if values == self.values:
                return text
        return self.text

    def le(self, other: "SymExpr") -> bool:
        return all(a <= b for a, b in zip(self.values, other.values))

    def eq(self, other: "SymExpr") -> bool:
        return self.values == other.values


_SYM_K = SymExpr("k", _K_POINTS)


@dataclass
class Resolution:
    """Outcome of abstract-evaluating one radius expression.

    ``param`` resolutions mean the radius is (a function of) a caller
    parameter — the analyzer then proves the *whole* original expression
    once per in-tree call site by re-resolving with the parameter bound
    to the caller's value (see ``_resolve_via_callers``).
    """

    status: str  # "sym" | "param" | "unbounded" | "unknown"
    expr: Optional[SymExpr] = None
    param: Optional[str] = None
    detail: str = ""


def _sym(status_text: str, fn: Any) -> Resolution:
    return Resolution("sym", SymExpr(status_text, _points(fn)))


#: Attribute names that resolve symbolically when their owner's class is
#: out of scope (``self.engine.radius``).  ``radius`` is pinned to ``k``
#: by REPRO206 (``LocalTopologyEngine.radius = neighborhood_radius(tau)``),
#: ``k``/``m`` by the runtime-protocol constant contracts.
_ATTR_SYMBOLS: Dict[str, Any] = {
    "radius": lambda env: env["k"],
    "k": lambda env: env["k"],
    "m": lambda env: env["m"],
    "tau": lambda env: env["tau"],
}

#: Calls that *are* named radius derivations (repro.topology.radii).
_DERIVATION_CALLS: Dict[str, Any] = {
    "neighborhood_radius": lambda env: env["k"],
    "deletion_radius": lambda env: env["k"],
    "halo_radius": lambda env: env["k"],
    "mis_separation": lambda env: env["m"],
    "stage_cutoff": lambda env: env["tau"] // 2,
}


@dataclass(frozen=True)
class SinkSpec:
    """Where a sink call's radius argument lives."""

    arg_index: Optional[int]  # positional index after the receiver
    kwarg: Optional[str]
    #: missing argument means: "k" (engine default), "unbounded", or
    #: "unknown"
    missing: str


#: Every BFS/ball/halo traversal primitive the four scanned layers call.
_SINKS: Dict[str, SinkSpec] = {
    "ball": SinkSpec(1, "radius", "k"),
    "ball_ids": SinkSpec(1, "radius", "unknown"),
    "ball_slots": SinkSpec(1, "radius", "unknown"),
    "punctured_ball_slots": SinkSpec(1, "radius", "unknown"),
    "k_hop_neighborhood": SinkSpec(1, None, "unknown"),
    "bfs_distances": SinkSpec(1, "cutoff", "unbounded"),
    "_multi_source_distances": SinkSpec(2, "cutoff", "unbounded"),
    "WaveMIS": SinkSpec(2, "radius", "unknown"),
}


@dataclass
class RadiusSite:
    """One certified (or flagged) radius call site."""

    path: str
    line: int
    sink: str
    radius: str
    status: str  # "proven" | "delegated" | "unproven" | "exceeds"
    via: str = ""  # caller chain note for delegated params

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "path": self.path,
            "line": self.line,
            "sink": self.sink,
            "radius": self.radius,
            "status": self.status,
        }
        if self.via:
            out["via"] = self.via
        return out


@dataclass
class BoundsManifest:
    """Everything repro-bounds proved, as data.

    The ``envelopes`` block is the runtime contract:
    :func:`repro.obs.envelope.check_envelope` evaluates each bound for a
    concrete run and asserts the measured meters stay inside.
    """

    radius_sites: List[RadiusSite] = field(default_factory=list)
    floods: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    envelopes: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_SCHEMA,
            "symbols": {"k": "ceil(tau / 2)", "m": "k + 1"},
            "tau_samples": list(TAU_SAMPLES),
            "radius_sites": [s.as_dict() for s in self.radius_sites],
            "floods": dict(sorted(self.floods.items())),
            "envelopes": dict(sorted(self.envelopes.items())),
        }


# ----------------------------------------------------------------------
# Scope and function indexing
# ----------------------------------------------------------------------
@dataclass
class _Scope:
    """Resolution context: one function body inside one file."""

    file: _SourceFile
    func: Optional[ast.AST]  # FunctionDef/AsyncFunctionDef or None
    class_name: Optional[str]
    locals: Dict[str, ast.expr]
    params: Tuple[str, ...]


@dataclass
class _FuncInfo:
    file: _SourceFile
    node: ast.AST
    class_name: Optional[str]
    scope: _Scope

    def param_call_index(self, param: str) -> Optional[int]:
        """Positional index of ``param`` at a call site (self-adjusted)."""
        args = getattr(self.node, "args", None)
        if args is None:
            return None
        names = [a.arg for a in args.args]
        if param not in names:
            return None
        index = names.index(param)
        if self.class_name is not None and names and names[0] in ("self", "cls"):
            index -= 1
        return index


class _Analyzer:
    """The whole-tree radius/envelope pass."""

    def __init__(self, files: Sequence[_SourceFile]) -> None:
        self.files = list(files)
        self.findings: List[Finding] = []
        self.manifest = BoundsManifest()
        #: function name -> defs (for one-level caller resolution)
        self.func_index: Dict[str, List[_FuncInfo]] = {}
        #: class name -> {attr: (rhs expr, defining scope)}
        self.class_attrs: Dict[str, Dict[str, Tuple[ast.expr, _Scope]]] = {}
        self._scopes: List[_Scope] = []

    # -- indexing ------------------------------------------------------
    def index(self) -> None:
        for file in self.files:
            module_scope = _Scope(file, None, None, {}, ())
            self._index_body(file.tree.body, file, module_scope, None)

    def _index_body(
        self,
        body: Sequence[ast.stmt],
        file: _SourceFile,
        parent: _Scope,
        class_name: Optional[str],
    ) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                self.class_attrs.setdefault(node.name, {})
                self._index_body(node.body, file, parent, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = _Scope(
                    file,
                    node,
                    class_name,
                    _collect_locals(node),
                    tuple(a.arg for a in node.args.args),
                )
                self._scopes.append(scope)
                info = _FuncInfo(file, node, class_name, scope)
                self.func_index.setdefault(node.name, []).append(info)
                if class_name is not None:
                    attrs = self.class_attrs.setdefault(class_name, {})
                    for stmt in ast.walk(node):
                        target = _self_attr_target(stmt)
                        if target is not None:
                            attr, value = target
                            attrs.setdefault(attr, (value, scope))
                # Nested defs/classes still get indexed (rare here).
                self._index_body(node.body, file, scope, class_name)

    # -- symbolic resolution -------------------------------------------
    def resolve(
        self,
        node: Optional[ast.expr],
        scope: _Scope,
        depth: int = 0,
        overrides: Optional[Dict[str, SymExpr]] = None,
    ) -> Resolution:
        if depth > 12:
            return Resolution("unknown", detail="resolution depth exceeded")
        if node is None:
            return Resolution("unbounded", detail="no bound")
        if isinstance(node, ast.Constant):
            if node.value is None:
                return Resolution("unbounded", detail="cutoff=None")
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return Resolution(
                    "unknown",
                    detail=f"hand-written radius literal {node.value}",
                )
            return Resolution("unknown", detail=f"literal {node.value!r}")
        if isinstance(node, ast.Name):
            if overrides is not None and node.id in overrides:
                return Resolution("sym", overrides[node.id])
            if node.id in scope.locals:
                return self.resolve(
                    scope.locals[node.id], scope, depth + 1, overrides
                )
            if node.id in scope.params:
                # A parameter literally named ``tau`` carries the symbol
                # (the convention REPRO206 pins); other parameters are
                # caller-chosen radii.
                if node.id == "tau":
                    return _sym("tau", lambda env: env["tau"])
                return Resolution("param", param=node.id)
            if node.id in ("tau", "k", "m"):
                return _sym(node.id, _ATTR_SYMBOLS[node.id])
            return Resolution("unknown", detail=f"unresolved name {node.id!r}")
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and scope.class_name is not None
            ):
                attrs = self.class_attrs.get(scope.class_name, {})
                if node.attr in attrs:
                    rhs, rhs_scope = attrs[node.attr]
                    return self.resolve(rhs, rhs_scope, depth + 1)
            if node.attr in _ATTR_SYMBOLS:
                return _sym(node.attr, _ATTR_SYMBOLS[node.attr])
            return Resolution(
                "unknown", detail=f"unresolved attribute .{node.attr}"
            )
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv)
        ):
            left, left_param = self._operand(node.left, scope, depth, overrides)
            right, right_param = self._operand(
                node.right, scope, depth, overrides
            )
            for param_res in (left_param, right_param):
                if param_res is not None:
                    return param_res
            if left is None or right is None:
                return Resolution(
                    "unknown", detail=f"opaque arithmetic {ast.unparse(node)}"
                )
            op = {
                ast.Add: lambda a, b: a + b,
                ast.Sub: lambda a, b: a - b,
                ast.Mult: lambda a, b: a * b,
                ast.FloorDiv: lambda a, b: a // b if b else 0,
            }[type(node.op)]
            values = tuple(op(a, b) for a, b in zip(left.values, right.values))
            return Resolution(
                "sym", SymExpr(ast.unparse(node), values)
            )
        if isinstance(node, ast.IfExp):
            a = self.resolve(node.body, scope, depth + 1, overrides)
            b = self.resolve(node.orelse, scope, depth + 1, overrides)
            if a.status == "sym" and b.status == "sym":
                assert a.expr is not None and b.expr is not None
                values = tuple(
                    max(x, y) for x, y in zip(a.expr.values, b.expr.values)
                )
                return Resolution("sym", SymExpr(ast.unparse(node), values))
            for res in (a, b):
                if res.status == "param":
                    return res
            return Resolution("unknown", detail="conditional radius")
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _DERIVATION_CALLS and len(node.args) == 1:
                arg = self.resolve(node.args[0], scope, depth + 1, overrides)
                if arg.status == "sym" and arg.expr is not None:
                    if arg.expr.values == _points(lambda env: env["tau"]):
                        return _sym(name, _DERIVATION_CALLS[name])
                    return Resolution(
                        "unknown",
                        detail=f"{name}() applied to non-tau argument",
                    )
                if arg.status == "param":
                    return arg
                return Resolution(
                    "unknown", detail=f"{name}() argument unresolved"
                )
            if name == "flood_ttl" and len(node.args) == 1:
                inner = self.resolve(node.args[0], scope, depth + 1, overrides)
                if inner.status == "sym" and inner.expr is not None:
                    values = tuple(v - 1 for v in inner.expr.values)
                    return Resolution(
                        "sym", SymExpr(ast.unparse(node), values)
                    )
                return inner
            if name == "ceil" and len(node.args) == 1:
                # math.ceil(tau / 2): the one true-division the grammar
                # admits, because it *is* the definition of k.
                arg = node.args[0]
                if (
                    isinstance(arg, ast.BinOp)
                    and isinstance(arg.op, ast.Div)
                    and isinstance(arg.right, ast.Constant)
                    and arg.right.value == 2
                ):
                    inner = self.resolve(arg.left, scope, depth + 1, overrides)
                    if inner.status == "sym" and inner.expr is not None:
                        values = tuple(
                            math.ceil(v / 2) for v in inner.expr.values
                        )
                        return Resolution(
                            "sym", SymExpr(ast.unparse(node), values)
                        )
                return Resolution("unknown", detail="opaque ceil()")
            if name in ("min", "max") and node.args and not node.keywords:
                parts = [
                    self.resolve(arg, scope, depth + 1, overrides)
                    for arg in node.args
                ]
                if all(p.status == "sym" and p.expr for p in parts):
                    fold = min if name == "min" else max
                    values = tuple(
                        fold(p.expr.values[i] for p in parts)  # type: ignore[union-attr]
                        for i in range(len(TAU_SAMPLES))
                    )
                    return Resolution(
                        "sym", SymExpr(ast.unparse(node), values)
                    )
                return Resolution("unknown", detail=f"opaque {name}()")
            return Resolution(
                "unknown", detail=f"opaque call {name or ast.unparse(node.func)}()"
            )
        return Resolution(
            "unknown", detail=f"opaque expression {ast.unparse(node)}"
        )

    def _operand(
        self,
        node: ast.expr,
        scope: _Scope,
        depth: int,
        overrides: Optional[Dict[str, SymExpr]],
    ) -> Tuple[Optional[SymExpr], Optional[Resolution]]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return (
                SymExpr(str(node.value), tuple([node.value] * len(TAU_SAMPLES))),
                None,
            )
        res = self.resolve(node, scope, depth + 1, overrides)
        if res.status == "sym":
            return res.expr, None
        if res.status == "param":
            return None, res
        return None, None

    # -- the radius pass -----------------------------------------------
    def radius_pass(self) -> None:
        for scope in self._scopes:
            if not _in_radius_scope(scope.file.rel):
                continue
            assert scope.func is not None
            for node in _walk_own(scope.func):
                if not isinstance(node, ast.Call):
                    continue
                sink = _call_name(node)
                if sink is None or sink not in _SINKS:
                    continue
                spec = _SINKS[sink]
                arg = _sink_arg(node, spec)
                if arg is _MISSING:
                    self._record_missing(node, sink, spec, scope)
                    continue
                res = self.resolve(arg, scope)
                self._record(node, sink, res, scope, arg_node=arg)

    def _record_missing(
        self, node: ast.Call, sink: str, spec: SinkSpec, scope: _Scope
    ) -> None:
        rel, line = scope.file.rel, node.lineno
        if spec.missing == "k":
            self.manifest.radius_sites.append(
                RadiusSite(rel, line, sink, "k", "proven")
            )
            return
        if spec.missing == "unbounded":
            self._flag_unproven(
                node, sink, scope, "traversal has no cutoff (unbounded BFS)"
            )
            return
        self._flag_unproven(node, sink, scope, "radius argument not found")

    def _record(
        self,
        node: ast.AST,
        sink: str,
        res: Resolution,
        scope: _Scope,
        via: str = "",
        arg_node: Optional[ast.expr] = None,
    ) -> None:
        rel, line = scope.file.rel, node.lineno
        if res.status == "sym" and res.expr is not None:
            text = res.expr.canonical()
            if res.expr.le(_SYM_K):
                status = "proven"
            else:
                status = "exceeds"
                self._flag(
                    "REPRO402",
                    "radius-exceeds-ball",
                    scope.file,
                    node,
                    f"{sink}() radius `{text}` exceeds the certified "
                    f"verdict ball k for some tau in "
                    f"{TAU_SAMPLES[0]}..{TAU_SAMPLES[-1]}",
                )
            self.manifest.radius_sites.append(
                RadiusSite(rel, line, sink, text, status, via)
            )
            if rel.endswith("shard/plan.py") and sink == "_multi_source_distances":
                if not res.expr.eq(_SYM_K):
                    self._flag(
                        "REPRO403",
                        "halo-band-radius",
                        scope.file,
                        node,
                        f"halo band traversal runs at `{text}`; the band "
                        "must be exactly k (halo_radius(tau))",
                    )
            return
        if res.status == "param":
            assert res.param is not None
            self._resolve_via_callers(
                node, sink, res.param, scope, via, arg_node
            )
            return
        if res.status == "unbounded":
            self._flag_unproven(
                node, sink, scope, f"unbounded traversal ({res.detail})"
            )
            return
        self._flag_unproven(node, sink, scope, res.detail)

    def _resolve_via_callers(
        self,
        node: ast.AST,
        sink: str,
        param: str,
        scope: _Scope,
        via: str,
        arg_node: Optional[ast.expr],
    ) -> None:
        """One-level interprocedural step: prove a parameter radius at
        every in-tree call site of the enclosing function.

        The sink's *whole* radius expression is re-resolved with the
        parameter bound to each caller's value, so ``ball(v, sep - 1)``
        inside ``f(sep)`` called as ``f(mis_separation(tau))`` proves as
        ``k``, not just as "delegated".
        """
        rel, line = scope.file.rel, node.lineno
        func = scope.func
        assert func is not None
        func_name = getattr(func, "name", "")
        infos = [
            info
            for info in self.func_index.get(func_name, [])
            if info.node is func
        ]
        if not infos or via or arg_node is None:
            # Already one hop deep, or scope bookkeeping failed: record
            # the delegation instead of chasing further.
            self.manifest.radius_sites.append(
                RadiusSite(rel, line, sink, param, "delegated", via)
            )
            return
        info = infos[0]
        index = info.param_call_index(param)
        callers = _call_sites(self.files, func_name, func)
        resolved_any = False
        for caller_scope, call in callers:
            arg = _call_arg(call, index, param)
            if arg is _MISSING:
                continue  # default applies; defaults resolve at the sink
            res = self.resolve(arg, caller_scope)
            chain = (
                f"{func_name}({param}) <- "
                f"{caller_scope.file.rel}:{call.lineno}"
            )
            if res.status == "sym" and res.expr is not None:
                final = self.resolve(
                    arg_node, scope, overrides={param: res.expr}
                )
                self._record(call, sink, final, caller_scope, via=chain)
                resolved_any = True
                continue
            if res.status == "param":
                self.manifest.radius_sites.append(
                    RadiusSite(
                        caller_scope.file.rel,
                        call.lineno,
                        sink,
                        res.param or param,
                        "delegated",
                        chain,
                    )
                )
                resolved_any = True
                continue
            self._record(call, sink, res, caller_scope, via=chain)
            resolved_any = True
        if not resolved_any:
            # No in-tree caller pins the radius: a public API whose
            # callers choose it.  Recorded, not flagged.
            self.manifest.radius_sites.append(
                RadiusSite(rel, line, sink, param, "delegated")
            )

    def _flag_unproven(
        self, node: ast.AST, sink: str, scope: _Scope, why: str
    ) -> None:
        self.manifest.radius_sites.append(
            RadiusSite(scope.file.rel, node.lineno, sink, "?", "unproven")
        )
        self._flag(
            "REPRO401",
            "radius-unproven",
            scope.file,
            node,
            f"{sink}() radius is not a proven function of tau: {why}",
        )

    def _flag(
        self, rule: str, name: str, file: _SourceFile, node: ast.AST, msg: str
    ) -> None:
        self.findings.append(
            Finding(
                path=file.rel,
                rule=rule,
                name=name,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=msg,
            )
        )

    # -- halo-plan structural check (REPRO403) -------------------------
    def halo_plan_pass(self) -> None:
        for scope in self._scopes:
            if not scope.file.rel.endswith("shard/plan.py"):
                continue
            assert scope.func is not None
            for node in _walk_own(scope.func):
                if (
                    isinstance(node, ast.Call)
                    and _call_name(node) == "ShardPlan"
                ):
                    for kw in node.keywords:
                        if kw.arg == "halo_radius":
                            res = self.resolve(kw.value, scope)
                            if not (
                                res.status == "sym"
                                and res.expr is not None
                                and res.expr.eq(_SYM_K)
                            ):
                                self._flag(
                                    "REPRO403",
                                    "halo-band-radius",
                                    scope.file,
                                    kw.value,
                                    "ShardPlan.halo_radius must resolve to "
                                    "exactly k (halo_radius(tau))",
                                )


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
_MISSING: Any = object()


def _collect_locals(func: ast.AST) -> Dict[str, ast.expr]:
    out: Dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                # First assignment wins: later reassignments in branch
                # arms would otherwise mask the general case, and the
                # scanned modules assign radii once.
                out.setdefault(target.id, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                out.setdefault(node.target.id, node.value)
    return out


def _self_attr_target(
    stmt: ast.AST,
) -> Optional[Tuple[str, ast.expr]]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr, stmt.value
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _sink_arg(node: ast.Call, spec: SinkSpec) -> Any:
    if spec.kwarg is not None:
        for kw in node.keywords:
            if kw.arg == spec.kwarg:
                return kw.value
    if spec.arg_index is not None and len(node.args) > spec.arg_index:
        return node.args[spec.arg_index]
    return _MISSING


def _call_arg(node: ast.Call, index: Optional[int], kwarg: str) -> Any:
    for kw in node.keywords:
        if kw.arg == kwarg:
            return kw.value
    if index is not None and 0 <= index < len(node.args):
        return node.args[index]
    return _MISSING


def _walk_own(func: ast.AST) -> List[ast.AST]:
    """Walk a function body without descending into nested defs."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _in_radius_scope(rel: str) -> bool:
    return any(part in rel for part in RADIUS_SCAN_DIRS)


def _call_sites(
    files: Sequence[_SourceFile], func_name: str, func: ast.AST
) -> List[Tuple[_Scope, ast.Call]]:
    """Every in-tree call of ``func_name`` with its enclosing scope."""
    out: List[Tuple[_Scope, ast.Call]] = []
    for file in files:
        for scope in _scopes_of(file):
            assert scope.func is not None
            if scope.func is func:
                continue
            for node in _walk_own(scope.func):
                if (
                    isinstance(node, ast.Call)
                    and _call_name(node) == func_name
                ):
                    out.append((scope, node))
    return out


_SCOPE_CACHE: Dict[int, List[_Scope]] = {}


def _scopes_of(file: _SourceFile) -> List[_Scope]:
    key = id(file)
    if key not in _SCOPE_CACHE:
        scopes: List[_Scope] = []

        def visit(body: Sequence[ast.stmt], class_name: Optional[str]) -> None:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append(
                        _Scope(
                            file,
                            node,
                            class_name,
                            _collect_locals(node),
                            tuple(a.arg for a in node.args.args),
                        )
                    )
                    visit(node.body, class_name)

        visit(file.tree.body, None)
        _SCOPE_CACHE[key] = scopes
    return _SCOPE_CACHE[key]


# ----------------------------------------------------------------------
# REPRO404: flood TTLs against the declared radii
# ----------------------------------------------------------------------
def _ttl_points(initial_ttl: str) -> Optional[Tuple[int, ...]]:
    """Pointwise-evaluate a FloodSpec's initial-TTL source text."""
    try:
        tree = ast.parse(initial_ttl, mode="eval")
    except SyntaxError:
        return None

    def value(node: ast.expr, env: Dict[str, int]) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        if isinstance(node, ast.Attribute) and node.attr in env:
            return env[node.attr]
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            left = value(node.left, env)
            right = value(node.right, env)
            if left is None or right is None:
                return None
            return left + right if isinstance(node.op, ast.Add) else left - right
        return None

    points: List[int] = []
    for tau in TAU_SAMPLES:
        v = value(tree.body, _radius_env(tau))
        if v is None:
            return None
        points.append(v)
    return tuple(points)


def check_floods(
    contract: ProtocolContract, files: Sequence[_SourceFile]
) -> Tuple[List[Finding], Dict[str, Dict[str, Any]]]:
    """Prove every flood's TTL against its declared paper radius."""
    findings: List[Finding] = []
    manifest: Dict[str, Dict[str, Any]] = {}
    protocol_rel = next(
        (f.rel for f in files if f.rel.endswith("runtime/protocol.py")),
        "src/repro/runtime/protocol.py",
    )

    def flag(rel: str, msg: str) -> None:
        findings.append(
            Finding(
                path=rel,
                rule="REPRO404",
                name="flood-ttl",
                line=1,
                col=0,
                message=msg,
            )
        )

    for kind, symbol in sorted(DECLARED_FLOODS.items()):
        if kind not in contract.kinds:
            continue  # fixture trees check only what they contain
        spec = contract.floods.get(kind)
        if spec is None:
            flag(
                protocol_rel,
                f"declared flood {kind} (radius {symbol}) has no extracted "
                "FloodSpec — TTL initializer/decrement not recognised",
            )
            continue
        entry: Dict[str, Any] = {
            "initial_ttl": spec.initial_ttl,
            "radius_symbol": spec.radius_symbol,
            "decrements": spec.decrements,
            "guarded": spec.guarded,
            "dedup_by_origin": spec.dedup_by_origin,
            "declared_radius": symbol,
        }
        manifest[kind] = entry
        if spec.radius_symbol != symbol:
            flag(
                protocol_rel,
                f"flood {kind}: extracted radius symbol "
                f"{spec.radius_symbol!r} disagrees with the declared "
                f"radius {symbol!r}",
            )
        for attr, why in (
            ("decrements", "relays must decrement the TTL"),
            ("guarded", "relays must be guarded by ttl > 0"),
            ("dedup_by_origin", "relays must dedup by origin"),
        ):
            if not getattr(spec, attr):
                flag(protocol_rel, f"flood {kind}: {why}")
        if spec.initial_ttl is not None:
            points = _ttl_points(spec.initial_ttl)
            expected = tuple(
                _radius_env(tau)[symbol] - 1 for tau in TAU_SAMPLES
            )
            if points is None:
                flag(
                    protocol_rel,
                    f"flood {kind}: initial TTL `{spec.initial_ttl}` is not "
                    "a recognisable function of (tau, k, m)",
                )
            elif points != expected:
                flag(
                    protocol_rel,
                    f"flood {kind}: initial TTL `{spec.initial_ttl}` != "
                    f"declared radius - 1 (`{symbol} - 1`) — the flood "
                    "would over- or under-cover its ball",
                )
    for kind in sorted(contract.floods):
        if kind not in DECLARED_FLOODS:
            flag(
                protocol_rel,
                f"flood kind {kind} has no declared paper radius — add it "
                "to DECLARED_FLOODS with its theorem, or stop flooding",
            )
    return findings, manifest


# ----------------------------------------------------------------------
# REPRO405: Horton stage-3 cutoffs
# ----------------------------------------------------------------------
def check_stage_cutoffs(files: Sequence[_SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    for name in ("cycles/kernel.py", "cycles/horton.py"):
        file = next((f for f in files if f.rel.endswith(name)), None)
        if file is not None:
            findings.extend(_check_stage_cutoffs(file))
    return findings


def _check_stage_cutoffs(file: _SourceFile) -> List[Finding]:
    """Horton stage-3 cutoffs must be exactly ``floor(tau / 2) <= k``."""
    findings: List[Finding] = []
    for node in ast.walk(file.tree):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "cutoff"
        ):
            mentions_tau = any(
                isinstance(n, ast.Name) and n.id == "tau"
                for n in ast.walk(node.value)
            )
            if not mentions_tau:
                continue  # a generic (non-tau) traversal budget
            text = ast.unparse(node.value)
            if text != "tau // 2":
                findings.append(
                    Finding(
                        path=file.rel,
                        rule="REPRO405",
                        name="stage-cutoff",
                        line=node.lineno,
                        col=node.col_offset,
                        message=f"stage-3 BFS cutoff `{text}` is not the "
                        "derived floor(tau / 2) (see "
                        "repro.topology.radii.stage_cutoff)",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# REPRO407: traffic envelopes
# ----------------------------------------------------------------------
#: Exchange methods that account halo rows, per routing category.
_ROUTING_CALLS = ("account_broadcast", "route", "route_deletions")
#: Exchange methods that are metering/bookkeeping, not traffic.
_EXCHANGE_ADMIN = ("end_round", "round_meter")

#: Sound per-row / per-batch pickle size bounds for the byte envelope:
#: rows are tuples of small ints (vertex id, priority/status), pickled
#: per target batch with protocol framing.  64 bytes per row and 128
#: per accounted batch dominate every row shape the exchange ships.
HALO_ROW_BYTES_BOUND = 64
HALO_BATCH_BYTES_BOUND = 128


def check_envelopes(
    files: Sequence[_SourceFile], contract: ProtocolContract
) -> Tuple[List[Finding], Dict[str, str]]:
    findings: List[Finding] = []
    envelopes: Dict[str, str] = {}

    # Every proven verdict ball stays inside k, so the deepest BFS any
    # run may record is k.
    envelopes["bfs.max_depth"] = "k"

    # -- shard exchange: count the routing categories statically --------
    sched = next(
        (f for f in files if f.rel.endswith("shard/scheduler.py")), None
    )
    if sched is not None:
        categories: set[str] = set()
        for node in ast.walk(sched.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "exchange"
            ):
                attr = node.func.attr
                if attr in _ROUTING_CALLS:
                    categories.add(attr)
                elif attr not in _EXCHANGE_ADMIN:
                    findings.append(
                        Finding(
                            path=sched.rel,
                            rule="REPRO407",
                            name="traffic-envelope",
                            line=node.lineno,
                            col=node.col_offset,
                            message=f"exchange.{attr}() is not a known "
                            "routing category — the halo row envelope "
                            "cannot account for it",
                        )
                    )
        if categories:
            # Each category delivers each subscribed vertex at most once
            # per round (priorities broadcast once, statuses decide each
            # vertex once across sub-rounds, deletions commit once), so
            # rows/round <= categories * total subscriptions.
            coeff = len(categories)
            envelopes["halo.rows_per_round"] = f"{coeff} * halo_members"
            envelopes["halo.bytes_per_round"] = (
                f"{HALO_ROW_BYTES_BOUND} * {coeff} * halo_members + "
                f"{HALO_BATCH_BYTES_BOUND} * {coeff} * shards * "
                "(subrounds + 2)"
            )
            # Each MIS sub-round decides at least one undecided
            # candidate somewhere, so sub-rounds never exceed n.
            envelopes["halo.subrounds_per_round"] = "n"

    # -- runtime sends: flood/gossip classification ---------------------
    if contract.kinds:
        protocol_rel = next(
            (f.rel for f in files if f.rel.endswith("runtime/protocol.py")),
            "src/repro/runtime/protocol.py",
        )
        for kind in contract.kinds:
            meter = f"messages.{kind.lower()}.sent"
            if kind in contract.gossip_kinds:
                # k discovery rounds, every active node broadcasts once
                # per round.
                envelopes[meter] = "k * n"
            elif kind in contract.floods:
                spec = contract.floods[kind]
                if not (spec.decrements and spec.guarded and spec.dedup_by_origin):
                    findings.append(
                        Finding(
                            path=protocol_rel,
                            rule="REPRO407",
                            name="traffic-envelope",
                            line=1,
                            col=0,
                            message=f"flood {kind} lacks "
                            "decrement/guard/origin-dedup, so its relay "
                            "count has no static envelope",
                        )
                    )
                    continue
                if spec.radius_symbol == "m":
                    # One initiation per candidate per round plus at most
                    # one relay per origin per node inside the m-ball.
                    envelopes[meter] = "rounds * n * (1 + ball_m)"
                else:
                    # One announcement per deletion plus one relay per
                    # node inside the k-ball per origin.
                    envelopes[meter] = "deletions * (1 + ball_k)"
            else:
                findings.append(
                    Finding(
                        path=protocol_rel,
                        rule="REPRO407",
                        name="traffic-envelope",
                        line=1,
                        col=0,
                        message=f"message kind {kind} is neither a "
                        "TTL-bounded flood nor adjacency gossip — no "
                        "derivable send envelope",
                    )
                )
    return findings, envelopes


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_bounds(
    paths: Sequence[Path], root: Optional[Path] = None
) -> Tuple[List[Finding], BoundsManifest]:
    """Run every REPRO4xx pass over ``paths`` (files or directories)."""
    root = (root or Path.cwd()).resolve()
    expanded: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            expanded.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            expanded.append(path)
    files = _parse_files(expanded, root)
    _SCOPE_CACHE.clear()

    analyzer = _Analyzer(files)
    analyzer.index()
    analyzer.radius_pass()
    analyzer.halo_plan_pass()
    findings = list(analyzer.findings)
    manifest = analyzer.manifest

    runtime_paths = [
        f.path for f in files if "repro/runtime/" in f.rel
    ]
    contract = ProtocolContract()
    if runtime_paths:
        contract, __ = extract_contract(runtime_paths, root)
        flood_findings, flood_manifest = check_floods(contract, files)
        findings.extend(flood_findings)
        manifest.floods = flood_manifest

    findings.extend(check_stage_cutoffs(files))

    envelope_findings, envelopes = check_envelopes(files, contract)
    findings.extend(envelope_findings)
    manifest.envelopes = envelopes

    kept: List[Finding] = []
    suppressed: set[Tuple[str, int]] = set()
    by_rel = {f.rel: f for f in files}
    for finding in findings:
        file = by_rel.get(finding.path)
        if file is None:
            kept.append(finding)
            continue
        survived = apply_suppressions([finding], file.lines)
        kept.extend(survived)
        if not survived:
            suppressed.add((finding.path, finding.line))
    for site in manifest.radius_sites:
        if site.status == "unproven" and (site.path, site.line) in suppressed:
            site.status = "allowed"
    kept.sort(key=lambda f: f.sort_key)
    return kept, manifest
