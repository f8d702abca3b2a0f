"""The repo-specific per-file rules (REPRO103/104/113/114).

Wall clock inside deterministic paths (REPRO103), imports across the
layering contract (REPRO104), shard-local code reaching for
coordinator state (REPRO113) and unguarded trace calls on hot paths
(REPRO114).  Unseeded RNGs and set-iteration order have no rule:
tests of the running code guard them (the examples' byte-diff under two
hash seeds, the schedule-invariance property test, the
reproducible-defaults test of the public API and the recorded schedule
pins).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.checks.engine import Finding, ModuleContext, Rule
from repro.checks.locality import _bound_node_names

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> full dotted path, from every import in the module."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted path of a call target, via the import map."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    full_head = imports.get(head, head)
    return f"{full_head}.{rest}" if rest else full_head


def _snippet(node: ast.AST, limit: int = 48) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on py>=3.9
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ----------------------------------------------------------------------
# REPRO103: wall clock outside the observability layer
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    """``time.time()`` / ``datetime.now()`` outside ``repro/obs``.

    Wall-clock reads belong to the observability layer, whose exports
    mark them volatile and strip them before determinism comparisons.
    (``perf_counter`` / ``process_time`` are *allowed* everywhere: they
    are interval timers that only ever feed volatile metrics.)
    """

    rule_id = "REPRO103"
    name = "wall-clock"
    summary = "wall-clock call outside the obs layer"
    allowed_path_parts: Tuple[str, ...] = ("repro/obs/", "repro/checks/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if any(part in ctx.rel_path for part in self.allowed_path_parts):
            return
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            full = _resolve(node.func, imports)
            if full in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{full}() in a deterministic path; route timing "
                    "through repro.obs (volatile metrics) instead",
                )


# ----------------------------------------------------------------------
# REPRO104: layering contract (kernel must stay below obs)
# ----------------------------------------------------------------------
#: (path substring, forbidden import prefix, why)
_LAYER_CONTRACTS: Tuple[Tuple[str, str, str], ...] = (
    (
        "repro/cycles/",
        "repro.obs",
        "the kernel is observed through a duck-typed tracer attribute; an "
        "obs import would close the obs -> viz -> graph -> kernel cycle",
    ),
    (
        "repro/network/",
        "repro.obs",
        "graph primitives sit below the observability layer",
    ),
    (
        "repro/checks/sanitizer",
        "repro.topology",
        "the topology engine imports the sanitizer; importing it back "
        "would create an import cycle",
    ),
)


class LayeringRule(Rule):
    """Forbidden cross-layer imports (module-level *and* lazy)."""

    rule_id = "REPRO104"
    name = "layering"
    summary = "import that violates the layering contract"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        contracts = [
            (prefix, why)
            for part, prefix, why in _LAYER_CONTRACTS
            if part in ctx.rel_path
        ]
        if not contracts:
            return
        for node in ast.walk(ctx.tree):
            modules: List[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                for prefix, why in contracts:
                    if module == prefix or module.startswith(prefix + "."):
                        yield self.finding(
                            ctx, node, f"import of {module} is forbidden here: {why}"
                        )


# ----------------------------------------------------------------------
# REPRO113: shard-local code must stay inside its partition
# ----------------------------------------------------------------------
#: The module holding shard-*local* protocol logic.  Everything else in
#: ``repro/shard/`` (plan, halo, scheduler) *is* the coordinator side.
_SHARD_LOCAL_SUFFIX = "repro/shard/runtime.py"

#: Coordinator-scope vocabulary.  A shard sees only its partition blob
#: (owned + halo vertices and their induced edges); any of these names
#: appearing in shard-local code means deployment-global state leaked
#: across the halo-exchange boundary.
_COORDINATOR_STATE_NAMES = {
    "plan", "owner_of", "subscribers", "specs", "work",
    "full_graph", "global_graph", "coordinator", "sim",
}

#: Modules a shard-local file must not import: they hold (or can reach)
#: the whole deployment, which would let a shard compute verdicts from
#: vertices outside its owned+halo range.
_COORDINATOR_MODULE_PREFIXES = (
    "repro.shard.plan",
    "repro.shard.halo",
    "repro.shard.scheduler",
    "repro.core",
    "repro.parallel",
    "repro.analysis",
)


class ShardLocalityRule(Rule):
    """Shard-local code reaching for coordinator-scope state.

    The sharded scheduler's correctness argument (DESIGN.md section 9)
    rests on each shard computing verdicts and MIS votes from its own
    partition only — the owned region plus the ``ceil(tau/2)``-hop halo
    the coordinator ships to it.  This is the same locality discipline
    REPRO210 enforces for the per-node runtime, lifted to regions: the
    rule reuses that flow machinery (:func:`repro.checks.locality.
    _bound_node_names`) to tell a coordinator name that was *threaded
    in* as a parameter or loop binding from one that leaked in as a
    global, and reports accordingly.
    """

    rule_id = "REPRO113"
    name = "shard-locality"
    summary = "shard-local code reaches for coordinator-scope state"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.rel_path.endswith(_SHARD_LOCAL_SUFFIX):
            return
        bound = _bound_node_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            modules: List[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                for prefix in _COORDINATOR_MODULE_PREFIXES:
                    if module == prefix or module.startswith(prefix + "."):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {module} in shard-local code; the "
                            "coordinator side of the halo exchange must "
                            "stay out of the shard's reach",
                        )
            if isinstance(node, ast.Attribute):
                if node.attr in _COORDINATOR_STATE_NAMES:
                    yield self.finding(
                        ctx,
                        node,
                        f"attribute `.{node.attr}` is coordinator-scope "
                        "state; a shard may only read its own partition "
                        "(owned + halo rows shipped by the exchange)",
                    )
            elif isinstance(node, ast.Name) and node.id in _COORDINATOR_STATE_NAMES:
                how = (
                    "threaded in as a local binding"
                    if node.id in bound
                    else "read as a global"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"coordinator-scope name `{node.id}` {how} in "
                    "shard-local code; verdicts must derive from the "
                    "partition blob alone",
                )


# ----------------------------------------------------------------------
# REPRO114: hot-path trace calls must be guarded
# ----------------------------------------------------------------------
#: modules where tracing must cost one attribute probe when disabled
_HOT_PATH_PARTS: Tuple[str, ...] = ("repro/cycles/", "repro/topology/")
_HOT_PATH_SUFFIXES: Tuple[str, ...] = ("repro/shard/runtime.py",)
_TRACE_METHODS = frozenset({"trace", "add_span"})


class TraceGuardRule(Rule):
    """Unguarded tracer calls in hot-path modules.

    The null-tracer contract (DESIGN.md section 6) lets coarse sites —
    one span per round, per figure, per sweep — call ``tracer.trace()``
    unconditionally, but in the per-vertex/per-wave hot paths even the
    no-op context manager's allocation shows up.  There, every
    ``.trace()`` / ``.add_span()`` must sit behind a cheap guard.  Two
    shapes are accepted:

    * an **ancestor guard** — the call is (transitively) inside the
      positive branch of an ``if`` whose test probes ``.enabled`` or
      compares against ``NULL_TRACER``
      (``if tracer.enabled: with tracer.trace(...)``), and
    * an **early-return guard** — a preceding top-level statement of
      the enclosing function tests the same thing and leaves
      (``trc = self.tracer``, ``if trc is None or not trc.enabled:
      return self._impl(...)``, then ``with trc.trace(...)``).

    The rule keys on the receiver name (``tracer`` / ``trc`` /
    ``*.tracer``), so unrelated ``.trace()`` methods stay out of scope.
    """

    rule_id = "REPRO114"
    name = "trace-guard"
    summary = "unguarded trace call in a hot-path module"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        hot = any(part in ctx.rel_path for part in _HOT_PATH_PARTS) or (
            ctx.rel_path.endswith(_HOT_PATH_SUFFIXES)
        )
        if not hot:
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TRACE_METHODS
            ):
                continue
            receiver = _dotted(node.func.value) or ""
            tail = receiver.rsplit(".", 1)[-1]
            if tail not in ("tracer", "trc"):
                continue
            if self._guarded(node, parents):
                continue
            yield self.finding(
                ctx,
                node,
                f"`{_snippet(node.func)}()` in a hot-path module without a "
                "`tracer.enabled` / NULL_TRACER guard; disabled runs must "
                "pay one attribute probe, not a no-op span",
            )

    @staticmethod
    def _is_guard_test(test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "NULL_TRACER":
                return True
        return False

    @staticmethod
    def _leaves(stmt: ast.If) -> bool:
        return bool(stmt.body) and isinstance(
            stmt.body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    def _guarded(self, call: ast.Call, parents: Dict[ast.AST, ast.AST]) -> bool:
        node: ast.AST = call
        while node in parents:
            parent = parents[node]
            if (
                isinstance(parent, ast.If)
                and any(node is stmt for stmt in parent.body)
                and self._is_guard_test(parent.test)
            ):
                return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Early-return guard: a preceding top-level statement of
                # this function that probes the tracer and leaves.
                for stmt in parent.body:
                    if stmt.lineno >= call.lineno:
                        break
                    if (
                        isinstance(stmt, ast.If)
                        and self._is_guard_test(stmt.test)
                        and self._leaves(stmt)
                    ):
                        return True
                return False
            node = parent
        return False


DEFAULT_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    LayeringRule(),
    ShardLocalityRule(),
    TraceGuardRule(),
)


def all_rules() -> List[Rule]:
    """Fresh instances of every default rule (rules are stateless)."""
    return [type(rule)() for rule in DEFAULT_RULES]
