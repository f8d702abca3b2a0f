"""Ownership & lifecycle verification for the process-parallel layer.

The REPRO3xx rule family (the ``repro-race`` CLI) statically proves the
concurrency contracts DESIGN.md sections 9-10 *state* — the disciplines
the distributed-correctness argument hinges on:

* **Cross-process channel audit** (REPRO305-306).  The only data
  crossing a pool boundary is pickled compact tuples, halo rows and
  counter/span deltas.  Closures and task arguments capturing
  ``NetworkGraph``/engine/tracer objects at
  ``parallel_starmap``/``ShardWorkerPool``/``submit`` sites are flagged.
* **Fork-inheritance safety** (REPRO307).  Module-level mutable state
  (ambient tracer, chaos stream) must be re-initialized in a worker
  bootstrap or derived from the env-exported knobs, the way
  ``REPRO_SANITIZE`` already is — anything else is a stale copy in
  every forked worker.
* **The knob registry** (REPRO308).  Every ``os.environ`` access of a
  ``REPRO_*`` name must be declared in :mod:`repro.knobs`, and literal
  defaults must match the registry's.

Rules run through the shared :class:`~repro.checks.engine.LintEngine`,
so inline ``# repro: allow[...]`` suppressions, the committed baseline
and the stable text/JSON reports behave exactly like ``repro-lint``.

The runtime witness for the happens-before claims these rules make is
the ``REPRO_CHAOS`` sanitizer (:mod:`repro.parallel.runner`): it
permutes completion/consumption order at every pool barrier and injects
seeded worker delays while CI asserts schedules stay byte-identical.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import knobs as _knobs
from repro.checks.engine import Finding, ModuleContext, Rule
from repro.checks.rules import _dotted, _import_map, _resolve

#: Directories the ownership/lifecycle rules apply to.
_SCOPE = ("repro/parallel/", "repro/shard/", "repro/topology/", "repro/obs/")

#: Names whose presence in a pool-boundary argument means a rich
#: coordinator object would cross the process boundary.
_RICH_NAMES = frozenset(
    {
        "graph",
        "engine",
        "tracer",
        "metrics",
        "registry",
        "sim",
        "network",
        "exchange",
        "pool",
        "work",
    }
)

#: Function-name shapes accepted as re-initialization hooks (REPRO307).
_REINIT_NAME = re.compile(
    r"^_?(init|reset|enable|disable|clear|install|activate|deactivate)"
)


def _in_scope(path: str) -> bool:
    return any(part in path for part in _SCOPE)


def _functions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.FunctionDef, Optional[ast.ClassDef]]]:
    """Every function/method with its enclosing class (None at module level)."""

    def walk(node: ast.AST, owner: Optional[ast.ClassDef]) -> Iterator[
        Tuple[ast.FunctionDef, Optional[ast.ClassDef]]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner  # type: ignore[misc]
                yield from walk(child, owner)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child)
            else:
                yield from walk(child, owner)

    yield from walk(tree, None)


def _boundary_sites(
    tree: ast.Module, imports: Dict[str, str]
) -> Iterator[Tuple[ast.Call, Optional[ast.AST], List[ast.AST]]]:
    """Pool-boundary call sites: ``(call, callable_expr, payload_exprs)``.

    Yields every place a callable and its arguments are handed to
    another process: ``pool.submit(f, *args)``, ``ProcessPoolExecutor
    (initializer=..., initargs=...)``, ``multiprocessing.Process
    (target=..., args=...)`` and ``parallel_starmap(f, tasks, ...)``.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve(node.func, imports) or _dotted(node.func) or ""
        tail = target.rsplit(".", 1)[-1]
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if isinstance(node.func, ast.Attribute) and node.func.attr == "submit":
            if node.args:
                yield node, node.args[0], list(node.args[1:]) + list(
                    kwargs.values()
                )
        elif tail == "ProcessPoolExecutor":
            payload = _tuple_elements(kwargs.get("initargs"))
            yield node, kwargs.get("initializer"), payload
        elif tail == "Process" and "target" in kwargs:
            payload = _tuple_elements(kwargs.get("args"))
            yield node, kwargs.get("target"), payload
        elif tail == "parallel_starmap":
            func = node.args[0] if node.args else kwargs.get("func")
            payload = _tuple_elements(kwargs.get("initargs"))
            if len(node.args) > 1:
                payload.extend(_task_elements(node.args[1]))
            yield node, func, payload


def _tuple_elements(node: Optional[ast.AST]) -> List[ast.AST]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return list(node.elts)
    return [node] if node is not None else []


def _task_elements(node: ast.AST) -> List[ast.AST]:
    """Elements of a literal task list: [(a, b), ...] -> [a, b, ...]."""
    out: List[ast.AST] = []
    if isinstance(node, (ast.List, ast.Tuple)):
        for element in node.elts:
            out.extend(_tuple_elements(element))
    return out


class PoolBoundaryCallableRule(Rule):
    """Pool tasks are module-level functions, never closures/lambdas."""

    rule_id = "REPRO305"
    name = "pool-boundary-callable"
    summary = "closure or lambda handed across a pool boundary"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = _import_map(ctx.tree)
        nested = self._nested_names(ctx.tree)
        for call, func, __ in _boundary_sites(ctx.tree, imports):
            if func is None:
                continue
            if isinstance(func, ast.Lambda):
                yield self.finding(
                    ctx,
                    call,
                    "lambda crosses a pool boundary: task callables must be "
                    "module-level (picklable) functions",
                )
            elif isinstance(func, ast.Name) and func.id in nested:
                yield self.finding(
                    ctx,
                    call,
                    f"nested function '{func.id}' crosses a pool boundary: "
                    "a closure captures coordinator state; hoist it to "
                    "module level",
                )

    def _nested_names(self, tree: ast.Module) -> Set[str]:
        names: Set[str] = set()

        def walk(node: ast.AST, inside_fn: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if inside_fn:
                        names.add(child.name)
                    walk(child, True)
                elif isinstance(child, ast.ClassDef):
                    walk(child, inside_fn)
                else:
                    walk(child, inside_fn)

        walk(tree, False)
        return names


class PoolBoundaryArgsRule(Rule):
    """Only compact data crosses a pool boundary, never rich objects."""

    rule_id = "REPRO306"
    name = "pool-boundary-args"
    summary = "rich coordinator object handed across a pool boundary"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = _import_map(ctx.tree)
        for call, __, payload in _boundary_sites(ctx.tree, imports):
            for arg in payload:
                if arg is None or isinstance(arg, ast.Starred):
                    continue
                name = self._rich_name(arg)
                if name is not None:
                    yield self.finding(
                        ctx,
                        call,
                        f"'{name}' crosses a pool boundary: only compact "
                        "pickled tuples, halo rows and counter/span "
                        "deltas may cross — convert to a compact form "
                        "first (partition_parts / payloads)",
                    )

    def _rich_name(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in _RICH_NAMES:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in _RICH_NAMES:
            return _dotted(node) or node.attr
        return None


class ForkInheritedStateRule(Rule):
    """Module-level mutable state is worker-reinitialized or env-derived."""

    rule_id = "REPRO307"
    name = "fork-inherited-state"
    summary = "runtime-mutated module global without a re-init/env hook"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _in_scope(ctx.rel_path):
            return
        imports = _import_map(ctx.tree)
        module_slots: Dict[str, ast.AST] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module_slots[target.id] = node
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                module_slots[node.target.id] = node
        for name, site in sorted(module_slots.items()):
            assigners = self._assigning_functions(ctx.tree, name)
            if not assigners:
                continue  # constant table: never reassigned at runtime
            if any(self._is_reinit_hook(fn, imports) for fn in assigners):
                continue
            hooks = ", ".join(sorted(fn.name for fn in assigners))
            yield self.finding(
                ctx,
                site,
                f"module-level state '{name}' is reassigned at runtime "
                f"(by {hooks}) but never re-initialized in a worker "
                "bootstrap or derived from an env-exported knob: forked "
                "pool workers inherit a stale copy",
            )

    def _assigning_functions(
        self, tree: ast.Module, name: str
    ) -> List[ast.FunctionDef]:
        out: List[ast.FunctionDef] = []
        for fn, __ in _functions(tree):
            declares = any(
                isinstance(node, ast.Global) and name in node.names
                for node in ast.walk(fn)
            )
            if not declares:
                continue
            assigns = any(
                isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                )
                for node in ast.walk(fn)
            )
            if assigns:
                out.append(fn)
        return out

    def _is_reinit_hook(
        self, fn: ast.FunctionDef, imports: Dict[str, str]
    ) -> bool:
        if _REINIT_NAME.match(fn.name) or fn.name.endswith("_from_env"):
            return True
        # Env-derived state (the REPRO_SANITIZE pattern): the assigning
        # function reads a declared knob, so every worker re-derives the
        # value from the inherited environment.
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                target = _resolve(node.func, imports) or (
                    _dotted(node.func) or ""
                )
                if target.endswith(
                    ("knobs.get_flag", "knobs.get_int", "knobs.get_str")
                ) or target in ("os.getenv", "os.environ.get"):
                    return True
        return False


class KnobRegistryRule(Rule):
    """Every REPRO_* env access is declared in the knob registry."""

    rule_id = "REPRO308"
    name = "knob-registry"
    summary = "undeclared REPRO_* env access or default mismatch"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel_path.endswith("repro/knobs.py"):
            return  # the registry's own accessors
        imports = _import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, imports)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(ctx, node, imports)

    def _env_name(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("REPRO_"):
                return node.value
        return None

    def _is_environ(self, node: ast.AST, imports: Dict[str, str]) -> bool:
        target = _resolve(node, imports) or _dotted(node) or ""
        return target.endswith("environ")

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call, imports: Dict[str, str]
    ) -> Iterator[Finding]:
        func = node.func
        is_env_method = (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "pop", "setdefault")
            and self._is_environ(func.value, imports)
        )
        is_getenv = (_resolve(func, imports) or "") == "os.getenv"
        if not (is_env_method or is_getenv):
            return
        if not node.args:
            return
        name = self._env_name(node.args[0])
        if name is None:
            return
        yield from self._check_name(ctx, node, name)
        if name in {k.name for k in _knobs.KNOBS} and len(node.args) > 1:
            default = node.args[1]
            declared = _knobs.knob(name).default
            if (
                declared is not None
                and isinstance(default, ast.Constant)
                and isinstance(default.value, str)
                and default.value != declared
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"default mismatch for {name}: code says "
                    f"{default.value!r}, the registry says {declared!r} — "
                    "one documented default (repro.knobs)",
                )

    def _check_subscript(
        self, ctx: ModuleContext, node: ast.Subscript, imports: Dict[str, str]
    ) -> Iterator[Finding]:
        if not self._is_environ(node.value, imports):
            return
        name = self._env_name(node.slice)
        if name is None:
            return
        yield from self._check_name(ctx, node, name)

    def _check_name(
        self, ctx: ModuleContext, node: ast.AST, name: str
    ) -> Iterator[Finding]:
        if name not in {k.name for k in _knobs.KNOBS}:
            yield self.finding(
                ctx,
                node,
                f"undeclared knob {name}: declare name/type/default/layer "
                "in repro.knobs.KNOBS (the docs table and the bench "
                "fingerprint derive from it)",
            )


#: Rule metadata, mirrored in --list-rules and the docs.
CONCURRENCY_RULES: Tuple[Tuple[str, str, str], ...] = (
    ("REPRO305", "pool-boundary-callable", PoolBoundaryCallableRule.summary),
    ("REPRO306", "pool-boundary-args", PoolBoundaryArgsRule.summary),
    ("REPRO307", "fork-inherited-state", ForkInheritedStateRule.summary),
    ("REPRO308", "knob-registry", KnobRegistryRule.summary),
)


def concurrency_rules() -> Sequence[Rule]:
    """Fresh instances of every REPRO3xx rule, id order."""
    return (
        PoolBoundaryCallableRule(),
        PoolBoundaryArgsRule(),
        ForkInheritedStateRule(),
        KnobRegistryRule(),
    )
