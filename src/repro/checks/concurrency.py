"""Fork-inheritance safety for the process-parallel layer (REPRO307).

Module-level mutable state (ambient tracer, chaos stream) must be
re-initialized in a worker bootstrap or derived from the env-exported
knobs, the way ``REPRO_SANITIZE`` already is: anything else is a stale
copy in every forked worker.

The rule runs through the shared :class:`~repro.checks.engine.LintEngine`
in the same ``repro-check`` pass as every other rule, so inline
``# repro: allow[...]`` suppressions and the stable text/JSON reports
behave exactly as they do for the other rules.

What crosses a pool boundary and which ``REPRO_*`` names are read are
tests of the running code, not rules: a closure handed to a pool fails
to pickle (``test_parallel_starmap_matches_inline``), and
``tests/unit/test_knobs.py`` checks that every ``REPRO_*`` name is
declared and read only through :mod:`repro.knobs`.  The runtime
witness for the happens-before claims is the ``REPRO_CHAOS`` sanitizer
(:mod:`repro.parallel.runner`): it permutes completion/consumption
order at every pool barrier and injects seeded worker delays while CI
asserts schedules stay byte-identical.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.checks.engine import Finding, ModuleContext, Rule
from repro.checks.rules import _dotted, _import_map, _resolve

#: Directories the ownership/lifecycle rules apply to.
_SCOPE = ("repro/parallel/", "repro/shard/", "repro/topology/", "repro/obs/")

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


#: Rule metadata, mirrored in --list-rules and the docs.
CONCURRENCY_RULES: Tuple[Tuple[str, str, str], ...] = (
    ("REPRO307", "fork-inherited-state", ForkInheritedStateRule.summary),
)


def concurrency_rules() -> Sequence[Rule]:
    """Fresh instances of every REPRO3xx rule, id order."""
    return (ForkInheritedStateRule(),)
