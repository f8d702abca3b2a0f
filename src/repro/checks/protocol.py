"""Protocol contract extraction for the distributed DCC runtime (REPRO20x).

The paper's distributed protocol runs on three message kinds, and every
phase reads its inbox in a kind-filtered loop.  This pass parses the
whole ``runtime/`` package at once, derives the send/handle matrix, and
checks the two properties no per-file linter and no behavioural test
can see:

========  =====================  ==========================================
id        name                   catches
========  =====================  ==========================================
REPRO202  handled-unsent         a handler (or enum member) for a kind
                                 that is never sent
REPRO205  silent-drop            an inbox loop that skips kinds without
                                 routing them through ``record_drop``
========  =====================  ==========================================

The flood behaviour itself (TTLs, relay guards, radius-ball coverage,
order independence) is tested on the running runtime instead: see
``tests/unit/test_runtime.py`` (``TestFloodRadii`` and the inbox-shuffle
test).  Findings honour the ``# repro: allow[rule]`` suppressions of
:mod:`repro.checks.engine`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checks.engine import Finding, apply_suppressions

#: (rule id, rule name, summary) for every check this module performs.
PROTOCOL_RULES: Tuple[Tuple[str, str, str], ...] = (
    ("REPRO202", "handled-unsent", "handler or enum member for a kind never sent"),
    ("REPRO205", "silent-drop", "inbox loop skips kinds without record_drop accounting"),
)

_ENUM_NAME = "MessageKind"
_DROP_METHOD = "record_drop"


# ----------------------------------------------------------------------
# Contract data model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Site:
    """One send (``sim.send(Message(MessageKind.X, ...))``) or one kind
    guard inside an inbox loop."""

    path: str
    line: int
    kind: str


@dataclass
class ProtocolContract:
    """The extracted send/handle matrix of the runtime package."""

    kinds: Tuple[str, ...] = ()
    sends: List[Site] = field(default_factory=list)
    handles: List[Site] = field(default_factory=list)

    def matrix(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"sent": n, "handled": n}}`` — the send/handle matrix."""
        out: Dict[str, Dict[str, int]] = {
            kind: {"sent": 0, "handled": 0} for kind in self.kinds
        }
        for site in self.sends:
            out.setdefault(site.kind, {"sent": 0, "handled": 0})["sent"] += 1
        for site in self.handles:
            out.setdefault(site.kind, {"sent": 0, "handled": 0})["handled"] += 1
        return out


# ----------------------------------------------------------------------
# Per-file parsing helpers
# ----------------------------------------------------------------------
@dataclass
class _SourceFile:
    rel: str
    tree: ast.Module
    lines: List[str]


def _parse_files(paths: Sequence[Path], root: Path) -> List[_SourceFile]:
    files: List[_SourceFile] = []
    for path in sorted({Path(p).resolve() for p in paths}):
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue  # the engine pass owns the syntax-error finding
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        files.append(_SourceFile(rel, tree, source.splitlines()))
    return files


def _kind_ref(node: ast.AST) -> Optional[str]:
    """``MessageKind.X`` -> ``"X"``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == _ENUM_NAME
    ):
        return node.attr
    return None


def _sent_kind(node: ast.AST) -> Optional[str]:
    """For a ``<sim>.send(Message(MessageKind.X, ...))`` call, ``"X"``."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "send"
        and len(node.args) == 1
    ):
        return None
    message = node.args[0]
    if not (
        isinstance(message, ast.Call)
        and isinstance(message.func, ast.Name)
        and message.func.id == "Message"
    ):
        return None
    kind: Optional[str] = _kind_ref(message.args[0]) if message.args else None
    for kw in message.keywords:
        if kw.arg == "kind":
            kind = _kind_ref(kw.value)
    return kind


# ----------------------------------------------------------------------
# Handler-scope analysis
# ----------------------------------------------------------------------
def _inbox_loops(fn: ast.AST) -> List[Tuple[ast.For, str]]:
    """``for <msg> in <sim>.inbox(...)`` loops inside one function."""
    loops: List[Tuple[ast.For, str]] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.For):
            continue
        it = node.iter
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr == "inbox"
            and isinstance(node.target, ast.Name)
        ):
            loops.append((node, node.target.id))
    return loops


def _guard_kind(test: ast.expr, msg_var: str) -> Optional[Tuple[str, bool]]:
    """``(kind, negated)`` for a ``<msg>.kind is [not] MessageKind.X`` test."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return None
    left = test.left
    if not (
        isinstance(left, ast.Attribute)
        and left.attr == "kind"
        and isinstance(left.value, ast.Name)
        and left.value.id == msg_var
    ):
        return None
    kind = _kind_ref(test.comparators[0])
    if kind is None:
        return None
    op = test.ops[0]
    if isinstance(op, (ast.Is, ast.Eq)):
        return kind, False
    if isinstance(op, (ast.IsNot, ast.NotEq)):
        return kind, True
    return None


def _skips(body: Sequence[ast.stmt]) -> bool:
    """Does this guard body end the current message's processing?"""
    return bool(body) and isinstance(body[-1], (ast.Continue, ast.Break, ast.Return))


def _calls_record_drop(nodes: Sequence[ast.stmt]) -> bool:
    for stmt in nodes:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == _DROP_METHOD
            ):
                return True
    return False


def _loop_scopes(
    loop: ast.For, msg_var: str
) -> Tuple[List[Tuple[str, ast.If]], List[ast.If]]:
    """``(kind, guard)`` handlers of one inbox loop, plus its unaccounted
    guards.

    Two supported shapes::

        if msg.kind is MessageKind.X:      # positive: body handles X
            ...
        if msg.kind is not MessageKind.X:  # negated: the *rest* of the
            record_drop(...); continue     # loop body handles X
            ...

    The second return value lists guards whose skip path drops kinds
    without accounting (the REPRO205 anchors).
    """
    scopes: List[Tuple[str, ast.If]] = []
    silent: List[ast.If] = []

    def visit(body: List[ast.stmt]) -> None:
        for stmt in body:
            if not isinstance(stmt, ast.If):
                continue
            guarded = _guard_kind(stmt.test, msg_var)
            if guarded is None:
                visit(stmt.body)
                visit(stmt.orelse)
                continue
            kind, negated = guarded
            if negated and _skips(stmt.body):
                scopes.append((kind, stmt))
                if not _calls_record_drop(stmt.body):
                    silent.append(stmt)
            elif not negated:
                scopes.append((kind, stmt))
                if stmt.orelse:
                    visit(stmt.orelse)
                    if not _calls_record_drop(stmt.orelse):
                        silent.append(stmt)
                else:
                    silent.append(stmt)

    visit(loop.body)
    return scopes, silent


# ----------------------------------------------------------------------
# The extractor
# ----------------------------------------------------------------------
def _extract(files: List[_SourceFile]) -> Tuple[ProtocolContract, List[Finding]]:
    contract = ProtocolContract()
    findings: List[Finding] = []
    enum_rel = "<unknown>"
    for src in files:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and node.name == _ENUM_NAME:
                enum_rel = src.rel
                contract.kinds += tuple(
                    stmt.targets[0].id
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                )
            elif isinstance(node, ast.Call):
                kind = _sent_kind(node)
                if kind is not None:
                    contract.sends.append(Site(src.rel, node.lineno, kind))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for loop, msg_var in _inbox_loops(node):
                    scopes, silent = _loop_scopes(loop, msg_var)
                    for guard in silent:
                        findings.append(
                            Finding(
                                path=src.rel,
                                rule="REPRO205",
                                name="silent-drop",
                                line=guard.lineno,
                                col=guard.col_offset,
                                message="inbox loop skips message kinds "
                                "without accounting; route the skip path "
                                "through RuntimeStats.record_drop(kind)",
                            )
                        )
                    contract.handles.extend(
                        Site(src.rel, guard.lineno, kind)
                        for kind, guard in scopes
                    )

    # REPRO202: a handler, or an enum member, for a kind nobody sends.
    sent = {s.kind for s in contract.sends}
    handled = {h.kind for h in contract.handles}
    for site in contract.handles:
        if site.kind not in sent:
            findings.append(
                Finding(
                    path=site.path,
                    rule="REPRO202",
                    name="handled-unsent",
                    line=site.line,
                    col=0,
                    message=f"MessageKind.{site.kind} is handled here but "
                    "never sent",
                )
            )
    for kind in contract.kinds:
        if kind not in sent and kind not in handled:
            findings.append(
                Finding(
                    path=enum_rel,
                    rule="REPRO202",
                    name="handled-unsent",
                    line=1,
                    col=0,
                    message=f"MessageKind.{kind} is defined but never sent "
                    "nor handled",
                )
            )

    # Inline suppressions, per file the finding points into.
    lines_by_rel = {src.rel: src.lines for src in files}
    kept: List[Finding] = []
    for finding in findings:
        lines = lines_by_rel.get(finding.path)
        if lines is None:
            kept.append(finding)
        else:
            kept.extend(apply_suppressions([finding], lines))
    return contract, sorted(kept, key=lambda f: f.sort_key)


def extract_contract(
    paths: Sequence[Path], root: Optional[Path] = None
) -> Tuple[ProtocolContract, List[Finding]]:
    """Parse ``paths`` (files or directories) and extract the contract."""
    root = (root or Path.cwd()).resolve()
    expanded: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            expanded.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            expanded.append(path)
    return _extract(_parse_files(expanded, root))
