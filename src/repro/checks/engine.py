"""The static-analysis engine: file walker, rule registry, reporters.

A :class:`Rule` inspects one parsed module and yields :class:`Finding`
objects.  The engine owns everything around that: discovering files,
parsing them once per file, applying inline ``# repro: allow[RULE]``
suppressions, and rendering the survivors as text or JSON.

Determinism of the *tooling itself* is part of the contract: findings
are always sorted by ``(path, rule, line, column)``, paths are
repo-relative POSIX strings, and the JSON rendering round-trips through
``sort_keys`` — so CI diffs are byte-stable across filesystems and walk
orders.

Suppression syntax, on the flagged line or the line directly above::

    stamp = time.time()  # repro: allow[wall-clock] reason...

Rule ids (``REPRO103``) are accepted interchangeably with rule names.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: ``# repro: allow[rule-a, RULE002]`` — case-preserving, comma tolerant.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # repo-relative POSIX path
    rule: str  # rule id, e.g. "REPRO103"
    name: str  # rule name, e.g. "wall-clock"
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str

    @property
    def sort_key(self) -> Tuple[str, str, int, int]:
        return (self.path, self.rule, self.line, self.col)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "rule": self.rule,
            "name": self.name,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class: one named check over a parsed module.

    Subclasses set :attr:`rule_id` / :attr:`name` / :attr:`summary` and
    implement :meth:`check`, yielding findings via :meth:`finding`.
    """

    rule_id: str = "REPRO000"
    name: str = "abstract-rule"
    summary: str = ""

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: "ModuleContext", node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.rel_path,
            rule=self.rule_id,
            name=self.name,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class ModuleContext:
    """Everything a rule may need about one source file."""

    rel_path: str
    tree: ast.Module
    source_lines: List[str] = field(default_factory=list)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""


def _suppressions(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map of line number -> set of allowed rule tokens (ids and names)."""
    out: Dict[int, Set[str]] = {}
    for i, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match:
            tokens = {t.strip() for t in match.group(1).split(",") if t.strip()}
            out[i] = tokens
    return out


def _is_suppressed(finding: Finding, allows: Dict[int, Set[str]]) -> bool:
    # The comment may sit on the flagged line or on the line above
    # (long expressions often leave no room on the line itself).
    for lineno in (finding.line, finding.line - 1):
        tokens = allows.get(lineno)
        if tokens and (finding.rule in tokens or finding.name in tokens):
            return True
    return False


def apply_suppressions(
    findings: Sequence[Finding], source_lines: Sequence[str]
) -> List[Finding]:
    """Drop findings silenced by ``# repro: allow[...]`` comments.

    For passes that produce findings outside :meth:`LintEngine.lint_file`
    (e.g. the cross-module protocol extraction of
    :mod:`repro.checks.protocol`) but must honour the same inline
    suppression contract.  ``source_lines`` are the lines of the file the
    findings point into.
    """
    allows = _suppressions(source_lines)
    return [f for f in findings if not _is_suppressed(f, allows)]


class LintEngine:
    """Walk files, run every registered rule, apply suppressions."""

    def __init__(self, rules: Sequence[Rule], root: Optional[Path] = None) -> None:
        ids = [r.rule_id for r in rules]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate rule ids: {sorted(ids)}")
        self.rules = list(rules)
        self.root = (root or Path.cwd()).resolve()

    # ------------------------------------------------------------------
    def discover(self, paths: Sequence[Path]) -> List[Path]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        found: Set[Path] = set()
        for path in paths:
            path = Path(path)
            if path.is_dir():
                found.update(path.rglob("*.py"))
            elif path.suffix == ".py":
                found.add(path)
        return sorted(p.resolve() for p in found)

    def _rel(self, path: Path) -> str:
        try:
            rel = path.resolve().relative_to(self.root)
        except ValueError:
            rel = path
        return rel.as_posix()

    def lint_file(self, path: Path) -> List[Finding]:
        source = Path(path).read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [
                Finding(
                    path=self._rel(Path(path)),
                    rule="REPRO999",
                    name="syntax-error",
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        lines = source.splitlines()
        ctx = ModuleContext(
            rel_path=self._rel(Path(path)), tree=tree, source_lines=lines
        )
        allows = _suppressions(lines)
        findings: List[Finding] = []
        for rule in self.rules:
            for finding in rule.check(ctx):
                if not _is_suppressed(finding, allows):
                    findings.append(finding)
        return findings

    def lint(self, paths: Sequence[Path]) -> List[Finding]:
        findings: List[Finding] = []
        for path in self.discover(paths):
            findings.extend(self.lint_file(path))
        return sorted(findings, key=lambda f: f.sort_key)


def lint_paths(
    paths: Sequence[Path], rules: Sequence[Rule], root: Optional[Path] = None
) -> List[Finding]:
    """Lint ``paths`` with ``rules``; findings sorted by :attr:`Finding.sort_key`."""
    return LintEngine(rules, root=root).lint(paths)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE [name] message`` row per finding."""
    rows = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.name}] {f.message}"
        for f in sorted(findings, key=lambda f: f.sort_key)
    ]
    return "\n".join(rows)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON: findings sorted by (path, rule, line), sorted keys."""
    payload = {
        "format": "repro-lint/v1",
        "count": len(findings),
        "findings": [
            f.as_dict() for f in sorted(findings, key=lambda f: f.sort_key)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
