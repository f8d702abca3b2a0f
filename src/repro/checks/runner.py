"""``repro-check``: every static rule over the source tree in one pass.

Examples::

    repro-check                        # src/, text report
    repro-check src/ --json            # repro-check/v1 document
    repro-check --list-rules

One :class:`~repro.checks.engine.LintEngine` runs the per-file rules
(:mod:`repro.checks.rules`, REPRO103/104/113/114), the fork rule
(:mod:`repro.checks.concurrency`, REPRO307) and the locality rules
(:mod:`repro.checks.locality`, REPRO21x) over each file once; the
cross-module protocol pass (:mod:`repro.checks.protocol`, REPRO202/205)
adds its findings and the send/handle contract.  Inline
``# repro: allow[RULE]`` comments suppress a finding; nothing else does.

Exit status: 0 when there are no findings, 1 on any finding, 2 when a
path does not exist or holds no ``.py`` file.  Findings sort by
``(path, rule, line, col)`` with repo-relative POSIX paths, and the JSON
uses sorted keys, so reports are byte-stable across filesystems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checks.concurrency import concurrency_rules
from repro.checks.engine import Finding, LintEngine, Rule, render_text
from repro.checks.locality import default_locality_rules
from repro.checks.protocol import PROTOCOL_RULES, ProtocolContract, extract_contract
from repro.checks.rules import all_rules


def engine_rules() -> List[Rule]:
    """Fresh instances of every per-file rule, one engine's worth."""
    return [*all_rules(), *concurrency_rules(), *default_locality_rules()]


def run_checks(
    engine: LintEngine, paths: Sequence[Path]
) -> Tuple[List[Finding], ProtocolContract]:
    """One engine pass plus the protocol pass; returns ``(findings, contract)``."""
    contract, protocol_findings = extract_contract(paths, root=engine.root)
    findings = engine.lint(paths) + protocol_findings
    return sorted(findings, key=lambda f: f.sort_key), contract


def render_report(findings: Sequence[Finding], contract: ProtocolContract) -> str:
    """The ``repro-check/v1`` JSON document (sorted keys, stable)."""
    payload: Dict[str, object] = {
        "format": "repro-check/v1",
        "count": len(findings),
        "findings": [f.as_dict() for f in findings],
        "contract": {"kinds": list(contract.kinds), "matrix": contract.matrix()},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _missing_path(paths: Sequence[Path], engine: LintEngine) -> Optional[str]:
    """Why a path names nothing to check, or ``None`` when all are good."""
    for path in paths:
        if not path.exists():
            return f"no such path: {path}"
        if not engine.discover([path]):
            return f"no .py files under: {path}"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Wall-clock, layering, trace-guard, fork, locality and protocol "
            "checks for the repro codebase, in one pass with one exit code."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit stable JSON instead of text"
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="directory paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the rules and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        rows = [(r.rule_id, r.name, r.summary) for r in engine_rules()]
        for rule_id, name, summary in sorted(rows + list(PROTOCOL_RULES)):
            print(f"{rule_id}  {name:24s} {summary}")
        return 0
    root = Path(args.root).resolve() if args.root else Path.cwd()
    paths = [Path(p) for p in args.paths]
    engine = LintEngine(engine_rules(), root=root)
    problem = _missing_path(paths, engine)
    if problem:
        print(f"repro-check: {problem}", file=sys.stderr)
        return 2

    findings, contract = run_checks(engine, paths)
    if args.json:
        print(render_report(findings, contract))
    else:
        if findings:
            print(render_text(findings))
        print(f"repro-check: {len(findings)} finding(s)")
        kinds = ", ".join(
            f"{kind}({cell['sent']}s/{cell['handled']}h)"
            for kind, cell in sorted(contract.matrix().items())
        )
        print(f"repro-check: contract {kinds or '<empty>'}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
