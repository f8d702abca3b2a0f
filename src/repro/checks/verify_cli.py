"""``repro-verify``: protocol verification front for the runtime.

Two static passes, one verdict:

1. **Contract extraction** (:mod:`repro.checks.protocol`, REPRO20x) —
   derives the send/handle matrix from ``runtime/`` and checks that
   every handled kind is sent and that every inbox loop accounts for
   the kinds it skips.
2. **Locality flow** (:mod:`repro.checks.locality`, REPRO21x) — proves
   per-node decision paths read only their own view and inbox; global
   reads survive only behind reasoned ``# repro: allow[...]`` comments.

The floods themselves are tested on the running runtime
(``tests/unit/test_runtime.py``): their radii, and that shuffling every
inbox changes no view, send count or MIS winner.

Examples::

    repro-verify                       # both passes on src/
    repro-verify --json                # stable machine-readable report
    repro-verify --list-rules

Exit status: 0 when no *new* findings (baselined ones are summarised but
do not fail), 1 otherwise.  The JSON report (``repro-verify/v2``)
contains the findings and the extracted send/handle matrix, each
rendered deterministically.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.checks.engine import Baseline, Finding, LintEngine, render_text
from repro.checks.locality import LOCALITY_RULES, default_locality_rules
from repro.checks.protocol import PROTOCOL_RULES, ProtocolContract, extract_contract
from repro.checks.runner import (
    add_front_args,
    parse_front,
    print_rule_rows,
    print_summary,
    split_baseline,
    write_baseline,
)

DEFAULT_BASELINE = "repro-verify.baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description=(
            "Protocol contract extraction and locality flow analysis for "
            "the distributed DCC runtime."
        ),
    )
    return add_front_args(parser, DEFAULT_BASELINE, select=False, verb="verify")


def _all_rule_rows() -> List[tuple]:
    return list(PROTOCOL_RULES) + list(LOCALITY_RULES)


def run_verify(paths: List[Path], root: Path) -> Tuple[List[Finding], ProtocolContract]:
    """Both passes; returns ``(findings, contract)``."""
    contract, findings = extract_contract(paths, root=root)
    engine = LintEngine(list(default_locality_rules()), root=root)
    findings = list(findings) + engine.lint(paths)
    return sorted(findings, key=lambda f: f.sort_key), contract


def render_report(findings: List[Finding], contract: ProtocolContract) -> str:
    """The ``repro-verify/v2`` JSON document (sorted keys, stable)."""
    payload: Dict[str, object] = {
        "format": "repro-verify/v2",
        "count": len(findings),
        "findings": [f.as_dict() for f in findings],
        "contract": {
            "kinds": list(contract.kinds),
            "matrix": contract.matrix(),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print_rule_rows(_all_rule_rows())
        return 0
    front = parse_front(args)
    findings, contract = run_verify(front.paths, front.root)

    if args.update_baseline:
        return write_baseline(findings, front.baseline_path)

    baseline = None if args.no_baseline else Baseline.load(front.baseline_path)
    fresh, parked = split_baseline(findings, baseline)

    if args.json:
        print(render_report(fresh, contract))
    else:
        if fresh:
            print(render_text(fresh))
        matrix = contract.matrix()
        kinds = ", ".join(
            f"{kind}({cell['sent']}s/{cell['handled']}h)"
            for kind, cell in sorted(matrix.items())
        )
        print(f"repro-verify: contract {kinds or '<empty>'}")
        print_summary("repro-verify", fresh, parked)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
