"""Shared CLI plumbing for the check fronts, plus ``repro-check``.

Three fronts share one reporting contract — positional paths, ``--json``,
a committed baseline with ``--no-baseline``/``--update-baseline``,
``--select``/``--list-rules``, ``--root`` — and before this module each
CLI carried its own copy of that boilerplate.  The helpers here own it
once:

* :func:`add_front_args` / :func:`parse_front` — the common argument
  set and its resolution (root, paths, baseline path).
* :func:`select_rules`, :func:`print_rule_rows` — ``--select`` and
  ``--list-rules`` handling.
* :func:`run_engine_front` — the complete main loop for a front whose
  findings come from :func:`repro.checks.engine.lint_paths`
  (``repro-lint``, ``repro-race``).
* :func:`split_baseline`, :func:`write_baseline`,
  :func:`print_summary` — the pieces a front with a bespoke pipeline
  (``repro-verify``) composes itself.
* :func:`main` — the ``repro-check`` umbrella: every front in sequence,
  one exit code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.checks.engine import (
    Baseline,
    Finding,
    Rule,
    lint_paths,
    render_json,
    render_text,
)


def add_front_args(
    parser: argparse.ArgumentParser,
    default_baseline: str,
    *,
    select: bool = True,
    verb: str = "check",
) -> argparse.ArgumentParser:
    """The argument set every check front shares."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help=f"files or directories to {verb} (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit stable JSON instead of text"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=default_baseline,
        help=f"baseline file of accepted findings (default: {default_baseline})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file: report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    if select:
        parser.add_argument(
            "--select",
            metavar="RULES",
            default=None,
            help="comma-separated rule ids/names to run (default: all)",
        )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the rules and exit"
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="directory paths are reported relative to (default: cwd)",
    )
    return parser


@dataclass
class FrontPaths:
    """Resolved common arguments."""

    root: Path
    paths: List[Path]
    baseline_path: Path


def parse_front(args: argparse.Namespace) -> FrontPaths:
    root = Path(args.root).resolve() if args.root else Path.cwd()
    paths = [Path(p) for p in args.paths]
    baseline_path = (
        Path(args.baseline)
        if Path(args.baseline).is_absolute()
        else root / args.baseline
    )
    return FrontPaths(root=root, paths=paths, baseline_path=baseline_path)


def select_rules(
    rules: Sequence[Rule], select: Optional[str]
) -> Tuple[List[Rule], Optional[str]]:
    """Apply ``--select``; returns ``(rules, error message or None)``."""
    if not select:
        return list(rules), None
    wanted = {token.strip() for token in select.split(",") if token.strip()}
    chosen = [r for r in rules if r.rule_id in wanted or r.name in wanted]
    unknown = wanted - {r.rule_id for r in chosen} - {r.name for r in chosen}
    if unknown:
        return chosen, f"unknown rules: {', '.join(sorted(unknown))}"
    return chosen, None


def print_rule_rows(rows: Iterable[Tuple[str, str, str]]) -> None:
    for rule_id, name, summary in rows:
        print(f"{rule_id}  {name:24s} {summary}")


def split_baseline(
    findings: Sequence[Finding], baseline: Optional[Baseline]
) -> Tuple[List[Finding], List[Finding]]:
    """Partition into (fresh, parked-by-baseline)."""
    if baseline is None:
        return list(findings), []
    fresh = [f for f in findings if f not in baseline]
    parked = [f for f in findings if f in baseline]
    return fresh, parked


def write_baseline(findings: Sequence[Finding], path: Path) -> int:
    baseline = Baseline(f.fingerprint() for f in findings)
    baseline.save(path)
    print(f"baseline: {len(baseline)} findings -> {path}")
    return 0


def print_summary(
    prog: str, fresh: Sequence[Finding], parked: Sequence[Finding]
) -> None:
    summary = f"{prog}: {len(fresh)} finding(s)"
    if parked:
        summary += f" ({len(parked)} baselined)"
    print(summary)


def run_engine_front(
    prog: str,
    rules: Sequence[Rule],
    args: argparse.Namespace,
    report_format: Optional[str] = None,
) -> int:
    """The complete main loop for an engine-rule front (lint/race)."""
    if args.list_rules:
        print_rule_rows((r.rule_id, r.name, r.summary) for r in rules)
        return 0
    chosen, error = select_rules(rules, getattr(args, "select", None))
    if error:
        print(error, file=sys.stderr)
        return 2
    front = parse_front(args)

    if args.update_baseline:
        findings, _ = lint_paths(front.paths, chosen, baseline=None, root=front.root)
        return write_baseline(findings, front.baseline_path)

    baseline = None if args.no_baseline else Baseline.load(front.baseline_path)
    fresh, parked = lint_paths(
        front.paths, chosen, baseline=baseline, root=front.root
    )
    if args.json:
        if report_format is None:
            print(render_json(fresh))
        else:
            print(render_json(fresh, format=report_format))
    else:
        if fresh:
            print(render_text(fresh))
        print_summary(prog, fresh, parked)
    return 1 if fresh else 0


# ----------------------------------------------------------------------
# repro-check: the umbrella entry point
# ----------------------------------------------------------------------
def _front_table() -> List[Tuple[str, Callable[[Optional[List[str]]], int]]]:
    # Imported lazily so `repro-check --help` stays instant and a broken
    # front doesn't take the others down at import time.
    from repro.checks.cli import main as lint_main
    from repro.checks.race_cli import main as race_main
    from repro.checks.verify_cli import main as verify_main

    return [
        ("repro-lint", lint_main),
        ("repro-race", race_main),
        ("repro-verify", verify_main),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Run every static check front (repro-lint, repro-race, "
            "repro-verify) with committed baselines and one combined "
            "exit code."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="directory paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--fronts",
        metavar="NAMES",
        default=None,
        help=(
            "comma-separated subset of fronts to run "
            "(lint, race, verify; default: all)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    wanted: Optional[set] = None
    if args.fronts:
        wanted = {
            token.strip().removeprefix("repro-")
            for token in args.fronts.split(",")
            if token.strip()
        }
        known = {"lint", "race", "verify"}
        unknown = wanted - known
        if unknown:
            print(
                f"unknown fronts: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
    worst = 0
    for prog, front_main in _front_table():
        name = prog.removeprefix("repro-")
        if wanted is not None and name not in wanted:
            continue
        front_argv: List[str] = list(args.paths)
        if args.root:
            front_argv += ["--root", args.root]
        print(f"== {prog} ==")
        code = front_main(front_argv)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
