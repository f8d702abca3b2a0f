"""Output checks, run outside every timed region.

A cell fails when any of these does not hold:

* Theorem 5 -- partitionability after the schedule equals partitionability
  before it (on workloads that run the criterion);
* its removed-vertex order matches the digest recorded for its seed in
  ``expected.json`` (for seeds not recorded there: matches the run's other
  repetitions), and the sharded workload matches a serial schedule of the
  same inputs;
* its deterministic counts (rounds, deletions, deletability tests, BFS
  expansions, halo rows) repeat exactly across repetitions and match the
  recorded ones;
* the schedule is maximal: no remaining unprotected vertex passes the
  Definition 5 test on the dict-oracle path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from pipeline import (
    Cell,
    Inputs,
    Workload,
    definition5_oracle,
    digest_order,
    schedule_rng,
)
from repro.core.criterion import is_tau_partitionable
from repro.core.scheduler import dcc_schedule

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

COUNT_KEYS = ("rounds", "deletions", "tests", "bfs_expansions", "halo_rows")


def load_expected() -> Dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def cell_summary(cell: Cell) -> Dict:
    """What a repetition keeps of a cell: its digest, outcome and counts."""
    result = cell.result
    stats = result.shard_stats
    return {
        "tau": cell.tau,
        "digest": cell.digest,
        "active": result.num_active,
        "initially": cell.initially,
        "finally": cell.finally_,
        "covered": cell.covered_fraction,
        "rounds": result.rounds,
        "deletions": len(result.removed),
        "tests": result.counters.deletability_tests,
        "bfs_expansions": result.counters.bfs_expansions,
        "halo_rows": stats.halo_rows_total if stats is not None else 0,
    }


def counts_of(summary: Dict) -> Dict:
    return {key: summary[key] for key in COUNT_KEYS}


def _non_maximal(cell: Cell, protected) -> List[int]:
    active = cell.result.active.copy()
    return [
        v
        for v in active.vertices()
        if v not in protected and definition5_oracle(active, v, cell.tau)
    ]


def check_run(
    workload: Workload,
    seed: int,
    inputs: Inputs,
    first_cells: List[Cell],
    reps: List[List[Dict]],
    expected: Dict,
) -> Dict:
    """Check every cell of every repetition; returns the failure account.

    ``first_cells`` are the first repetition's full cells (the oracle and
    the out-of-region criterion run on them once: a later repetition with
    the same digest removed the same vertices in the same order).
    """
    notes: List[str] = []
    recorded_cells = expected["cells"].get(workload.family, {}).get(str(seed))
    recorded_counts = expected["counts"].get(workload.name, {}).get(str(seed))
    first = {s["tau"]: s for s in reps[0]}

    # Per-cell checks that need the full cell, done once per tau.
    cell_ok: Dict[int, bool] = {}
    serial_tests: Dict[int, int] = {}
    theorem5: Dict[int, tuple] = {}
    for cell in first_cells:
        tau = cell.tau
        ok = True
        if workload.criterion_check:
            theorem5[tau] = (
                is_tau_partitionable(inputs.graph, [inputs.cycle], tau),
                is_tau_partitionable(cell.result.active, [inputs.cycle], tau),
            )
        bad = _non_maximal(cell, inputs.protected)
        if bad:
            ok = False
            notes.append(f"tau={tau}: not maximal, {len(bad)} deletable left")
        if workload.shards is not None:
            serial = dcc_schedule(
                inputs.graph.copy(), inputs.protected, tau,
                rng=schedule_rng(workload, seed, tau), workers=1,
            )
            serial_tests[tau] = serial.counters.deletability_tests
            if digest_order(serial.removed) != cell.digest:
                ok = False
                notes.append(f"tau={tau}: sharded schedule differs from serial")
        cell_ok[tau] = ok

    attempted = failed = 0
    for index, rep in enumerate(reps):
        for summary in rep:
            tau = summary["tau"]
            attempted += 1
            problems = []
            if not cell_ok[tau]:
                problems.append("cell check")
            if workload.criterion:
                theorem5[tau] = (summary["initially"], summary["finally"])
            if tau in theorem5 and theorem5[tau][0] != theorem5[tau][1]:
                before, after = theorem5[tau]
                problems.append(f"Theorem 5: partitionable {before} -> {after}")
            if summary["digest"] != first[tau]["digest"]:
                problems.append("digest differs from the first repetition")
            if counts_of(summary) != counts_of(first[tau]):
                problems.append("counts differ from the first repetition")
            if recorded_cells is not None:
                if summary["digest"] != recorded_cells[str(tau)]:
                    problems.append("digest differs from the recorded one")
            if recorded_counts is not None:
                if counts_of(summary) != recorded_counts[str(tau)]:
                    problems.append("counts differ from the recorded ones")
            if problems:
                failed += 1
                notes.append(f"rep {index} tau={tau}: " + "; ".join(problems))
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "recorded": recorded_cells is not None,
        "serial_tests": serial_tests,
        "theorem5": theorem5,
    }


def check_inputs(workload: Workload, stamp: Dict, expected: Dict) -> Optional[str]:
    """A changed generator is a different input, never a speed-up."""
    want = expected["inputs"].get(workload.family)
    if want is None:
        return None
    got = {key: stamp[key] for key in want}
    if got != want:
        return f"inputs changed: recorded {want}, got {got}"
    return None
