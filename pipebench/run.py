"""Pipeline benchmark: deployment -> boundary -> criterion -> DCC schedule
-> coverage evaluation, driven through each layer's public functions.

Run from the repository root:

    python3 pipebench/run.py --workload fig2_paper --seed 0 --seconds 18 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up
runs from process start to a ready network (imports, generation, graph
build, boundary); it is timed in this process and in SETUP_REPEATS - 1
fresh ones, and the median is reported.  The solve (criterion,
schedules, coverage eval, where the workload runs them) repeats within
``--seconds`` and the median is reported.  No tracer is installed and
every ``REPRO_*`` knob is at its default.

``--trace 1`` reports the per-layer metrics: untraced and traced solves
alternate within ``--seconds``; the traced repetition with the median
wall gives the layer times, the untraced ones the tracing overhead.

Every repetition's outputs are checked outside the timed regions (see
verify.py); a schedule cell that fails a check is a failed operation.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3


@dataclass
class Rep:
    """One solve repetition."""

    tracer: Any  # None for an untraced repetition
    solve_s: float
    schedule_s: float
    summaries: List[dict]
    cells: Optional[list]  # kept for the first and the traced repetitions
    peak_rss_mb: float  # read right after this repetition


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up wall from process start, "
                        "then exit (how set-up is timed in a fresh process)")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children
    (the shard workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def solve_reps(workload, inputs, seed, seconds, kinds) -> List[Rep]:
    """Repeat the solve within ``seconds``, cycling through ``kinds``
    (False = untraced, True = traced) and running each at least once.

    A repetition starts only if one of median length still fits, so a
    solve of about ``seconds`` runs once instead of once or twice
    depending on the machine's speed at the time.  Successive cycles
    reverse the order, so neither kind always runs first."""
    from pipeline import solve
    from repro.obs.tracer import NULL_TRACER, Tracer, observe
    from verify import cell_summary

    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < len(kinds) or time.perf_counter() + statistics.median(
        rep.solve_s for rep in reps
    ) <= deadline:
        cycle, index = divmod(len(reps), len(kinds))
        traced = kinds[-1 - index if cycle % 2 else index]
        tracer = Tracer() if traced else None
        graph = inputs.graph.copy()
        start = time.perf_counter()
        if tracer is None:
            cells = solve(workload, inputs, graph, seed, NULL_TRACER)
        else:
            with observe(tracer):
                cells = solve(workload, inputs, graph, seed, tracer)
        solve_s = time.perf_counter() - start
        keep = cells if traced or not reps else None
        reps.append(
            Rep(tracer, solve_s, sum(c.schedule_s for c in cells),
                [cell_summary(c) for c in cells], keep, peak_rss_mb())
        )
        del cells  # free this repetition's graphs before the next one
    return reps


def fresh_setup_s(workload) -> float:
    """Set-up wall, from process start, of a fresh process."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload.name, "--seed", "0",
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=150,
    )
    return float(done.stdout.split()[-1])


def end_to_end(workload, seed, seconds, import_s):
    """The untraced run: set-up, repeated solves, then more set-ups."""
    from repro.obs.tracer import NULL_TRACER

    start = time.perf_counter()
    inputs = workload.setup(NULL_TRACER)
    setups = [import_s + time.perf_counter() - start]
    reps = solve_reps(workload, inputs, seed, seconds, [False])
    setups += [fresh_setup_s(workload) for __ in range(SETUP_REPEATS - 1)]
    first = reps[0].summaries
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(rep.solve_s for rep in reps),
        "schedule_s": statistics.median(rep.schedule_s for rep in reps),
        # Set-up plus one solve, as one pipeline run needs; read before
        # any set-up process is reaped, so the only children are workers.
        "peak_rss_mb": reps[0].peak_rss_mb,
        "active_fraction": statistics.fmean(
            s["active"] / len(inputs.graph) for s in first
        ),
        "rounds": sum(s["rounds"] for s in first),
    }
    return inputs, reps, metrics


def per_layer(workload, seed, seconds, import_s):
    """The traced run: one traced set-up, then untraced and traced solves.
    Returns the set-up tracer and wall (from process start) alongside."""
    from repro.obs.tracer import Tracer, observe

    setup_tracer = Tracer()
    setup_tracer.add_span("bench.import", import_s)
    start = time.perf_counter()
    with observe(setup_tracer):
        inputs = workload.setup(setup_tracer)
    setup_wall = time.perf_counter() - start
    reps = solve_reps(workload, inputs, seed, seconds, [False, True])
    return inputs, reps, (setup_tracer, import_s + setup_wall)


def stamp(workload, seed, inputs, cleared):
    import numpy
    from pipeline import edge_digest
    from repro import knobs

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "knobs": {name: os.environ.get(name, "") for name in knobs.knob_names()},
        "knobs_cleared": cleared,
        "nodes": len(inputs.graph),
        "edges": inputs.graph.num_edges(),
        "protected": len(inputs.protected),
        "edge_digest": edge_digest(inputs.graph),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"pipebench: no package source under {SRC} or no {SPEC.name}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    # Untraced runs measure the defaults: set knobs are cleared (and
    # stamped) before the package reads them.
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    import pipeline
    import verify

    import_s = time.perf_counter() - _START
    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"pipebench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        from repro.obs.tracer import NULL_TRACER

        workload.setup(NULL_TRACER)
        print(time.perf_counter() - _START)
        return 0
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    measure = per_layer if args.trace else end_to_end
    inputs, reps, values = measure(workload, args.seed, args.seconds, import_s)
    expected = verify.load_expected()
    check = verify.check_run(workload, args.seed, inputs, reps[0].cells,
                             [rep.summaries for rep in reps], expected)
    info = stamp(workload, args.seed, inputs, cleared)
    problems = list(check["notes"])
    changed = verify.check_inputs(workload, info, expected)
    if changed:
        problems.append(changed)
    if args.trace:
        from layers import traced_metrics

        setup_tracer, setup_wall = values
        values = traced_metrics(workload, inputs, setup_tracer, setup_wall,
                                reps, check["serial_tests"], problems)

    metrics = {}
    for entry in declared:
        if entry["name"] not in values:
            raise KeyError(f"metric {entry['name']!r} was not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
        print(f"{entry['name']:<36} {values[entry['name']]:>16.6g} "
              f"{entry['unit']}")
    first = reps[0].summaries
    print(f"repetitions {len(reps)}; digests recorded for this seed: "
          f"{check['recorded']}; Theorem 5 before -> after: "
          f"{check['theorem5']}; covered fraction: "
          f"{ {s['tau']: s['covered'] for s in first} }")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("stamp " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
