"""Record the schedules the benchmark checks against (expected.json).

    python3 pipebench/record.py --seeds 0-19 [--workload NAME ...]

For each workload and seed this stores every cell's removed-vertex digest
(shared by workloads of one family: the sharded schedule must equal the
serial one) and its deterministic counts, plus each family's input stamp.
The first workload of a family records its digests; the others must match
them.  Run it, with no ``REPRO_*`` knob set, when the benchmark is
defined; a later change that alters a schedule shows as failed cells.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pipeline import WORKLOADS, edge_digest, solve  # noqa: E402
from repro.obs.tracer import NULL_TRACER  # noqa: E402
from verify import EXPECTED_PATH, cell_summary, counts_of  # noqa: E402


def seed_range(text: str):
    low, __, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        raise SystemExit(f"record at the defaults: unset {', '.join(knobs)}")

    expected = json.loads(EXPECTED_PATH.read_text())
    for name in args.workload or WORKLOADS:
        # The criterion and coverage eval do not change the schedule.
        workload = dataclasses.replace(
            WORKLOADS[name], criterion=False, coverage=False
        )
        inputs = workload.setup(NULL_TRACER)
        expected["inputs"][workload.family] = {
            "nodes": len(inputs.graph),
            "edges": inputs.graph.num_edges(),
            "protected": len(inputs.protected),
            "edge_digest": edge_digest(inputs.graph),
        }
        for seed in args.seeds:
            cells = solve(workload, inputs, inputs.graph.copy(), seed,
                          NULL_TRACER)
            summaries = [cell_summary(cell) for cell in cells]
            digests = {str(s["tau"]): s["digest"] for s in summaries}
            family = expected["cells"].setdefault(workload.family, {})
            if family.setdefault(str(seed), digests) != digests:
                raise SystemExit(
                    f"{name} seed {seed}: schedule differs from the one "
                    f"recorded for its family"
                )
            expected["counts"].setdefault(name, {})[str(seed)] = {
                str(s["tau"]): counts_of(s) for s in summaries
            }
            print(f"{name} seed {seed}: {digests}", flush=True)
        EXPECTED_PATH.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
