"""Runs load only the dependencies they compute with.

scipy is a development extra.  The outer boundary cycle and a whole
``repro-coverage fig2`` run must succeed in a fresh interpreter where
importing scipy fails, and must not import it where it is installed.

numpy is a runtime dependency, but only the GreenOrbs trace generator
(which imports it when called) and the shard-only maximal independent set
compute with it; the coverage raster is pure Python.  Importing the
package and the CLI, deploying, extracting the boundary, checking the
criterion, scheduling at ``workers=1`` and evaluating the schedule's
coverage must neither load numpy nor need it.
"""

import os
import subprocess
import sys
from pathlib import Path

_POSITIONED_RUN = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from repro.boundary.geometric import outer_boundary_cycle
from repro.cli import main
from repro.network.deployment import network_for_average_degree

cycle = outer_boundary_cycle(network_for_average_degree(200, 12, seed=3))
assert len(cycle) >= 3, cycle
main(["fig2", "--nodes", "80", "--workers", "1"])
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
assert not loaded, loaded[:5]
print("no scipy:", len(cycle))
"""

_SCHEDULE_RUN = """
import random
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import repro
import repro.cli
from repro import (
    dcc_schedule,
    evaluate_coverage,
    is_tau_partitionable,
    network_for_average_degree,
    outer_boundary_cycle,
)

net = network_for_average_degree(300, 22.0, seed=7)
boundary = outer_boundary_cycle(net)
protected = set(net.boundary_nodes) | set(boundary)
before = is_tau_partitionable(net.graph, [boundary], 6)
result = dcc_schedule(net.graph, protected, 6, rng=random.Random(7), workers=1)
after = is_tau_partitionable(result.active, [boundary], 6)
assert before and after, (before, after)
report = evaluate_coverage(
    [net.positions[v] for v in result.active.vertices()], net.rs, net.target_area
)
assert report.covered_fraction > 0.9, report.covered_fraction
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "numpy" and module is not None
)
assert not loaded, loaded[:5]
print("no numpy:", result.num_active, report.covered_fraction)
"""


def _run(mode, script=_POSITIONED_RUN):
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestNoScipy:
    def test_positioned_run_succeeds_with_scipy_unimportable(self):
        run = _run("blocked")
        assert run.returncode == 0, run.stderr
        assert "no scipy:" in run.stdout

    def test_positioned_run_never_imports_scipy(self):
        run = _run("available")
        assert run.returncode == 0, run.stderr
        assert "no scipy:" in run.stdout


class TestNumpyOffTheSchedulePath:
    def test_schedule_run_never_imports_numpy(self):
        run = _run("available", _SCHEDULE_RUN)
        assert run.returncode == 0, run.stderr
        assert "no numpy:" in run.stdout

    def test_schedule_run_succeeds_with_numpy_unimportable(self):
        run = _run("blocked", _SCHEDULE_RUN)
        assert run.returncode == 0, run.stderr
        assert "no numpy:" in run.stdout
