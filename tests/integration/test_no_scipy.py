"""Positioned runs need only the runtime dependencies (numpy, networkx).

scipy is a development extra.  The outer boundary cycle and a whole
``repro-coverage fig2`` run must succeed in a fresh interpreter where
importing scipy fails, and must not import it where it is installed.
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


def _run(mode):
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", _POSITIONED_RUN, mode],
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
