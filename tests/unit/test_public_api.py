"""The documented public API surface imports and is complete."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__

    def test_key_entry_points_are_callable(self):
        for name in (
            "dcc_schedule",
            "is_tau_partitionable",
            "network_for_average_degree",
            "outer_boundary_cycle",
            "hgc_verify",
            "evaluate_coverage",
            "generate_greenorbs_trace",
            "distributed_dcc_schedule",
        ):
            assert callable(getattr(repro, name))


SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestImportCost:
    LINTER = (
        "repro.checks.rules",
        "repro.checks.engine",
        "repro.checks.concurrency",
        "repro.checks.protocol",
    )

    def test_import_repro_leaves_the_linter_unloaded(self):
        # A fresh interpreter: this process's sys.modules holds whatever
        # earlier tests imported.
        probe = "import sys, repro; print(' '.join(m for m in sys.modules if m.startswith('repro.checks')))"
        result = _run_python("-c", probe)
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert "repro.checks.sanitizer" in loaded
        assert not loaded & set(self.LINTER)

    def test_checks_names_load_on_first_use(self):
        probe = (
            "import sys, repro.checks as c; c.LintEngine; c.DEFAULT_RULES; "
            "print(all(m in sys.modules for m in %r))" % (self.LINTER[:2],)
        )
        result = _run_python("-c", probe)
        assert result.stdout.strip() == "True", result.stderr

    def test_module_entry_point_still_runs(self):
        result = _run_python("-m", "repro.checks", "--list-rules")
        assert result.returncode == 0, result.stderr
        assert "REPRO" in result.stdout


SUBPACKAGES = [
    "repro.checks",
    "repro.core",
    "repro.cycles",
    "repro.homology",
    "repro.network",
    "repro.runtime",
    "repro.topology",
    "repro.geometry",
    "repro.boundary",
    "repro.traces",
    "repro.analysis",
    "repro.viz",
    "repro.cli",
]


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_imports_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize(
        "module_name",
        [m for m in SUBPACKAGES if m != "repro.cli"],
    )
    def test_declared_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()
