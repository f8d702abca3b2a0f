"""The documented public API surface imports and is complete."""

import functools
import importlib
import textwrap

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

    def test_docstring_quickstart_runs(self):
        """The package docstring's quickstart block runs as written."""
        doc = repro.__doc__
        block = doc[doc.index("Quickstart::") + len("Quickstart::") :]
        block = block[: block.index("\n\nSee ")]
        code = textwrap.dedent(block).strip("\n")
        assert "assert is_tau_partitionable(result.active" in code
        namespace = {}
        exec(code, namespace)
        assert namespace["tau"] == 6


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



@functools.lru_cache(maxsize=1)
def _default_seeded_calls():
    """Public entry points that take ``rng=None``, called with their
    defaults on small deployments."""
    from repro.core.lifetime import energy_aware_schedule
    from repro.network.topologies import triangulated_grid

    net = repro.network_for_average_degree(150, 10, seed=1)
    graph, protected = net.graph, net.boundary_nodes
    mesh = triangulated_grid(5, 5)
    positions = [net.positions[v] for v in sorted(graph.vertices())]
    return {
        "dcc_schedule": lambda: repro.dcc_schedule(graph, protected, 4).removed,
        "distributed_dcc_schedule": lambda: repro.distributed_dcc_schedule(
            graph, protected, 4
        ).removed,
        "energy_aware_schedule": lambda: energy_aware_schedule(
            graph, protected, 4, {v: 1.0 for v in graph}
        ).removed,
        "hgc_schedule": lambda: repro.hgc_schedule(
            mesh.graph, [mesh.outer_boundary], mesh.outer_boundary
        ).removed,
        # every fourth node, so the raster has holes to measure
        "evaluate_coverage": lambda: repro.evaluate_coverage(
            positions[::4], net.rs, net.target_area
        ),
    }


class TestReproducibleByDefault:
    """Without an explicit ``rng`` every entry point seeds its own, so two
    calls with the defaults agree (no process-global or unseeded draw)."""

    @pytest.mark.parametrize(
        "name",
        [
            "dcc_schedule",
            "distributed_dcc_schedule",
            "energy_aware_schedule",
            "evaluate_coverage",
            "hgc_schedule",
        ],
    )
    def test_two_default_calls_agree(self, name):
        call = _default_seeded_calls()[name]
        assert call() == call()
