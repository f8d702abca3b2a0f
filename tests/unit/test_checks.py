"""Unit tests for the repro.checks layer: engine, rules, sanitizer, CLI."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.checks.engine import (
    Finding,
    LintEngine,
    lint_paths,
    render_json,
    render_text,
)
from repro.checks.rules import all_rules
from repro.checks.runner import main as check_main
from repro.checks.sanitizer import (
    Sanitizer,
    SanitizerError,
    check_merge_associativity,
    current_sanitizer,
    disable_sanitizer,
    enable_sanitizer,
    oracle_ball,
    oracle_deletable,
)
from repro.core.criterion import boundary_edge_sum
from repro.network.graph import NetworkGraph
from repro.network.topologies import triangulated_grid
from repro.obs.metrics import MetricsRegistry
from repro.topology.engine import LocalTopologyEngine


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def lint_source(tmp_path: Path, source: str, rel: str = "mod.py"):
    """Write ``source`` under ``tmp_path`` and lint it with all rules."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint_paths([target], all_rules(), root=tmp_path)


def rules_of(findings):
    return sorted({f.rule for f in findings})


@pytest.fixture(autouse=True)
def _no_ambient_sanitizer(monkeypatch):
    """Tests control sanitizer activation explicitly."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    disable_sanitizer()
    yield
    disable_sanitizer()


# ----------------------------------------------------------------------
# REPRO101: unseeded RNG
# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_flags_unseeded_random(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            r = random.Random()
            x = random.random()
            random.shuffle([1, 2])
            """,
        )
        assert [f.rule for f in findings if f.rule == "REPRO101"] == ["REPRO101"] * 3

    def test_seeded_constructions_pass(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import random
            r = random.Random(7)
            x = r.random()
            """,
        )
        assert not [f for f in findings if f.rule == "REPRO101"]


# ----------------------------------------------------------------------
# REPRO109: unseeded numpy.random
# ----------------------------------------------------------------------
class TestNumpyRng:
    def test_flags_numpy_global_rng(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            a = np.random.rand(3)
            rng = np.random.default_rng()
            np.random.seed(0)
            """,
        )
        assert len([f for f in findings if f.rule == "REPRO109"]) == 3
        assert not [f for f in findings if f.rule == "REPRO101"]

    def test_none_seed_is_unseeded(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            a = np.random.default_rng(None)
            b = np.random.default_rng(seed=None)
            """,
        )
        assert len([f for f in findings if f.rule == "REPRO109"]) == 2

    def test_generator_over_unseeded_bit_generator(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            bad = np.random.Generator(np.random.PCG64())
            empty = np.random.Generator()
            """,
        )
        assert len([f for f in findings if f.rule == "REPRO109"]) == 3
        # PCG64() is flagged on its own and as the Generator's source.

    def test_seeded_numpy_constructions_pass(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            from numpy.random import default_rng
            a = np.random.default_rng(3)
            b = default_rng(seed=11)
            c = np.random.Generator(np.random.PCG64(7))
            d = np.random.SeedSequence(5)
            """,
        )
        assert not [f for f in findings if f.rule == "REPRO109"]


# ----------------------------------------------------------------------
# REPRO102: set iteration order
# ----------------------------------------------------------------------
class TestSetIterationOrder:
    def test_list_of_set_flagged(self, tmp_path):
        findings = lint_source(tmp_path, "out = list({1, 2, 3})\n")
        assert rules_of(findings) == ["REPRO102"]

    def test_for_append_over_set_variable_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(vs):
                keep = set(vs)
                out = []
                for v in keep:
                    out.append(v)
                return out
            """,
        )
        assert rules_of(findings) == ["REPRO102"]

    def test_comprehension_over_repo_set_api_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(graph, v):
                return [w for w in graph.neighbors(v)]
            """,
        )
        assert rules_of(findings) == ["REPRO102"]

    def test_sorted_and_order_free_consumers_pass(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(graph, v):
                a = sorted(graph.neighbors(v))
                b = sum(w for w in graph.neighbors(v))
                c = {w for w in graph.neighbors(v)}
                d = len({1, 2})
                return a, b, c, d
            """,
        )
        assert not findings

    def test_dict_iteration_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(d):
                out = []
                for k in d:
                    out.append(k)
                return out
            """,
        )
        assert not findings

    def test_annotated_attribute_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from typing import Set

            class View:
                def __init__(self, vs):
                    self._keep: Set[int] = set(vs)

                def vertices(self):
                    return list(self._keep)
            """,
        )
        assert rules_of(findings) == ["REPRO102"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppression:
    def test_allow_comment_on_line(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "out = list({1, 2})  # repro: allow[set-iteration-order]\n",
        )
        assert not findings

    def test_allow_comment_on_line_above(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            # repro: allow[REPRO102] order-free by construction
            out = list({1, 2})
            """,
        )
        assert not findings

    def test_wrong_rule_token_does_not_suppress(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "out = list({1, 2})  # repro: allow[bare-except]\n",
        )
        assert rules_of(findings) == ["REPRO102"]


# ----------------------------------------------------------------------
# REPRO103: wall clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_time_time_flagged_outside_obs(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            t = time.time()
            """,
            rel="repro/core/mod.py",
        )
        assert rules_of(findings) == ["REPRO103"]

    def test_obs_layer_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            t = time.time()
            """,
            rel="repro/obs/mod.py",
        )
        assert not findings

    def test_perf_counter_allowed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from time import perf_counter
            t = perf_counter()
            """,
            rel="repro/core/mod.py",
        )
        assert not findings


# ----------------------------------------------------------------------
# REPRO104: layering
# ----------------------------------------------------------------------
class TestLayering:
    def test_obs_import_in_cycles_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            from repro.obs.tracer import current_tracer
            """,
            rel="repro/cycles/kernel.py",
        )
        assert rules_of(findings) == ["REPRO104"]

    def test_lazy_import_also_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f():
                import repro.obs.tracer as t
                return t
            """,
            rel="repro/network/graph.py",
        )
        assert rules_of(findings) == ["REPRO104"]

    def test_topology_import_in_sanitizer_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.topology import LocalTopologyEngine\n",
            rel="repro/checks/sanitizer.py",
        )
        assert rules_of(findings) == ["REPRO104"]

    def test_allowed_imports_pass(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.network.graph import NetworkGraph\n",
            rel="repro/cycles/kernel.py",
        )
        assert not findings


# ----------------------------------------------------------------------
# REPRO105, REPRO106, REPRO108
# ----------------------------------------------------------------------
class TestSmallRules:
    def test_mutable_default(self, tmp_path):
        findings = lint_source(tmp_path, "def f(x=[]):\n    return x\n")
        assert rules_of(findings) == ["REPRO105"]

    def test_none_default_passes(self, tmp_path):
        findings = lint_source(tmp_path, "def f(x=None):\n    return x\n")
        assert not findings

    def test_bare_except(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert rules_of(findings) == ["REPRO106"]

    def test_division_outside_merge_passes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Stat:
                def export(self):
                    return self.total / self.count
            """,
        )
        assert not findings

    def test_seed_plumbing_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def schedule(graph, rng=None):\n    return rng\n",
        )
        assert rules_of(findings) == ["REPRO108"]

    def test_seed_parameter_satisfies(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def schedule(graph, rng=None, seed=0):\n    return rng, seed\n",
        )
        assert not findings

    def test_required_rng_passes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def schedule(graph, rng):\n    return rng\n",
        )
        assert not findings


# ----------------------------------------------------------------------
# REPRO113: shard locality
# ----------------------------------------------------------------------
_SHARD_RUNTIME_REL = "src/repro/shard/runtime.py"


class TestShardLocality:
    def test_global_coordinator_name_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def verdicts(rows):
                return [full_graph.degree(v) for v, _ in rows]
            """,
            rel=_SHARD_RUNTIME_REL,
        )
        assert rules_of(findings) == ["REPRO113"]
        assert "read as a global" in findings[0].message

    def test_threaded_in_plan_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def begin(plan, rows):
                return plan
            """,
            rel=_SHARD_RUNTIME_REL,
        )
        assert rules_of(findings) == ["REPRO113"]
        assert "local binding" in findings[0].message

    def test_coordinator_attribute_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Shard:
                def route(self):
                    return self.subscribers
            """,
            rel=_SHARD_RUNTIME_REL,
        )
        assert rules_of(findings) == ["REPRO113"]

    def test_coordinator_import_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "from repro.shard.plan import build_shard_plan\n",
            rel=_SHARD_RUNTIME_REL,
        )
        assert rules_of(findings) == ["REPRO113"]

    def test_partition_vocabulary_passes(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Shard:
                def verdicts(self, rows):
                    return [self.partition.degree(v) for v, _ in rows]
            """,
            rel=_SHARD_RUNTIME_REL,
        )
        assert not findings

    def test_rule_only_fires_on_shard_runtime(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def route(plan):\n    return plan\n",
            rel="src/repro/shard/scheduler.py",
        )
        assert not findings

    def test_real_shard_runtime_is_clean(self):
        import repro.shard.runtime as runtime_module

        source = Path(runtime_module.__file__)
        findings = lint_paths([source], all_rules(), root=source.parents[3])
        assert not [f for f in findings if f.rule == "REPRO113"]


# ----------------------------------------------------------------------
# Engine mechanics: reporters, syntax errors
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_becomes_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert [f.rule for f in findings] == ["REPRO999"]

    def test_json_rendering_is_stable(self):
        scrambled = [
            Finding("b.py", "REPRO102", "set-iteration-order", 9, 0, "m2"),
            Finding("a.py", "REPRO105", "mutable-default", 3, 4, "m1"),
            Finding("a.py", "REPRO102", "set-iteration-order", 7, 0, "m0"),
        ]
        rendered = render_json(scrambled)
        again = render_json(list(reversed(scrambled)))
        assert rendered == again
        payload = json.loads(rendered)
        assert payload["format"] == "repro-lint/v1"
        keys = [(f["path"], f["rule"], f["line"]) for f in payload["findings"]]
        assert keys == sorted(keys)

    def test_text_rendering_sorted(self):
        findings = [
            Finding("b.py", "REPRO102", "set-iteration-order", 9, 0, "m"),
            Finding("a.py", "REPRO102", "set-iteration-order", 7, 0, "m"),
        ]
        lines = render_text(findings).splitlines()
        assert lines == sorted(lines)

    def test_duplicate_rule_ids_rejected(self):
        rules = all_rules()
        with pytest.raises(ValueError):
            LintEngine(rules + [type(rules[0])()])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = sorted({1, 2})\n")
        assert check_main([str(tmp_path), "--root", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = list({1, 2})\n")
        assert check_main([str(tmp_path), "--root", str(tmp_path)]) == 1
        assert "REPRO102" in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("x = list({1, 2})\n")
        check_main([str(tmp_path), "--root", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REPRO101", "REPRO108"):
            assert rule_id in out


# ----------------------------------------------------------------------
# Sanitizer
# ----------------------------------------------------------------------
def _grid_graph(n: int = 4) -> NetworkGraph:
    graph = NetworkGraph(range(n * n))
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                graph.add_edge(v, v + 1)
            if r + 1 < n:
                graph.add_edge(v, v + n)
    return graph


class TestSanitizerOracles:
    def test_oracle_ball_matches_bfs(self):
        graph = _grid_graph()
        ball = oracle_ball(graph, 5, 1)
        assert ball == frozenset({5}) | graph.neighbors(5)

    def test_oracle_agrees_with_engine_verdicts(self):
        graph = triangulated_grid(5, 5).graph
        engine = LocalTopologyEngine(graph.copy(), tau=4)
        for v in sorted(graph.vertices()):
            assert oracle_deletable(graph, v, 4) == engine.deletable(v)

    def test_merge_associativity_accepts_real_payloads(self):
        payloads = []
        for i in range(3):
            reg = MetricsRegistry()
            reg.inc("work", i + 1)
            reg.set_gauge("cfg", float(i))
            reg.observe("lat", 0.5 * i)
            payloads.append(reg.to_payload())
        assert check_merge_associativity(payloads) is None


class TestSanitizerChecks:
    def test_check_ball_passes_on_truth(self):
        graph = _grid_graph()
        sanitizer = Sanitizer()
        sanitizer.check_ball(graph, 0, 2, oracle_ball(graph, 0, 2))
        assert sanitizer.violations == []
        assert sanitizer.checks["ball"] == 1

    def test_check_ball_raises_on_divergence(self):
        graph = _grid_graph()
        sanitizer = Sanitizer()
        with pytest.raises(SanitizerError):
            sanitizer.check_ball(graph, 0, 2, frozenset({0, 1}))

    def test_warn_mode_records_without_raising(self):
        graph = _grid_graph()
        sanitizer = Sanitizer(mode="warn")
        sanitizer.check_ball(graph, 0, 2, frozenset({0, 1}))
        assert len(sanitizer.violations) == 1
        with pytest.raises(SanitizerError):
            sanitizer.assert_clean()

    def test_check_merge_flags_bad_reassociation(self):
        # A forged payload whose "counter" merges by replacement is not
        # associative; simulate by feeding inconsistent gauge orders.
        reg_a, reg_b, reg_c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        reg_a.inc("n", 1)
        reg_b.inc("n", 2)
        reg_c.inc("n", 3)
        sanitizer = Sanitizer()
        sanitizer.check_merge([reg_a.to_payload(), reg_b.to_payload(),
                               reg_c.to_payload()])
        assert sanitizer.violations == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer(mode="loud")

    def test_env_activation_uses_knob_false_words(self, monkeypatch):
        from repro import knobs
        from repro.checks import sanitizer as sanitizer_module

        for word in knobs.FALSE_WORDS:
            monkeypatch.setenv("REPRO_SANITIZE", f" {word.upper()} ")
            sanitizer_module._init_from_env()
            assert current_sanitizer() is None
        monkeypatch.setenv("REPRO_SANITIZE", "warn")
        sanitizer_module._init_from_env()
        assert current_sanitizer().mode == "warn"


class TestSanitizerEngineHooks:
    def test_engine_runs_clean_under_sanitizer(self):
        enable_sanitizer()
        try:
            graph = triangulated_grid(5, 5).graph
            engine = LocalTopologyEngine(graph, tau=4)
            order = sorted(engine.graph.vertices())
            for v in order:
                engine.deletable(v)
            for v in order:  # cache hits
                engine.deletable(v)
            engine.ball(order[0], 2)
            sanitizer = current_sanitizer()
            assert sanitizer.violations == []
            for kind in ("fresh_verdict", "cached_verdict", "ball"):
                assert sanitizer.checks.get(kind, 0) > 0
            assert sanitizer.checks["scratch"] == sanitizer.checks["fresh_verdict"]
        finally:
            disable_sanitizer()

    def test_dirty_collapse_scratch_detected(self):
        enable_sanitizer(mode="warn")
        try:
            graph = triangulated_grid(5, 5).graph
            engine = LocalTopologyEngine(graph, tau=4)
            kernel = engine.kernel
            far = kernel.index[24]
            kernel._closed[far] = 1  # a cell no collapse of 0's ball resets
            engine.deletable(0)
            sanitizer = current_sanitizer()
            assert [v.kind for v in sanitizer.violations] == ["kernel-scratch-dirty"]
            assert sanitizer.violations[0].detail == {"cells": 1, "first": [24]}
        finally:
            disable_sanitizer()

    def test_poisoned_verdict_cache_detected(self):
        enable_sanitizer()
        try:
            graph = triangulated_grid(5, 5).graph
            engine = LocalTopologyEngine(graph, tau=4)
            v = sorted(engine.graph.vertices())[0]
            truth = engine.deletable(v)
            engine._verdicts[v] = not truth  # simulate a stale-cache bug
            with pytest.raises(SanitizerError):
                engine.deletable(v)
        finally:
            disable_sanitizer()

    def test_criterion_shadow_checked(self):
        enable_sanitizer()
        try:
            grid = triangulated_grid(5, 5)
            engine = LocalTopologyEngine(grid.graph, tau=3)
            assert engine.boundary_partitionable([grid.outer_boundary])
            sanitizer = current_sanitizer()
            assert sanitizer.checks["criterion"] == sanitizer.checks["scratch"] == 1
            assert sanitizer.violations == []
        finally:
            disable_sanitizer()

    def test_criterion_divergence_detected(self):
        grid = triangulated_grid(5, 5)
        edges = boundary_edge_sum([grid.outer_boundary])
        sanitizer = Sanitizer(mode="warn")
        sanitizer.check_criterion(grid.graph, edges, 3, False)
        assert [v.kind for v in sanitizer.violations] == [
            "kernel-criterion-divergence"
        ]

    def test_enable_exports_env_for_workers(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        enable_sanitizer(mode="warn")
        assert os.environ["REPRO_SANITIZE"] == "warn"
        disable_sanitizer()
        assert "REPRO_SANITIZE" not in os.environ


# ----------------------------------------------------------------------
# REPRO114: hot-path trace calls must be guarded
# ----------------------------------------------------------------------
class TestTraceGuard:
    HOT = "src/repro/cycles/hot.py"

    def test_unguarded_trace_in_hot_module_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def extract(tracer, v):
                with tracer.trace("kernel.ball", v=v):
                    return v
            """,
            rel=self.HOT,
        )
        assert "REPRO114" in rules_of(findings)

    def test_unguarded_add_span_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def note(tracer):
                tracer.add_span("kernel.note", 0.0)
            """,
            rel=self.HOT,
        )
        assert "REPRO114" in rules_of(findings)

    def test_ancestor_enabled_guard_accepted(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def extract(tracer, v):
                if tracer.enabled:
                    with tracer.trace("kernel.ball", v=v):
                        return v
                return v
            """,
            rel=self.HOT,
        )
        assert "REPRO114" not in rules_of(findings)

    def test_early_return_guard_accepted(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            class Kernel:
                def ball(self, v):
                    trc = self.tracer
                    if trc is None or not trc.enabled:
                        return self._ball(v)
                    with trc.trace("kernel.ball", v=v):
                        return self._ball(v)
            """,
            rel=self.HOT,
        )
        assert "REPRO114" not in rules_of(findings)

    def test_null_tracer_comparison_accepted(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def note(tracer):
                if tracer is not NULL_TRACER:
                    tracer.add_span("kernel.note", 0.0)
            """,
            rel=self.HOT,
        )
        assert "REPRO114" not in rules_of(findings)

    def test_else_branch_of_guard_still_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def extract(tracer, v):
                if tracer.enabled:
                    pass
                else:
                    with tracer.trace("kernel.ball", v=v):
                        return v
            """,
            rel=self.HOT,
        )
        assert "REPRO114" in rules_of(findings)

    def test_cold_modules_unconstrained(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def figure(tracer):
                with tracer.trace("figure.fig2"):
                    pass
            """,
            rel="src/repro/analysis/figs.py",
        )
        assert "REPRO114" not in rules_of(findings)

    def test_shard_runtime_is_hot(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def subround(tracer):
                with tracer.trace("shard.subround"):
                    pass
            """,
            rel="src/repro/shard/runtime.py",
        )
        assert "REPRO114" in rules_of(findings)

    def test_unrelated_trace_method_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def run(debugger):
                with debugger.trace("something"):
                    pass
            """,
            rel=self.HOT,
        )
        assert "REPRO114" not in rules_of(findings)

    def test_repo_hot_paths_are_clean(self):
        from pathlib import Path

        from repro.checks.engine import lint_paths
        from repro.checks.rules import TraceGuardRule

        root = Path(__file__).resolve().parents[2]
        hot = [
            *sorted((root / "src/repro/cycles").glob("*.py")),
            *sorted((root / "src/repro/topology").glob("*.py")),
            root / "src/repro/shard/runtime.py",
        ]
        findings = lint_paths(hot, [TraceGuardRule()], root=root)
        assert findings == []


#: One violation per rule family, keyed by its path under the tree.
_FAMILY_FIXTURES = {
    # REPRO101, determinism: the process-global RNG in a plain module.
    "mod.py": "import random\n\nx = random.random()\n",
    # REPRO306, pool hygiene: a graph object handed across a pool.
    "repro/parallel/fan.py": (
        "def fan(pool, task, graph):\n"
        "    return pool.submit(task, graph)\n"
    ),
    # REPRO210, locality: a runtime decision reads the global topology.
    "repro/runtime/logic.py": (
        "def decide(sim):\n"
        "    for node in sim.active:\n"
        "        if sim.graph.degree(node) > 1:\n"
        "            pass\n"
    ),
    # REPRO202, protocol: a message kind nobody sends or handles.
    "repro/runtime/proto.py": (
        "from enum import Enum\n"
        "\n"
        "\n"
        "class MessageKind(Enum):\n"
        '    PING = "ping"\n'
        '    DEAD = "dead"\n'
        "\n"
        "\n"
        "def flood(sim, nodes):\n"
        "    for v in nodes:\n"
        "        sim.send(Message(MessageKind.PING, src=v))\n"
        "    for node in nodes:\n"
        "        for msg in sim.inbox(node):\n"
        "            if msg.kind is not MessageKind.PING:\n"
        "                sim.stats.record_drop(msg.kind.value)\n"
        "                continue\n"
    ),
}

#: What the determinism, pool-hygiene and protocol/locality checks,
#: each run on its own, reported for that tree as (path, rule, line, col).
_FAMILY_UNION = [
    ("mod.py", "REPRO101", 3, 4),
    ("repro/parallel/fan.py", "REPRO306", 2, 11),
    ("repro/runtime/logic.py", "REPRO210", 3, 11),
    ("repro/runtime/proto.py", "REPRO202", 1, 0),
]


class TestReproCheckUmbrella:
    """The repro-check entry point: every rule, one pass, one exit code."""

    ROOT = Path(__file__).resolve().parents[2]

    def test_exit_code_is_worst_front(self, tmp_path, capsys):
        # A tree that is pool- and protocol-clean but determinism-dirty:
        # the one exit code must surface the failing family.
        fixture = tmp_path / "repro" / "core" / "fix.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text("def f(xs=[]):\n    return xs\n")
        code = check_main([str(tmp_path), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert "REPRO105" in out
        assert "repro-check: 1 finding(s)" in out
        assert code == 1

    def test_one_pass_reports_every_family(self, tmp_path, capsys):
        for rel, source in _FAMILY_FIXTURES.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        assert check_main([str(tmp_path), "--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        got = [(f["path"], f["rule"], f["line"], f["col"]) for f in payload["findings"]]
        assert got == _FAMILY_UNION
        assert payload["count"] == len(_FAMILY_UNION)
        assert payload["contract"]["kinds"] == ["PING", "DEAD"]

    def test_repo_sweep_is_clean_and_carries_contract(self, capsys):
        code = check_main([str(self.ROOT / "src"), "--root", str(self.ROOT), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload["findings"]
        assert payload["format"] == "repro-check/v1"
        assert set(payload) == {"format", "count", "findings", "contract"}
        assert set(payload["contract"]) == {"kinds", "matrix"}
        assert set(payload["contract"]["matrix"]) == {"DELETE", "PRIORITY", "TOPOLOGY"}

    def test_missing_path_fails(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir"
        assert check_main([str(missing), "--root", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_path_without_python_files_fails(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("nothing to check\n")
        assert check_main([str(tmp_path), "--root", str(tmp_path)]) == 2
        assert "no .py files" in capsys.readouterr().err
