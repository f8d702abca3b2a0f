"""Unit tests for the repro.checks runtime sanitizer."""

from __future__ import annotations

import pytest

from repro.checks.sanitizer import (
    Sanitizer,
    SanitizerError,
    current_sanitizer,
    disable_sanitizer,
    enable_sanitizer,
    oracle_ball,
    oracle_deletable,
)
from repro.core.criterion import boundary_edge_sum
from repro.network.graph import NetworkGraph
from repro.network.topologies import triangulated_grid
from repro.topology.engine import LocalTopologyEngine


@pytest.fixture(autouse=True)
def _no_ambient_sanitizer(monkeypatch):
    """Tests control sanitizer activation explicitly."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    disable_sanitizer()
    yield
    disable_sanitizer()


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
