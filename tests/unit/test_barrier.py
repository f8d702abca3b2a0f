"""Unit tests for barrier coverage as a confine-coverage instance."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.barrier import (
    barrier_exists,
    barrier_strength,
    schedule_barrier,
)
from repro.network.graph import NetworkGraph
from repro.network.topologies import triangulated_grid


def belt(columns=7, rows=4):
    """A triangulated belt with left/right anchor columns."""
    mesh = triangulated_grid(columns, rows)
    left = [r * columns for r in range(rows)]
    right = [r * columns + columns - 1 for r in range(rows)]
    return mesh.graph, left, right


class TestExistence:
    def test_belt_has_barrier(self):
        graph, left, right = belt()
        assert barrier_exists(graph, left, right, gamma=2.0)

    def test_cut_belt_has_none(self):
        graph, left, right = belt(columns=7, rows=4)
        # remove a full column in the middle: the belt is severed
        for r in range(4):
            graph.remove_vertex(r * 7 + 3)
        assert not barrier_exists(graph, left, right, gamma=2.0)

    def test_empty_anchor(self):
        graph, left, right = belt()
        assert not barrier_exists(graph, [], right, gamma=1.0)

    def test_gamma_validation(self):
        graph, left, right = belt()
        with pytest.raises(ValueError):
            barrier_exists(graph, left, right, gamma=2.5)
        with pytest.raises(ValueError):
            barrier_exists(graph, left, right, gamma=0.0)

    def test_overlapping_anchors_trivially_covered(self):
        graph = NetworkGraph([1, 2], [(1, 2)])
        assert barrier_exists(graph, [1], [1, 2], gamma=1.0)


class TestStrength:
    def test_belt_strength_matches_rows(self):
        graph, left, right = belt(columns=7, rows=4)
        result = barrier_strength(graph, left, right, gamma=2.0)
        # a 4-row triangulated belt supports 4 disjoint chains
        assert result.strength == 4
        assert result.provides(4)
        assert not result.provides(5)

    def test_single_path_strength_one(self):
        graph = NetworkGraph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        result = barrier_strength(graph, [0], [4], gamma=1.0)
        assert result.strength == 1
        assert result.chains == [[0, 1, 2, 3, 4]]

    def test_disconnected_strength_zero(self):
        graph = NetworkGraph(range(4), [(0, 1), (2, 3)])
        result = barrier_strength(graph, [0], [3], gamma=1.0)
        assert result.strength == 0
        assert not result.covered

    def test_chains_are_vertex_disjoint(self):
        graph, left, right = belt(columns=8, rows=5)
        result = barrier_strength(graph, left, right, gamma=1.5)
        seen = set()
        for chain in result.chains:
            assert seen.isdisjoint(chain)
            seen.update(chain)
            # consecutive chain members are communication neighbours
            for a, b in zip(chain, chain[1:]):
                assert graph.has_edge(a, b)


class TestScheduling:
    def test_schedule_activates_k_chains(self):
        graph, left, right = belt(columns=8, rows=5)
        active = schedule_barrier(graph, left, right, gamma=1.5, k=2)
        assert active is not None
        # sparse: a couple of chains, not the whole belt
        assert len(active) < len(graph) / 2
        sub = graph.induced_subgraph(active)
        assert barrier_exists(sub, set(left) & active, set(right) & active, 1.5)

    def test_infeasible_k_returns_none(self):
        graph = NetworkGraph(range(3), [(0, 1), (1, 2)])
        assert schedule_barrier(graph, [0], [2], gamma=1.0, k=2) is None

    def test_k_validation(self):
        graph, left, right = belt()
        with pytest.raises(ValueError):
            schedule_barrier(graph, left, right, gamma=1.0, k=0)


# The border belt of examples/border_barrier.py: its maximum flow has
# several equally maximum chain sets, so the chosen one is sensitive to
# anything process-dependent inside networkx (string hashing, say).
_BELT_SCHEDULES = """
from repro.core.barrier import schedule_barrier
from repro.network.deployment import Rectangle, build_network

net = build_network(
    140, Rectangle(0.0, 0.0, 6.0, 1.6), rc=1.0, rs=0.6, seed=13,
    boundary_band=0.25,
)
left = {v for v, (x, __) in net.positions.items() if x <= 0.5}
right = {v for v, (x, __) in net.positions.items() if x >= 5.5}
for k in (1, 2, 3):
    print(sorted(schedule_barrier(net.graph, left, right, net.gamma, k=k)))
"""


class TestHashSeedIndependence:
    def test_schedules_identical_across_hash_seeds(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            run = subprocess.run(
                [sys.executable, "-c", _BELT_SCHEDULES],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(run.stdout)
        assert outputs[0].count("\n") == 3
        assert outputs[0] == outputs[1]
