"""Shared fixtures: canonical graphs and small deployed networks."""

from __future__ import annotations

import ast
import random
import re

import pytest

from repro.knobs import knob_names
from repro.network.graph import NetworkGraph
from repro.network.topologies import (
    annulus_network,
    cycle_graph,
    mobius_band_network,
    square_grid,
    triangulated_grid,
    wheel_graph,
)


@pytest.fixture
def k4() -> NetworkGraph:
    return NetworkGraph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def c6() -> NetworkGraph:
    return cycle_graph(6)


@pytest.fixture
def grid5():
    """5x5 plain square grid (every inner face a 4-cycle)."""
    return square_grid(5, 5)


@pytest.fixture
def trigrid6():
    """6x6 triangulated grid (every inner face a triangle)."""
    return triangulated_grid(6, 6)


@pytest.fixture
def mobius():
    return mobius_band_network()


@pytest.fixture
def annulus():
    return annulus_network()


@pytest.fixture
def wheel8() -> NetworkGraph:
    return wheel_graph(8)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


def random_graph(n: int, p: float, seed: int) -> NetworkGraph:
    """An Erdos-Renyi graph, used across the property suites."""
    rng = random.Random(seed)
    graph = NetworkGraph(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                graph.add_edge(i, j)
    return graph


_KNOB_TOKEN = re.compile(r"\bREPRO_[A-Z][A-Z_]*\b")


def knob_env_offences(source: str) -> tuple[list[str], list[int]]:
    """The undeclared ``REPRO_*`` names in ``source``, and the lines that
    read a ``REPRO_*`` name from the environment directly.

    Only :mod:`repro.knobs` may read one directly, so its table holds
    the one default; everything else goes through ``knobs.get_*``.
    """
    declared = set(knob_names())
    undeclared = sorted(set(_KNOB_TOKEN.findall(source)) - declared)
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args:
            target, key = ast.unparse(node.func), node.args[0]
            is_read = target.endswith(("environ.get", "getenv"))
        elif isinstance(node, ast.Subscript):
            target, key = ast.unparse(node.value), node.slice
            is_read = target.endswith("environ") and isinstance(node.ctx, ast.Load)
        else:
            continue
        if is_read and str(getattr(key, "value", "")).startswith("REPRO_"):
            reads.append(node.lineno)
    return undeclared, sorted(reads)
