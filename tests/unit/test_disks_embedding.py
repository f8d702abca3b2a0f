"""Unit tests for disk primitives and embedding validity checks."""

import math

import pytest

from repro.geometry.disks import (
    polygon_inradius,
    regular_polygon,
    regular_polygon_with_side,
    worst_case_uncovered_radius,
)
from repro.geometry.embedding import edges_within_range, is_valid_udg_embedding
from repro.network.graph import NetworkGraph


class TestDisks:
    def test_regular_polygon_geometry(self):
        square = regular_polygon(4, 1.0)
        assert len(square) == 4
        for x, y in square:
            assert math.hypot(x, y) == pytest.approx(1.0)

    def test_polygon_side_construction(self):
        hexagon = regular_polygon_with_side(6, 1.0)
        for (ax, ay), (bx, by) in zip(hexagon, hexagon[1:] + hexagon[:1]):
            assert math.hypot(ax - bx, ay - by) == pytest.approx(1.0)

    def test_polygon_too_small(self):
        with pytest.raises(ValueError):
            regular_polygon(2, 1.0)

    def test_inradius(self):
        # hexagon with side 1: apothem = sqrt(3)/2
        assert polygon_inradius(6, 1.0) == pytest.approx(math.sqrt(3) / 2)

    def test_worst_case_radius_at_blanket_threshold(self):
        """Proposition 1's geometric heart: slack is zero exactly when
        gamma = 2 sin(pi/tau)."""
        for tau in (3, 4, 5, 6, 8):
            gamma = 2.0 * math.sin(math.pi / tau)
            rs = 1.0 / gamma  # rc = 1
            assert worst_case_uncovered_radius(tau, 1.0, rs) == pytest.approx(
                0.0, abs=1e-12
            )
            assert worst_case_uncovered_radius(tau, 1.0, rs * 0.95) > 0
            assert worst_case_uncovered_radius(tau, 1.0, rs * 1.05) < 0


class TestEmbeddings:
    def test_edges_within_range(self):
        g = NetworkGraph(range(2), [(0, 1)])
        positions = {0: (0.0, 0.0), 1: (0.9, 0.0)}
        assert edges_within_range(g, positions, 1.0)
        assert not edges_within_range(g, positions, 0.5)

    def test_valid_udg(self):
        g = NetworkGraph(range(3), [(0, 1), (1, 2)])
        positions = {0: (0, 0), 1: (1, 0), 2: (2, 0)}
        assert is_valid_udg_embedding(g, positions, 1.0)

    def test_udg_missing_short_edge_invalid(self):
        g = NetworkGraph(range(3), [(0, 1)])
        positions = {0: (0, 0), 1: (1, 0), 2: (1.5, 0)}
        # nodes 1 and 2 are within range but not linked
        assert not is_valid_udg_embedding(g, positions, 1.0)
