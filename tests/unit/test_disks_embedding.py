"""Unit tests for disk primitives."""

import math

import pytest

from repro.geometry.disks import (
    polygon_inradius,
    regular_polygon,
    regular_polygon_with_side,
    worst_case_uncovered_radius,
)


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

