"""Unit tests for minimum enclosing circles (Welzl)."""

import math
import random

import pytest

from repro.geometry.holes import (
    Circle,
    minimum_enclosing_circle,
    point_set_diameter,
)


class TestCircle:
    def test_contains_with_slack(self):
        circle = Circle((0, 0), 1.0)
        assert circle.contains((1.0, 0.0))
        assert not circle.contains((1.1, 0.0))
        assert circle.diameter == pytest.approx(2.0)


class TestMinimumEnclosingCircle:
    def test_single_point(self):
        circle = minimum_enclosing_circle([(2, 3)])
        assert circle.center == (2, 3)
        assert circle.radius == 0.0

    def test_two_points(self):
        circle = minimum_enclosing_circle([(0, 0), (2, 0)])
        assert circle.center == pytest.approx((1.0, 0.0))
        assert circle.radius == pytest.approx(1.0)

    def test_equilateral_triangle(self):
        pts = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
        circle = minimum_enclosing_circle(pts)
        assert circle.radius == pytest.approx(1 / math.sqrt(3))

    def test_obtuse_triangle_uses_diameter(self):
        # nearly collinear: circle defined by the two far points
        pts = [(0, 0), (4, 0), (2, 0.1)]
        circle = minimum_enclosing_circle(pts)
        assert circle.radius == pytest.approx(2.0, abs=0.02)

    def test_collinear_points(self):
        circle = minimum_enclosing_circle([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert circle.radius == pytest.approx(1.5)

    def test_duplicate_points(self):
        circle = minimum_enclosing_circle([(1, 1)] * 5 + [(3, 1)])
        assert circle.radius == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            minimum_enclosing_circle([])

    def test_contains_all_points_random(self):
        rng = random.Random(7)
        for trial in range(20):
            pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for __ in range(30)]
            circle = minimum_enclosing_circle(pts, seed=trial)
            assert all(circle.contains(p) for p in pts)

    def test_minimality_versus_brute_force(self):
        """Welzl's radius equals the best pair-diameter or circumcircle."""
        from itertools import combinations

        from repro.geometry.holes import _circle_from_three, _circle_from_two

        rng = random.Random(3)
        pts = [(rng.uniform(0, 4), rng.uniform(0, 4)) for __ in range(12)]
        candidates = [_circle_from_two(a, b) for a, b in combinations(pts, 2)]
        candidates += [_circle_from_three(*abc) for abc in combinations(pts, 3)]
        best = min(
            circle.radius
            for circle in candidates
            if circle is not None and all(circle.contains(p) for p in pts)
        )
        ours = minimum_enclosing_circle(pts).radius
        assert ours == pytest.approx(best, rel=1e-9)

    def test_innermost_step_keeps_both_support_points(self):
        """The three-point step must keep p and q on the circle; the
        smallest circle merely covering p, q and r leaves (2, 19) out."""
        pts = [(0, 0), (0, 0), (0, -49), (-30, 0), (0, 0), (2, 19), (1, -49), (-31, -1)]
        circle = minimum_enclosing_circle(pts)
        assert all(circle.contains(p) for p in pts)
        assert circle.diameter >= math.dist((0, -49), (2, 19))


class TestDiameter:
    def test_point_set_diameter(self):
        assert point_set_diameter([(0, 0), (0, 4)]) == pytest.approx(4.0)
