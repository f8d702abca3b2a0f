"""Property-based tests for geometric primitives."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.boundary.geometric import winding_number
from repro.geometry.holes import minimum_enclosing_circle
from repro.geometry.disks import regular_polygon_with_side, polygon_inradius

coords = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
points = st.tuples(coords, coords)


class TestWelzlProperties:
    @given(st.lists(points, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_circle_contains_all_points(self, pts):
        circle = minimum_enclosing_circle(pts)
        for p in pts:
            assert circle.contains(p, slack=1e-6)

    @given(st.lists(points, min_size=2, max_size=25))
    @example(
        [(0, 0), (0, 0), (0, -49), (-30, 0), (0, 0), (2, 19), (1, -49), (-31, -1)]
    )
    @settings(max_examples=60, deadline=None)
    def test_diameter_at_least_max_pairwise_distance(self, pts):
        circle = minimum_enclosing_circle(pts)
        widest = max(
            math.hypot(a[0] - b[0], a[1] - b[1]) for a in pts for b in pts
        )
        assert circle.diameter >= widest - 1e-6

    @given(st.lists(points, min_size=1, max_size=25), points)
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, pts, shift):
        dx, dy = shift
        base = minimum_enclosing_circle(pts)
        moved = minimum_enclosing_circle([(x + dx, y + dy) for x, y in pts])
        assert moved.radius == base.radius or math.isclose(
            moved.radius, base.radius, rel_tol=1e-6, abs_tol=1e-6
        )


class TestWindingProperties:
    @given(st.integers(min_value=3, max_value=12), st.floats(0.3, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_regular_polygon_winds_once_around_center(self, n, side):
        polygon = regular_polygon_with_side(n, side)
        assert abs(winding_number(polygon, (0.0, 0.0))) > 0.99

    @given(st.integers(min_value=3, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_far_points_wind_zero(self, n):
        polygon = regular_polygon_with_side(n, 1.0)
        assert abs(winding_number(polygon, (100.0, 100.0))) < 0.01

    @given(st.integers(min_value=3, max_value=12), st.floats(0.5, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_inradius_point_enclosed(self, n, side):
        polygon = regular_polygon_with_side(n, side)
        r = polygon_inradius(n, side)
        probe = (0.6 * r, 0.0)
        assert abs(winding_number(polygon, probe)) > 0.99
