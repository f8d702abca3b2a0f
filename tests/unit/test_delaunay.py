"""Unit tests for the exact in-tree Delaunay triangulation.

scipy (qhull) is an oracle here only: the tests that compare against it
skip when it is not installed.
"""

import random

import pytest

from repro.boundary.geometric import outer_boundary_cycle, planar_backbone
from repro.checks.sanitizer import Sanitizer, SanitizerError
from repro.geometry.delaunay import (
    MAX_COORDINATE,
    delaunay_triangles,
    incircle,
    incircle_exact,
    orient2d,
    orient2d_exact,
)
from repro.network.deployment import Network, Rectangle, network_for_average_degree
from repro.network.graph import NetworkGraph
from repro.traces.greenorbs import GreenOrbsConfig, generate_greenorbs_trace


def edge_set(triangles):
    return {
        (min(u, v), max(u, v))
        for a, b, c in triangles
        for u, v in ((a, b), (b, c), (c, a))
    }


def qhull_edges(points):
    spatial = pytest.importorskip("scipy.spatial")
    import numpy as np

    return edge_set(spatial.Delaunay(np.array(points, dtype=float)).simplices.tolist())


class TestPredicates:
    def test_orientation_signs(self):
        assert orient2d((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 1
        assert orient2d((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)) == -1
        assert orient2d((0.0, 0.0), (1.0, 1.0), (3.0, 3.0)) == 0

    def test_incircle_signs(self):
        a, b, c = (0.0, 0.0), (2.0, 0.0), (0.0, 2.0)
        assert incircle(a, b, c, (1.0, 1.0)) == 1
        assert incircle(a, b, c, (5.0, 5.0)) == -1
        assert incircle(a, b, c, (2.0, 2.0)) == 0  # cocircular

    def test_filters_agree_with_exact_on_near_degenerate_input(self):
        # Points a few ulps off a line and off a circle: the float
        # determinant is noise here, so the filter must defer to exact.
        rng = random.Random(3)
        for _ in range(2000):
            x0, y0 = rng.uniform(-100, 100), rng.uniform(-100, 100)
            dx, dy = rng.uniform(-1, 1), rng.uniform(-1, 1)
            t, s = rng.uniform(-3, 3), rng.uniform(-3, 3)
            a, b = (x0, y0), (x0 + dx, y0 + dy)
            c = (x0 + t * dx, y0 + t * dy)
            assert orient2d(a, b, c) == orient2d_exact(a, b, c)
            d = (x0 + s * dx, y0 + s * dy)
            e = (0.5 * x0 + 1e-13 * rng.random(), y0)
            for q in (d, e):
                assert incircle(a, b, c, q) == incircle_exact(a, b, c, q)

    def test_orientation_on_ulp_perturbed_points(self):
        # Kettner et al.'s classroom example: points a few ulps off the
        # line y = x.  Pivoting on p, the plain float determinant has the
        # opposite sign of the exact one for 112 of these 4096 points.
        q, r = (12.0, 12.0), (24.0, 24.0)
        ulp = 2.0 ** -53
        flipped = 0
        for i in range(64):
            for j in range(64):
                p = (0.5 + i * ulp, 0.5 + j * ulp)
                exact = orient2d_exact(q, r, p)
                naive = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
                flipped += naive * exact < 0
                assert orient2d(q, r, p) == exact
        assert flipped == 112

    def test_exact_fallback_on_integer_cocircular_grid(self):
        points = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        for a in points[:10]:
            for d in points[-10:]:
                b, c = (a[0] + 1, a[1]), (a[0], a[1] + 1)
                assert incircle(a, b, c, d) == incircle_exact(a, b, c, d)


class TestMatchesQhull:
    @pytest.mark.parametrize("count,degree,seed", [
        (60, 8, 0), (200, 12, 1), (400, 16, 2), (800, 25, 3), (1600, 25, 4),
    ])
    def test_uniform_deployments(self, count, degree, seed):
        net = network_for_average_degree(count, degree, seed=seed)
        points = [net.positions[v] for v in sorted(net.positions)]
        assert edge_set(delaunay_triangles(points)) == qhull_edges(points)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_greenorbs_trace_positions(self, seed):
        trace = generate_greenorbs_trace(GreenOrbsConfig(epochs=1), seed=seed)
        points = [trace.positions[v] for v in sorted(trace.positions)]
        assert edge_set(delaunay_triangles(points)) == qhull_edges(points)

    @pytest.mark.parametrize("height", [1.0, 1e-3, 1e-7])
    def test_thin_strips(self, height):
        rng = random.Random(11)
        points = [(rng.uniform(0, 500), rng.uniform(0, height)) for _ in range(300)]
        assert edge_set(delaunay_triangles(points)) == qhull_edges(points)

    def test_duplicate_positions_are_dropped_like_qhull(self):
        rng = random.Random(2)
        points = [(rng.random(), rng.random()) for _ in range(50)]
        points += [points[7], points[30], points[7]]
        triangles = delaunay_triangles(points)
        used = {v for t in triangles for v in t}
        assert used == set(range(50))
        assert edge_set(triangles) == qhull_edges(points)


class TestDegenerateInput:
    @pytest.mark.parametrize("points", [
        [],
        [(0.0, 0.0), (1.0, 1.0)],
        [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0)],
        [(float(i), 2.0 * i) for i in range(10)],
        [(3.0, float(i)) for i in range(5)] + [(3.0, 0.0)],
    ])
    def test_no_triangle_raises_runtime_error(self, points):
        with pytest.raises(RuntimeError):
            delaunay_triangles(points)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), MAX_COORDINATE])
    def test_out_of_range_coordinates_are_rejected(self, bad):
        with pytest.raises(ValueError):
            delaunay_triangles([(0.0, 0.0), (1.0, 0.0), (0.0, bad)])

    def test_collinear_hull_run_keeps_every_point(self):
        points = [(float(i), 0.0) for i in range(6)] + [(2.5, 3.0)]
        triangles = delaunay_triangles(points)
        assert len(triangles) == 5
        assert {v for t in triangles for v in t} == set(range(7))
        for a, b, c in triangles:
            assert orient2d_exact(points[a], points[b], points[c]) == 1


class TestPlanarBackbone:
    def test_duplicate_position_is_isolated(self):
        net = network_for_average_degree(120, 12, seed=6)
        positions = dict(net.positions)
        positions[90] = positions[17]
        graph = net.graph.copy()
        graph.add_edge(17, 90)
        backbone = planar_backbone(graph, positions)
        assert backbone.degree(90) == 0
        assert backbone.degree(17) > 0

    def test_outer_cycle_falls_back_to_stitching(self, monkeypatch):
        import repro.boundary.geometric as geometric

        net = network_for_average_degree(250, 16, seed=2)
        stitched = []
        real_stitch = geometric._stitch_cycle

        def spy(band_graph, ordered):
            stitched.append(len(ordered))
            return real_stitch(band_graph, ordered)

        def no_triangle(points):
            raise RuntimeError("collinear")

        monkeypatch.setattr(geometric, "_stitch_cycle", spy)
        monkeypatch.setattr(geometric, "delaunay_triangles", no_triangle)
        assert len(outer_boundary_cycle(net)) >= 3
        assert stitched

    def test_collinear_network_reaches_the_stitching_fallback(self):
        graph = NetworkGraph(range(3), [(0, 1), (1, 2)])
        positions = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}
        net = Network(
            graph=graph,
            positions=positions,
            region=Rectangle(0.0, 0.0, 2.0, 1.0),
            rc=1.0,
            rs=1.0,
            boundary_band=1.0,
        )
        net.classify_boundary()
        with pytest.raises(RuntimeError, match="stitch|periphery"):
            outer_boundary_cycle(net)


class TestSanitizerCheck:
    SQUARE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.9), (0.0, 2.0)]

    def test_real_triangulation_is_clean(self):
        net = network_for_average_degree(300, 12, seed=1)
        points = [net.positions[v] for v in sorted(net.positions)]
        sanitizer = Sanitizer()
        sanitizer.check_delaunay(points, delaunay_triangles(points))
        assert sanitizer.checks == {"delaunay": 1}
        assert sanitizer.violations == []

    def test_flipped_edge_is_not_locally_delaunay(self):
        # (2, 1.9) is inside the circle through the other three corners.
        assert (0, 2) in edge_set(delaunay_triangles(self.SQUARE))
        flipped = [(0, 1, 3), (1, 2, 3)]
        sanitizer = Sanitizer(mode="warn")
        sanitizer.check_delaunay(self.SQUARE, flipped)
        assert [v.kind for v in sanitizer.violations] == ["delaunay-not-local"]
        with pytest.raises(SanitizerError):
            Sanitizer().check_delaunay(self.SQUARE, flipped)

    def test_clockwise_triangle_is_caught(self):
        sanitizer = Sanitizer(mode="warn")
        sanitizer.check_delaunay(self.SQUARE, [(0, 3, 1), (1, 3, 2)])
        assert "delaunay-not-ccw" in [v.kind for v in sanitizer.violations]

    def test_missing_point_is_caught_by_the_count(self):
        points = self.SQUARE + [(1.0, 1.0)]
        sanitizer = Sanitizer(mode="warn")
        sanitizer.check_delaunay(points, delaunay_triangles(self.SQUARE))
        assert [v.kind for v in sanitizer.violations] == ["delaunay-count"]
