"""Property tests: every triangulation carries an exact Delaunay certificate.

The certificate is checked in exact integer arithmetic, independently of
the float filters: every triangle is counter-clockwise, no input point
lies strictly inside any circumcircle, every directed edge is used once,
every distinct point is a vertex, and there are 2n - 2 - h triangles for
n distinct points with h of them on the convex hull.  Integer grids make
many cocircular and collinear quadruples; collinear runs on the hull
exercise the ghost triangles' open-segment rule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import delaunay_triangles, incircle_exact, orient2d_exact


def hull_vertex_count(points):
    """Distinct points on the convex hull's boundary, collinear ones included."""
    ordered = sorted(points)
    corners = []
    for chain in (ordered, ordered[::-1]):
        part = []
        for p in chain:
            while len(part) >= 2 and orient2d_exact(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        corners.extend(part[:-1])

    def on_edge(a, b, p):
        return (
            orient2d_exact(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )

    edges = list(zip(corners, corners[1:] + corners[:1]))
    return sum(1 for p in points if any(on_edge(a, b, p) for a, b in edges))


def assert_certificate(points):
    points = [(float(x), float(y)) for x, y in points]
    distinct = sorted(set(points))
    flat = len(distinct) < 3 or all(
        orient2d_exact(distinct[0], distinct[1], p) == 0 for p in distinct[2:]
    )
    try:
        triangles = delaunay_triangles(points)
    except RuntimeError:
        assert flat
        return
    assert not flat
    directed = set()
    for a, b, c in triangles:
        pa, pb, pc = points[a], points[b], points[c]
        assert orient2d_exact(pa, pb, pc) == 1
        for p in distinct:
            assert incircle_exact(pa, pb, pc, p) <= 0
        for edge in ((a, b), (b, c), (c, a)):
            assert edge not in directed
            directed.add(edge)
    assert {points[v] for t in triangles for v in t} == set(distinct)
    n = len(distinct)
    assert len(triangles) == 2 * n - 2 - hull_vertex_count(distinct)


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
grid = st.tuples(st.integers(0, 4), st.integers(0, 4))


class TestDelaunayCertificate:
    @given(st.lists(st.tuples(coords, coords), max_size=18))
    @settings(max_examples=80, deadline=None)
    def test_float_point_sets(self, points):
        assert_certificate(points)

    @given(st.lists(grid, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_integer_grids(self, points):
        assert_certificate(points)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=10),
        st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_collinear_hull_runs(self, run, above):
        assert_certificate([(x, 0) for x in run] + above)

    def test_full_grid(self):
        assert_certificate([(x, y) for x in range(6) for y in range(6)])
