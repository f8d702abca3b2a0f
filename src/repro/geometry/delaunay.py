"""Exact planar Delaunay triangulation (incremental Bowyer–Watson).

The planar backbone (:func:`repro.boundary.geometric.planar_backbone`)
needs the Delaunay edges of the node positions.  This module builds them
in pure Python:

* **Bowyer–Watson** (Bowyer 1981, Watson 1981): each new point deletes
  the triangles whose circumcircle strictly contains it (the *cavity*)
  and joins itself to the cavity's boundary edges.
* **Ghost triangles.**  Every hull edge ``a→b`` carries a ghost triangle
  ``(a, b, INFINITE)`` whose "circumcircle" is the open half-plane left
  of ``a→b`` plus the open segment ``ab``.  Points outside the hull are
  inserted by the same cavity rule, and hull edges come out exactly —
  there is no super-triangle to strip.
* **Location** by a visibility walk from the last new triangle, over a
  spatially coherent (serpentine strip) insertion order.  The walk
  terminates on a Delaunay triangulation (Edelsbrunner 1990).
* **Predicates.**  :func:`orient2d` and :func:`incircle` evaluate the
  determinant in floats and accept its sign when it clears Shewchuk's
  (1997) static error bound; otherwise they recompute it exactly in
  integer arithmetic.  Every decision is therefore exact.

A point is in conflict with a triangle only when it lies *strictly*
inside the circumcircle, so on cocircular input the result is a valid
Delaunay triangulation but not necessarily the one qhull picks.  On
input in general position the Delaunay triangulation is unique and
equals qhull's.  A repeated position is inserted once (its first index)
and the later copies are left out, as qhull leaves them out.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.network.node import Position

Triangle = Tuple[int, int, int]

INFINITE = -1  # the symbolic vertex every ghost triangle shares

_EPSILON = 2.0 ** -53  # half an ulp of 1.0: the unit roundoff of a double
_CCW_BOUND = (3.0 + 16.0 * _EPSILON) * _EPSILON
_ICC_BOUND = (10.0 + 96.0 * _EPSILON) * _EPSILON
# Shewchuk's bounds assume no underflow.  Below MAX_COORDINATE every
# underflowed product is off by at most 2**-1075 times a lift < 2**404,
# so a margin of 2**-600 covers underflow too.  (Overflow gives inf or
# nan, which fails both comparisons and falls through to the exact path.)
MAX_COORDINATE = 2.0 ** 200
_UNDERFLOW = 2.0 ** -600


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _common_integers(*coords: float) -> List[int]:
    """The coordinates times one power of two that makes every one an integer.

    A finite float is n / 2**e exactly, so scaling by the largest 2**e is
    exact, and a positive scale leaves every determinant's sign alone.
    """
    ratios = [x.as_integer_ratio() for x in coords]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios]


def orient2d(a: Position, b: Position, c: Position) -> int:
    """+1 if ``a, b, c`` turn counter-clockwise, -1 if clockwise, 0 if collinear."""
    detleft = (a[0] - c[0]) * (b[1] - c[1])
    detright = (a[1] - c[1]) * (b[0] - c[0])
    det = detleft - detright
    bound = _CCW_BOUND * (abs(detleft) + abs(detright)) + _UNDERFLOW
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return orient2d_exact(a, b, c)


def orient2d_exact(a: Position, b: Position, c: Position) -> int:
    """:func:`orient2d` in exact integer arithmetic, with no float filter."""
    ax, ay, bx, by, cx, cy = _common_integers(*a, *b, *c)
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def incircle(a: Position, b: Position, c: Position, d: Position) -> int:
    """+1 if ``d`` is strictly inside the circle through CCW ``a, b, c``,
    -1 if strictly outside, 0 if on it."""
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
    cdxady, adxcdy = cdx * ady, adx * cdy
    adxbdy, bdxady = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    bound = _ICC_BOUND * permanent + _UNDERFLOW
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return incircle_exact(a, b, c, d)


def incircle_exact(a: Position, b: Position, c: Position, d: Position) -> int:
    """:func:`incircle` in exact integer arithmetic, with no float filter."""
    ax, ay, bx, by, cx, cy, dx, dy = _common_integers(*a, *b, *c, *d)
    ax, ay, bx, by, cx, cy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    return _sign(
        (ax * ax + ay * ay) * (bx * cy - cx * by)
        + (bx * bx + by * by) * (cx * ay - ax * cy)
        + (cx * cx + cy * cy) * (ax * by - bx * ay)
    )


def _insertion_order(points: Sequence[Position], ids: List[int]) -> List[int]:
    """Serpentine vertical strips: consecutive points are near each other,
    so each visibility walk is a few steps long."""
    by_x = sorted(ids, key=lambda i: (points[i][0], points[i][1], i))
    strips = max(1, int(math.sqrt(len(by_x) / 2.0)))
    size = -(-len(by_x) // strips)
    order: List[int] = []
    for s in range(strips):
        order.extend(
            sorted(
                by_x[s * size:(s + 1) * size],
                key=lambda i: (points[i][1], points[i][0], i),
                reverse=s % 2 == 1,
            )
        )
    return order


class _Mesh:
    """Triangles in flat arrays: triangle ``t`` has CCW vertices
    ``vert[3t : 3t+3]``, and ``nbr[3t+i]`` is the triangle across the
    edge opposite ``vert[3t+i]``.  Ghost triangles hold :data:`INFINITE`."""

    def __init__(self, points: Sequence[Position]) -> None:
        self.points = points
        self.vert: List[int] = []
        self.nbr: List[int] = []
        self.free: List[int] = []

    def _new(self, a: int, b: int, c: int) -> int:
        if self.free:
            t = self.free.pop()
            self.vert[3 * t:3 * t + 3] = (a, b, c)
        else:
            t = len(self.vert) // 3
            self.vert.extend((a, b, c))
            self.nbr.extend((-1, -1, -1))
        return t

    def seed(self, a: int, b: int, c: int) -> int:
        """One CCW triangle and the three ghosts on its edges."""
        t = self._new(a, b, c)
        ghosts = [self._new(w, u, INFINITE) for u, w in ((b, c), (c, a), (a, b))]
        for i, g in enumerate(ghosts):
            self.nbr[3 * t + i] = g
            self.nbr[3 * g + 2] = t
            # ghost (w, u, INF): the ghost across (u, INF) starts at u.
            self.nbr[3 * g + 0] = ghosts[(i + 2) % 3]
            self.nbr[3 * g + 1] = ghosts[(i + 1) % 3]
        return t

    def conflicts(self, t: int, q: int) -> bool:
        """Whether ``q`` lies strictly inside ``t``'s circumcircle."""
        a, b, c = self.vert[3 * t:3 * t + 3]
        p = self.points
        if a == INFINITE:
            a, b = b, c
        elif b == INFINITE:
            a, b = c, a
        elif c != INFINITE:
            return incircle(p[a], p[b], p[c], p[q]) > 0
        # A ghost on hull edge a→b: the open outer half-plane, plus the
        # open segment ab itself.
        turn = orient2d(p[a], p[b], p[q])
        if turn:
            return turn > 0
        axis = 0 if p[a][0] != p[b][0] else 1
        lo, hi = sorted((p[a][axis], p[b][axis]))
        return lo < p[q][axis] < hi

    def locate(self, t: int, q: int) -> int:
        """A triangle in conflict with ``q``, by visibility walk from real ``t``."""
        vert, nbr, p = self.vert, self.nbr, self.points
        pq = p[q]
        came = -1
        while INFINITE not in vert[3 * t:3 * t + 3]:
            base = 3 * t
            for i in range(3):
                across = nbr[base + i]
                if across == came:
                    continue
                u = vert[base + (i + 1) % 3]
                w = vert[base + (i + 2) % 3]
                if orient2d(p[u], p[w], pq) < 0:
                    came, t = t, across
                    break
            else:
                return t  # q is in the closed triangle, not at a vertex
        return t  # a ghost whose hull edge q sees strictly from outside

    def insert(self, q: int, t: int) -> int:
        """Replace the cavity around conflicting ``t`` with a fan at ``q``;
        returns one new real triangle."""
        vert, nbr = self.vert, self.nbr
        dead = {t}
        stack = [t]
        rim: List[Tuple[int, int, int]] = []
        while stack:
            s = stack.pop()
            base = 3 * s
            for i in range(3):
                across = nbr[base + i]
                if across in dead:
                    continue
                if self.conflicts(across, q):
                    dead.add(across)
                    stack.append(across)
                else:
                    rim.append(
                        (vert[base + (i + 1) % 3], vert[base + (i + 2) % 3], across)
                    )
        self.free.extend(sorted(dead, reverse=True))
        starts: Dict[int, int] = {}
        ends: Dict[int, int] = {}
        real = -1
        for u, w, across in rim:
            n = self._new(u, w, q)
            starts[u] = n
            ends[w] = n
            nbr[3 * n + 2] = across
            back = 3 * across
            for j in range(3):
                if vert[back + j] != u and vert[back + j] != w:
                    nbr[back + j] = n
            if u != INFINITE and w != INFINITE:
                real = n
        for u, w, _ in rim:
            n = starts[u]
            nbr[3 * n + 0] = starts[w]
            nbr[3 * n + 1] = ends[u]
        return real

    def triangles(self) -> List[Triangle]:
        """The real triangles.  Every slot is live: a cavity of k triangles
        has a rim of k + 2 edges, so each insertion refills every slot it
        frees."""
        vert = self.vert
        return [
            (vert[3 * t], vert[3 * t + 1], vert[3 * t + 2])
            for t in range(len(vert) // 3)
            if INFINITE not in vert[3 * t:3 * t + 3]
        ]


def delaunay_triangles(points: Sequence[Position]) -> List[Triangle]:
    """The Delaunay triangles of ``points`` as CCW index triples.

    Raises ``RuntimeError`` when fewer than three distinct positions are
    given or all of them are collinear (no triangle exists), and
    ``ValueError`` on a coordinate outside ``±MAX_COORDINATE``.
    """
    coords: List[Position] = [(float(x), float(y)) for x, y in points]
    if not all(abs(x) < MAX_COORDINATE and abs(y) < MAX_COORDINATE for x, y in coords):
        raise ValueError("coordinates must be finite and below 2**200 in magnitude")
    first: Dict[Position, int] = {}
    for i, xy in enumerate(coords):
        first.setdefault(xy, i)
    ids = sorted(first.values())
    if len(ids) < 3:
        raise RuntimeError("Delaunay triangulation needs three distinct points")
    order = _insertion_order(coords, ids)
    a, b = order[0], order[1]
    for k in range(2, len(order)):
        turn = orient2d(coords[a], coords[b], coords[order[k]])
        if turn:
            c = order.pop(k)
            break
    else:
        raise RuntimeError("Delaunay triangulation of collinear points is empty")
    mesh = _Mesh(coords)
    t = mesh.seed(a, b, c) if turn > 0 else mesh.seed(b, a, c)
    for q in order[2:]:
        t = mesh.insert(q, mesh.locate(t, q))
    return mesh.triangles()
