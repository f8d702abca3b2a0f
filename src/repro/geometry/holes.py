"""Minimum enclosing circles, for measuring coverage-hole diameters.

The paper measures the quality of partial coverage by the *diameter of the
minimum circle circumscribing each coverage hole*.  Welzl's randomized
incremental algorithm computes the minimum enclosing circle of a point set
in expected linear time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from repro.network.node import Position


@dataclass(frozen=True)
class Circle:
    """A circle given by centre and radius."""

    center: Position
    radius: float

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, p: Position, slack: float = 1e-9) -> bool:
        return math.hypot(p[0] - self.center[0], p[1] - self.center[1]) <= (
            self.radius + slack
        )


def _circle_from_two(a: Position, b: Position) -> Circle:
    center = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    radius = math.hypot(a[0] - b[0], a[1] - b[1]) / 2.0
    return Circle(center, radius)


def _circle_from_three(a: Position, b: Position, c: Position) -> Optional[Circle]:
    """Circumcircle of a triangle; None when the points are collinear."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    center = (ux, uy)
    radius = math.hypot(ax - ux, ay - uy)
    return Circle(center, radius)


def _circle_through_three(a: Position, b: Position, c: Position) -> Circle:
    """The circle with ``a``, ``b`` and ``c`` on its boundary.

    Welzl's innermost step needs all three support points on the circle:
    the smallest circle merely *covering* them can drop ``a`` or ``b``
    and leave earlier points outside.  Collinear points have no
    circumcircle; the circle on the widest pair covers them.
    """
    circle = _circle_from_three(a, b, c)
    if circle is not None:
        return circle
    widest = max(combinations((a, b, c), 2), key=lambda ab: math.dist(*ab))
    return _circle_from_two(*widest)


def minimum_enclosing_circle(
    points: Sequence[Position], seed: int = 0
) -> Circle:
    """Welzl's algorithm (iterative move-to-front variant)."""
    pts = list(points)
    if not pts:
        raise ValueError("cannot enclose an empty point set")
    rng = random.Random(seed)
    rng.shuffle(pts)
    circle = Circle(pts[0], 0.0)
    for i, p in enumerate(pts):
        if circle.contains(p):
            continue
        circle = Circle(p, 0.0)
        for j in range(i):
            q = pts[j]
            if circle.contains(q):
                continue
            circle = _circle_from_two(p, q)
            for k in range(j):
                r = pts[k]
                if circle.contains(r):
                    continue
                circle = _circle_through_three(p, q, r)
    return circle


def point_set_diameter(points: Sequence[Position]) -> float:
    """Diameter of the minimum circle circumscribing ``points``."""
    return minimum_enclosing_circle(points).diameter
