"""Sensing-disk primitives: regular polygons and the worst-case tau-cycle.

Geometric helpers used by tests and by the Proposition 1 validation
benches: a connectivity cycle of ``tau`` hops whose links are all at most
``Rc`` long encloses a region, and the sensing disks of the cycle nodes
leave no hole when ``gamma <= 2 sin(pi / tau)``.
"""

from __future__ import annotations

import math
from typing import List

from repro.network.node import Position


def regular_polygon(
    n: int, circumradius: float, center: Position = (0.0, 0.0)
) -> List[Position]:
    """Vertices of a regular n-gon (the worst-case tau-cycle embedding)."""
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    cx, cy = center
    return [
        (
            cx + circumradius * math.cos(2 * math.pi * i / n),
            cy + circumradius * math.sin(2 * math.pi * i / n),
        )
        for i in range(n)
    ]


def regular_polygon_with_side(n: int, side: float) -> List[Position]:
    """Regular n-gon with the given side length, centred at the origin."""
    circumradius = side / (2.0 * math.sin(math.pi / n))
    return regular_polygon(n, circumradius)


def polygon_inradius(n: int, side: float) -> float:
    """Apothem of a regular n-gon with the given side length."""
    return side / (2.0 * math.tan(math.pi / n))


def worst_case_uncovered_radius(tau: int, rc: float, rs: float) -> float:
    """Distance from a worst-case tau-cycle's centre to coverage.

    Oracle of Proposition 1's blanket threshold, from the geometry.  For
    a regular tau-gon with side ``Rc`` the centre is at circumradius
    ``Rc / (2 sin(pi/tau))`` from every node; the uncovered slack is that
    minus ``Rs``.  Non-positive means the centre is covered — the boundary
    case of Proposition 1.
    """
    circumradius = rc / (2.0 * math.sin(math.pi / tau))
    return circumradius - rs
