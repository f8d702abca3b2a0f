"""Geometric ground-truth evaluation of sensing coverage.

The coverage algorithms never see geometry; this module is the simulator's
referee.  It rasterises the target area on a uniform grid, marks the points
within sensing range of an active node, extracts coverage holes as
connected uncovered components, and measures each hole by the diameter of
its minimum circumscribing circle (the paper's QoC metric).

The raster is pure Python: one ``bytearray`` per grid row.  A disc covers
one run of columns on each row it reaches, so it is marked with one slice
assignment per row, and rows already fully covered are skipped.  The run
ends are found with the per-cell predicate itself, so the raster is the one
a whole-grid ``numpy`` evaluation gives, cell for cell.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.geometry.holes import minimum_enclosing_circle
from repro.network.deployment import Rectangle
from repro.network.node import Position


@dataclass
class CoverageHole:
    """A connected uncovered region of the target area."""

    cell_centers: List[Position]
    cell_size: float

    @property
    def area(self) -> float:
        return len(self.cell_centers) * self.cell_size * self.cell_size

    @property
    def diameter(self) -> float:
        """Diameter of the minimum circle circumscribing the hole.

        Half a cell diagonal is added on each side so raster error can only
        over-estimate, never under-estimate, the true hole diameter.
        """
        circle = minimum_enclosing_circle(self.cell_centers)
        return circle.diameter + self.cell_size * math.sqrt(2.0)


@dataclass
class CoverageReport:
    """Result of evaluating a node set's sensing coverage."""

    covered_fraction: float
    holes: List[CoverageHole] = field(default_factory=list)

    @property
    def is_blanket(self) -> bool:
        return not self.holes

    @property
    def max_hole_diameter(self) -> float:
        return max((hole.diameter for hole in self.holes), default=0.0)

    @property
    def total_hole_area(self) -> float:
        return sum(hole.area for hole in self.holes)


def _grid_coords(start: float, stop: float, num: int) -> List[float]:
    """``numpy.linspace(start, stop, num)`` as floats, bit for bit:
    ``i*step + start`` with the last value pinned to ``stop``."""
    start, stop = float(start), float(stop)
    step = (stop - start) / (num - 1)
    coords = [i * step + start for i in range(num)]
    coords[-1] = stop
    return coords


def _inside_run(
    coords: List[float], centre: float, offset: float, rs_sq: float
) -> Tuple[int, int]:
    """The run ``[lo, hi)`` of indices ``k`` with ``e*e + offset <= rs_sq``,
    where ``e = coords[k] - centre`` and ``offset <= rs_sq``.

    ``coords`` increases, so ``e*e`` falls and then rises with ``k``: the
    run is contiguous and, unless it is empty, holds the index left or
    right of ``centre``'s insertion point.  ``sqrt`` estimates the ends;
    the estimate always brackets that insertion point, so the run meets
    the estimate or touches it, and each end moves cell by cell until the
    predicate itself agrees.
    """
    half = math.sqrt(rs_sq - offset)
    lo = bisect_left(coords, centre - half)
    hi = bisect_right(coords, centre + half)
    n = len(coords)
    while lo > 0:
        e = coords[lo - 1] - centre
        if e * e + offset > rs_sq:
            break
        lo -= 1
    while lo < hi:
        e = coords[lo] - centre
        if e * e + offset <= rs_sq:
            break
        lo += 1
    while hi < n:
        e = coords[hi] - centre
        if e * e + offset > rs_sq:
            break
        hi += 1
    while hi > lo:
        e = coords[hi - 1] - centre
        if e * e + offset <= rs_sq:
            break
        hi -= 1
    return lo, hi


def coverage_grid(
    active_positions: Sequence[Position],
    rs: float,
    target: Rectangle,
    resolution: int = 120,
) -> Tuple[List[bytearray], List[float], List[float]]:
    """Coverage raster of the target area.

    Returns ``(rows, xs, ys)`` where ``rows[i][j]`` is 1 when the cell
    centre ``(xs[j], ys[i])`` lies within ``rs`` of an active node and 0
    otherwise.  A cell is covered when ``e*e + d*d <= rs*rs`` for its
    offsets ``e``, ``d`` from some node: the predicate and the grid are
    the ones ``numpy.meshgrid`` and ``np.square`` would evaluate, so the
    raster is the same cell for cell.  A radius that is not finite and
    positive, or a position that is not finite, raises ``ValueError``.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not (math.isfinite(rs) and rs > 0):
        raise ValueError(f"sensing radius must be finite and positive, got {rs}")
    n = resolution
    xs = _grid_coords(target.x0, target.x1, n)
    ys = _grid_coords(target.y0, target.y1, n)
    rows = [bytearray(n) for __ in ys]
    full = bytearray(n)  # rows with no uncovered cell left
    ones = memoryview(b"\x01" * n)
    rs_sq = rs * rs
    for px, py in active_positions:
        if not (math.isfinite(px) and math.isfinite(py)):
            raise ValueError(f"position ({px}, {py}) is not finite")
        # Only cells inside the node's bounding box can be covered by it.
        top, bottom = _inside_run(ys, py, 0.0, rs_sq)
        for i in range(top, bottom):
            if full[i]:
                continue
            d = ys[i] - py
            lo, hi = _inside_run(xs, px, d * d, rs_sq)
            row = rows[i]
            if row.find(0, lo, hi) < 0:
                continue
            row[lo:hi] = ones[lo:hi]
            if row.find(0) < 0:
                full[i] = 1
    return rows, xs, ys


def _uncovered_components(rows: List[bytearray]) -> List[List[Tuple[int, int]]]:
    """4-connected components of the uncovered cells, in row-major order
    of their first cell."""
    height, width = len(rows), len(rows[0])
    seen = [bytearray(row) for row in rows]  # covered cells count as visited
    components: List[List[Tuple[int, int]]] = []
    for i, seen_row in enumerate(seen):
        j = seen_row.find(0)
        while j >= 0:
            stack = [(i, j)]
            seen_row[j] = 1
            component: List[Tuple[int, int]] = []
            while stack:
                a, b = stack.pop()
                component.append((a, b))
                for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                    if 0 <= na < height and 0 <= nb < width and not seen[na][nb]:
                        seen[na][nb] = 1
                        stack.append((na, nb))
            components.append(component)
            j = seen_row.find(0, j + 1)
    return components


def evaluate_coverage(
    active_positions: Sequence[Position],
    rs: float,
    target: Rectangle,
    resolution: int = 120,
) -> CoverageReport:
    """Rasterised coverage report for a set of active sensing nodes."""
    rows, xs, ys = coverage_grid(active_positions, rs, target, resolution)
    covered_fraction = sum(row.count(1) for row in rows) / (resolution * resolution)
    cell_size = max(
        (target.x1 - target.x0) / (resolution - 1),
        (target.y1 - target.y0) / (resolution - 1),
    )
    holes = [
        CoverageHole(
            cell_centers=[(xs[j], ys[i]) for i, j in component],
            cell_size=cell_size,
        )
        for component in _uncovered_components(rows)
    ]
    return CoverageReport(covered_fraction=covered_fraction, holes=holes)
