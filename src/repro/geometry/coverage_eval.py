"""Geometric ground-truth evaluation of sensing coverage.

The coverage algorithms never see geometry; this module is the simulator's
referee.  It rasterises the target area on a uniform grid, marks the points
within sensing range of an active node, extracts coverage holes as
connected uncovered components, and measures each hole by the diameter of
its minimum circumscribing circle (the paper's QoC metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.geometry.holes import minimum_enclosing_circle
from repro.network.deployment import Rectangle
from repro.network.node import Position

if TYPE_CHECKING:
    import numpy as np


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


def coverage_grid(
    active_positions: Sequence[Position],
    rs: float,
    target: Rectangle,
    resolution: int = 120,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean coverage raster of the target area.

    Returns ``(covered, xs, ys)`` where ``covered[i, j]`` tells whether the
    cell centre ``(xs[j], ys[i])`` lies within ``rs`` of an active node.
    """
    import numpy as np

    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    xs = np.linspace(target.x0, target.x1, resolution)
    ys = np.linspace(target.y0, target.y1, resolution)
    grid_x, grid_y = np.meshgrid(xs, ys)
    covered = np.zeros(grid_x.shape, dtype=bool)
    rs_sq = rs * rs
    for px, py in active_positions:
        # Only cells inside the node's bounding box can be covered by it.
        covered |= (grid_x - px) ** 2 + (grid_y - py) ** 2 <= rs_sq
    return covered, xs, ys


def _uncovered_components(covered: np.ndarray) -> List[List[Tuple[int, int]]]:
    """4-connected components of the uncovered cells."""
    rows, cols = covered.shape
    seen = covered.copy()  # treat covered cells as already visited
    components: List[List[Tuple[int, int]]] = []
    for i in range(rows):
        for j in range(cols):
            if seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            component: List[Tuple[int, int]] = []
            while stack:
                a, b = stack.pop()
                component.append((a, b))
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < rows and 0 <= nb < cols and not seen[na, nb]:
                        seen[na, nb] = True
                        stack.append((na, nb))
            components.append(component)
    return components


def evaluate_coverage(
    active_positions: Sequence[Position],
    rs: float,
    target: Rectangle,
    resolution: int = 120,
) -> CoverageReport:
    """Rasterised coverage report for a set of active sensing nodes."""
    covered, xs, ys = coverage_grid(active_positions, rs, target, resolution)
    total = covered.size
    covered_fraction = float(covered.sum()) / total
    cell_size = max(
        (target.x1 - target.x0) / (resolution - 1),
        (target.y1 - target.y0) / (resolution - 1),
    )
    holes = [
        CoverageHole(
            cell_centers=[(float(xs[j]), float(ys[i])) for i, j in component],
            cell_size=cell_size,
        )
        for component in _uncovered_components(covered)
    ]
    return CoverageReport(covered_fraction=covered_fraction, holes=holes)
