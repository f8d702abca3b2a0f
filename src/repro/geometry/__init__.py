"""Geometric ground truth: coverage rasters, holes, disks."""

from repro.geometry.coverage_eval import (
    CoverageHole,
    CoverageReport,
    coverage_grid,
    evaluate_coverage,
)
from repro.geometry.disks import (
    polygon_inradius,
    regular_polygon,
    regular_polygon_with_side,
    worst_case_uncovered_radius,
)
from repro.geometry.holes import (
    Circle,
    minimum_enclosing_circle,
    point_set_diameter,
)

__all__ = [
    "Circle",
    "CoverageHole",
    "CoverageReport",
    "coverage_grid",
    "evaluate_coverage",
    "minimum_enclosing_circle",
    "point_set_diameter",
    "polygon_inradius",
    "regular_polygon",
    "regular_polygon_with_side",
    "worst_case_uncovered_radius",
]
