"""Boundary recognition from the simulator's geometric ground truth."""

from repro.boundary.geometric import (
    outer_boundary_cycle,
    polygon_encloses,
    winding_number,
)

__all__ = [
    "outer_boundary_cycle",
    "polygon_encloses",
    "winding_number",
]
