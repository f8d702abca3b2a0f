"""Dependency-free SVG rendering of networks and schedules."""

from repro.viz.svg import (
    SvgCanvas,
    render_network,
    render_schedule,
)

__all__ = [
    "SvgCanvas",
    "render_network",
    "render_schedule",
]
