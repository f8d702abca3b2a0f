"""Minimal SVG writer for network snapshots (Figure 2/7-style pictures).

No plotting dependency is available offline, so this module emits plain
SVG: links as lines, nodes as circles (squares for boundary nodes, as in
the paper's figures), optional boundary-cycle highlighting and coverage
holes.  The output opens in any browser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.graph import NetworkGraph
from repro.network.node import Position


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


@dataclass
class SvgCanvas:
    """Accumulates SVG elements in world coordinates and scales on render."""

    width: int = 800
    height: int = 600
    margin: int = 24
    elements: List[tuple] = field(default_factory=list)
    _xs: List[float] = field(default_factory=list)
    _ys: List[float] = field(default_factory=list)

    def _track(self, x: float, y: float) -> None:
        self._xs.append(x)
        self._ys.append(y)

    def line(
        self, a: Position, b: Position, color: str = "#999", width: float = 1.0
    ) -> None:
        self._track(*a)
        self._track(*b)
        self.elements.append(
            ("line", a[0], a[1], b[0], b[1], color, width)  # type: ignore[arg-type]
        )

    def circle(
        self,
        center: Position,
        radius_px: float = 4.0,
        fill: str = "#1f77b4",
        stroke: str = "none",
    ) -> None:
        self._track(*center)
        self.elements.append(
            ("circle", center[0], center[1], radius_px, fill, stroke)  # type: ignore[arg-type]
        )

    def square(
        self, center: Position, half_px: float = 4.5, fill: str = "#d62728"
    ) -> None:
        self._track(*center)
        self.elements.append(("square", center[0], center[1], half_px, fill))  # type: ignore[arg-type]

    def rect(
        self,
        corner: Position,
        width: float,
        height: float,
        fill: str = "#1f77b4",
    ) -> None:
        """An axis-aligned world-coordinate rectangle (corner = bottom-left)."""
        self._track(*corner)
        self._track(corner[0] + width, corner[1] + height)
        self.elements.append(
            ("rect", corner[0], corner[1], width, height, fill)  # type: ignore[arg-type]
        )

    def label(self, anchor: Position, text: str, size_px: int = 12) -> None:
        self._track(*anchor)
        self.elements.append(("text", anchor[0], anchor[1], _escape(text), size_px))  # type: ignore[arg-type]

    def render(self) -> str:
        """Serialise to an SVG document string."""
        if not self._xs:
            body = ""
        else:
            min_x, max_x = min(self._xs), max(self._xs)
            min_y, max_y = min(self._ys), max(self._ys)
            span_x = max(max_x - min_x, 1e-9)
            span_y = max(max_y - min_y, 1e-9)
            scale = min(
                (self.width - 2 * self.margin) / span_x,
                (self.height - 2 * self.margin) / span_y,
            )

            def transform(x: float, y: float) -> Tuple[float, float]:
                # SVG's y-axis points down; world coordinates point up.
                px = self.margin + (x - min_x) * scale
                py = self.height - self.margin - (y - min_y) * scale
                return px, py

            parts: List[str] = []
            for element in self.elements:
                kind = element[0]
                if kind == "line":
                    __, x1, y1, x2, y2, color, width = element
                    (px1, py1), (px2, py2) = transform(x1, y1), transform(x2, y2)
                    parts.append(
                        f'<line x1="{px1:.1f}" y1="{py1:.1f}" '
                        f'x2="{px2:.1f}" y2="{py2:.1f}" '
                        f'stroke="{color}" stroke-width="{width}"/>'
                    )
                elif kind == "circle":
                    __, x, y, radius, fill, stroke = element
                    px, py = transform(x, y)
                    stroke_attr = (
                        f' stroke="{stroke}"' if stroke != "none" else ""
                    )
                    parts.append(
                        f'<circle cx="{px:.1f}" cy="{py:.1f}" r="{radius}" '
                        f'fill="{fill}"{stroke_attr}/>'
                    )
                elif kind == "square":
                    __, x, y, half, fill = element
                    px, py = transform(x, y)
                    parts.append(
                        f'<rect x="{px - half:.1f}" y="{py - half:.1f}" '
                        f'width="{2 * half}" height="{2 * half}" fill="{fill}"/>'
                    )
                elif kind == "rect":
                    __, x, y, w, h, fill = element
                    # Transform both corners; y flips, so the rendered
                    # top-left is the world top-left corner.
                    px, py = transform(x, y + h)
                    px2, py2 = transform(x + w, y)
                    parts.append(
                        f'<rect x="{px:.1f}" y="{py:.1f}" '
                        f'width="{px2 - px:.1f}" height="{py2 - py:.1f}" '
                        f'fill="{fill}"/>'
                    )
                elif kind == "text":
                    __, x, y, text, size = element
                    px, py = transform(x, y)
                    parts.append(
                        f'<text x="{px:.1f}" y="{py:.1f}" '
                        f'font-size="{size}" font-family="sans-serif">'
                        f"{text}</text>"
                    )
            body = "\n  ".join(parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
            f'  <rect width="100%" height="100%" fill="white"/>\n'
            f"  {body}\n</svg>\n"
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render())


def render_network(
    graph: NetworkGraph,
    positions: Dict[int, Position],
    boundary: Iterable[int] = (),
    title: str = "",
    canvas: Optional[SvgCanvas] = None,
) -> SvgCanvas:
    """Draw a network: grey links, blue circles, red boundary squares."""
    canvas = canvas or SvgCanvas()
    boundary_set = set(boundary)
    for u, v in graph.edges():
        canvas.line(positions[u], positions[v], color="#cccccc", width=0.6)
    for v in graph.vertices():
        if v in boundary_set:
            canvas.square(positions[v])
        else:
            canvas.circle(positions[v])
    if title:
        xs = [p[0] for p in positions.values()]
        ys = [p[1] for p in positions.values()]
        canvas.label((min(xs), max(ys)), title, size_px=14)
    return canvas


def render_schedule(
    full_graph: NetworkGraph,
    active: NetworkGraph,
    positions: Dict[int, Position],
    boundary: Iterable[int] = (),
    title: str = "",
) -> SvgCanvas:
    """Draw a schedule: sleeping nodes faded, active set highlighted."""
    canvas = SvgCanvas()
    boundary_set = set(boundary)
    active_set = active.vertex_set()
    for u, v in full_graph.edges():
        color = "#cccccc" if u in active_set and v in active_set else "#f0f0f0"
        canvas.line(positions[u], positions[v], color=color, width=0.5)
    for v in full_graph.vertices():
        if v in boundary_set:
            canvas.square(positions[v])
        elif v in active_set:
            canvas.circle(positions[v], fill="#1f77b4")
        else:
            canvas.circle(positions[v], radius_px=2.5, fill="#dddddd")
    if title:
        xs = [p[0] for p in positions.values()]
        ys = [p[1] for p in positions.values()]
        canvas.label((min(xs), max(ys)), title, size_px=14)
    return canvas
