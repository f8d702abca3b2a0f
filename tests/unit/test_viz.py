"""Unit tests for the SVG renderer."""

import xml.etree.ElementTree as ET

import pytest

from repro.network.topologies import triangulated_grid
from repro.viz.svg import (
    SvgCanvas,
    render_network,
    render_schedule,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestCanvas:
    def test_empty_canvas_is_valid_svg(self):
        root = parse(SvgCanvas().render())
        assert root.tag == f"{SVG_NS}svg"

    def test_elements_rendered(self):
        canvas = SvgCanvas()
        canvas.line((0, 0), (1, 1))
        canvas.circle((0.5, 0.5))
        canvas.square((1, 0))
        canvas.label((0, 1), "hello <&>")
        root = parse(canvas.render())
        tags = [child.tag.replace(SVG_NS, "") for child in root]
        assert tags.count("line") == 1
        assert tags.count("circle") == 1
        assert tags.count("rect") == 2  # background + square
        assert tags.count("text") == 1
        text = [c for c in root if c.tag == f"{SVG_NS}text"][0]
        assert text.text == "hello <&>"

    def test_coordinates_fit_viewport(self):
        canvas = SvgCanvas(width=400, height=300, margin=10)
        canvas.circle((-100, 50))
        canvas.circle((900, -70))
        root = parse(canvas.render())
        for circle in root.iter(f"{SVG_NS}circle"):
            assert 0 <= float(circle.get("cx")) <= 400
            assert 0 <= float(circle.get("cy")) <= 300

    def test_save(self, tmp_path):
        canvas = SvgCanvas()
        canvas.circle((0, 0))
        path = tmp_path / "out.svg"
        canvas.save(str(path))
        assert path.read_text().startswith("<svg")


class TestRenderers:
    @pytest.fixture
    def mesh(self):
        return triangulated_grid(4, 4)

    def test_render_network_counts(self, mesh):
        svg = render_network(
            mesh.graph, mesh.positions, mesh.outer_boundary, title="net"
        ).render()
        root = parse(svg)
        circles = list(root.iter(f"{SVG_NS}circle"))
        rects = list(root.iter(f"{SVG_NS}rect"))
        boundary = set(mesh.outer_boundary)
        assert len(circles) == len(mesh.graph) - len(boundary)
        assert len(rects) == len(boundary) + 1  # + background
        lines = list(root.iter(f"{SVG_NS}line"))
        assert len(lines) == mesh.graph.num_edges()

    def test_render_schedule_fades_sleepers(self, mesh):
        active = mesh.graph.induced_subgraph(mesh.outer_boundary)
        svg = render_schedule(
            mesh.graph, active, mesh.positions, mesh.outer_boundary
        ).render()
        root = parse(svg)
        faded = [
            c
            for c in root.iter(f"{SVG_NS}circle")
            if c.get("fill") == "#dddddd"
        ]
        interior = len(mesh.graph) - len(set(mesh.outer_boundary))
        assert len(faded) == interior
