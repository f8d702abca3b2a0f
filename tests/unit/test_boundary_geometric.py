"""Unit tests for geometric boundary extraction."""


import pytest

from repro.boundary.geometric import (
    outer_boundary_cycle,
    planar_backbone,
    polygon_encloses,
    trace_outer_face,
    winding_number,
)
from repro.network.deployment import build_network, Rectangle
from repro.network.graph import NetworkGraph
from repro.network.topologies import triangulated_grid


class TestWindingNumber:
    def test_ccw_square_winds_once(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert winding_number(square, (0.5, 0.5)) == pytest.approx(1.0)

    def test_cw_square_winds_minus_once(self):
        square = [(0, 1), (1, 1), (1, 0), (0, 0)]
        assert winding_number(square, (0.5, 0.5)) == pytest.approx(-1.0)

    def test_outside_point_winds_zero(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert winding_number(square, (5, 5)) == pytest.approx(0.0)

    def test_polygon_encloses(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert polygon_encloses(square, (0.5, 0.5))
        assert not polygon_encloses(square, (2, 2))


class TestTraceOuterFace:
    def test_triangulated_grid_rim(self):
        mesh = triangulated_grid(5, 5)
        cycle = trace_outer_face(mesh.graph, mesh.positions)
        assert set(cycle) == set(mesh.outer_boundary)

    def test_cycle_edges_exist(self):
        mesh = triangulated_grid(4, 6)
        cycle = trace_outer_face(mesh.graph, mesh.positions)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert mesh.graph.has_edge(a, b)

    def test_simple_cycle(self):
        mesh = triangulated_grid(6, 4)
        cycle = trace_outer_face(mesh.graph, mesh.positions)
        assert len(set(cycle)) == len(cycle)

    def test_too_small_graph_raises(self):
        g = NetworkGraph(range(2), [(0, 1)])
        with pytest.raises(RuntimeError):
            trace_outer_face(g, {0: (0, 0), 1: (1, 0)})


class TestPlanarBackbone:
    def test_backbone_is_subgraph(self):
        net = build_network(100, Rectangle(0, 0, 6, 6), 1.0, 1.0, seed=4)
        backbone = planar_backbone(net.graph, net.positions)
        assert backbone.edge_set() <= net.graph.edge_set()
        assert backbone.vertex_set() == net.graph.vertex_set()

    def test_backbone_much_sparser(self):
        net = build_network(200, Rectangle(0, 0, 6, 6), 1.0, 1.0, seed=5)
        backbone = planar_backbone(net.graph, net.positions)
        # planar graphs have at most 3n - 6 edges
        assert backbone.num_edges() <= 3 * len(backbone) - 6


class TestOuterBoundaryCycle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_networks_enclose_everything(self, seed):
        # density comparable to the paper's simulations (degree ~16);
        # ragged sparse rims legitimately leave a few nodes in cut ears
        net = build_network(250, Rectangle(0, 0, 7, 7), 1.0, 1.0, seed=seed)
        cycle = outer_boundary_cycle(net)
        assert len(cycle) >= 3
        polygon = [net.positions[v] for v in cycle]
        enclosed = [
            polygon_encloses(polygon, net.positions[v]) for v in net.internal_nodes
        ]
        assert sum(enclosed) >= 0.9 * len(enclosed)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert net.graph.has_edge(a, b)
