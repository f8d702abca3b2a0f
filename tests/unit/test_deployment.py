"""Unit tests for regions, deployments and network construction."""

import math

import pytest

from repro.network.deployment import (
    Rectangle,
    build_network,
    deploy_uniform,
    network_for_average_degree,
)


class TestRectangle:
    def test_dimensions(self):
        rect = Rectangle(0, 0, 4, 3)
        assert rect.width == 4 and rect.height == 3
        assert rect.area == 12
        assert rect.center == (2.0, 1.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(0, 0, 0, 1)

    def test_contains(self):
        rect = Rectangle(0, 0, 2, 2)
        assert rect.contains((1, 1)) and rect.contains((0, 0))
        assert not rect.contains((3, 1))

    def test_distance_to_border(self):
        rect = Rectangle(0, 0, 10, 10)
        assert rect.distance_to_border((5, 5)) == 5
        assert rect.distance_to_border((1, 5)) == 1

    def test_shrink(self):
        rect = Rectangle(0, 0, 10, 10).shrink(2)
        assert (rect.x0, rect.y0, rect.x1, rect.y1) == (2, 2, 8, 8)

    def test_shrink_too_much(self):
        with pytest.raises(ValueError):
            Rectangle(0, 0, 2, 2).shrink(1)

    def test_sample_inside(self, rng):
        rect = Rectangle(1, 2, 3, 4)
        for __ in range(50):
            assert rect.contains(rect.sample(rng))

    def test_perimeter_parameter_monotone_on_bottom_edge(self):
        rect = Rectangle(0, 0, 10, 10)
        params = [rect.perimeter_parameter((x, 0.1)) for x in (1, 4, 8)]
        assert params == sorted(params)

    def test_perimeter_parameter_covers_all_sides(self):
        rect = Rectangle(0, 0, 10, 10)
        bottom = rect.perimeter_parameter((5, 0.01))
        right = rect.perimeter_parameter((9.99, 5))
        top = rect.perimeter_parameter((5, 9.99))
        left = rect.perimeter_parameter((0.01, 5))
        assert bottom < right < top < left


class TestDeployments:
    def test_uniform_count_and_bounds(self, rng):
        rect = Rectangle(0, 0, 5, 5)
        positions = deploy_uniform(40, rect, rng)
        assert len(positions) == 40
        assert all(rect.contains(p) for p in positions.values())

    def test_uniform_rejects_nonpositive(self, rng):
        with pytest.raises(ValueError):
            deploy_uniform(0, Rectangle(0, 0, 1, 1), rng)


class TestNetworkConstruction:
    def test_build_network_basics(self):
        net = build_network(
            120, Rectangle(0, 0, 6, 6), rc=1.0, rs=1.0, seed=1
        )
        assert net.graph.is_connected()
        assert net.gamma == pytest.approx(1.0)
        assert net.boundary_nodes
        assert net.internal_nodes
        assert net.boundary_nodes | net.internal_nodes == net.graph.vertex_set()

    def test_boundary_labelling_matches_band(self):
        net = build_network(120, Rectangle(0, 0, 6, 6), rc=1.0, rs=0.8, seed=2)
        for v in net.boundary_nodes:
            assert net.region.distance_to_border(net.positions[v]) <= net.rc

    def test_target_area_is_shrunk_region(self):
        net = build_network(120, Rectangle(0, 0, 6, 6), rc=1.0, rs=1.0, seed=3)
        assert net.target_area.width == pytest.approx(4.0)

    def test_nodes_view(self):
        net = build_network(80, Rectangle(0, 0, 5, 5), rc=1.0, rs=1.0, seed=4)
        nodes = net.nodes()
        assert len(nodes) == len(net.graph)
        flagged = {n.id for n in nodes if n.is_boundary}
        assert flagged == net.boundary_nodes

    def test_average_degree_targeting(self):
        net = network_for_average_degree(300, 18.0, seed=5)
        assert 13.0 <= net.graph.average_degree() <= 23.0

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            network_for_average_degree(100, 0.0)

    @pytest.mark.parametrize("name", ["rc", "rs"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_radii_must_be_finite_and_positive(self, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            network_for_average_degree(100, 10.0, **{name: bad})
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            build_network(100, Rectangle(0, 0, 10, 10), **{"rc": 1.0, "rs": 1.0, name: bad})

    def test_impossible_connectivity_raises(self):
        with pytest.raises(RuntimeError):
            # far too sparse to ever connect
            build_network(
                5,
                Rectangle(0, 0, 100, 100),
                rc=1.0,
                rs=1.0,
                seed=6,
                max_attempts=3,
            )
