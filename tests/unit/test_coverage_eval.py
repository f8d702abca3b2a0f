"""Unit tests for the geometric coverage referee."""

import hashlib
import random

import pytest

from repro.boundary.geometric import outer_boundary_cycle
from repro.core.scheduler import dcc_schedule
from repro.geometry.coverage_eval import (
    coverage_grid,
    evaluate_coverage,
)
from repro.network.deployment import Rectangle, network_for_average_degree


@pytest.fixture
def unit_target():
    return Rectangle(0.0, 0.0, 4.0, 4.0)


class TestCoverageGrid:
    def test_full_cover_by_big_disk(self, unit_target):
        rows, xs, ys = coverage_grid([(2.0, 2.0)], 4.0, unit_target, 40)
        assert len(rows) == len(ys) == 40
        assert len(xs) == 40
        assert all(row == bytearray([1]) * 40 for row in rows)

    def test_no_nodes_nothing_covered(self, unit_target):
        rows, __, __ = coverage_grid([], 1.0, unit_target, 20)
        assert len(rows) == 20
        assert all(row == bytearray(20) for row in rows)

    def test_resolution_validation(self, unit_target):
        with pytest.raises(ValueError):
            coverage_grid([], 1.0, unit_target, 1)

    @pytest.mark.parametrize("rs", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
    def test_impossible_radius_rejected(self, unit_target, rs):
        # rs = -1 would read as rs = 1 (the predicate squares it) and
        # rs = nan as nothing covered.
        with pytest.raises(ValueError, match="sensing radius"):
            evaluate_coverage([(1.0, 1.0), (3.0, 3.0)], rs, unit_target, 20)
        with pytest.raises(ValueError, match="sensing radius"):
            coverage_grid([], rs, unit_target, 20)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_position_rejected(self, unit_target, bad):
        for position in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="not finite"):
                evaluate_coverage([(1.0, 1.0), position], 1.0, unit_target, 20)


class TestEvaluateCoverage:
    def test_blanket_report(self, unit_target):
        report = evaluate_coverage([(2.0, 2.0)], 4.0, unit_target, 40)
        assert report.is_blanket
        assert report.covered_fraction == pytest.approx(1.0)
        assert report.max_hole_diameter == 0.0
        assert report.total_hole_area == 0.0

    def test_single_central_hole(self, unit_target):
        # four corner disks leave an uncovered pocket in the middle
        corners = [(0, 0), (4, 0), (0, 4), (4, 4)]
        report = evaluate_coverage(corners, 2.4, unit_target, 80)
        assert not report.is_blanket
        assert len(report.holes) == 1
        hole = report.holes[0]
        # the central pocket is around (2,2); measured diameter positive
        assert hole.diameter > 0
        assert hole.area > 0

    def test_hole_diameter_overestimates_raster(self, unit_target):
        """The half-cell slack means raster error cannot shrink holes."""
        corners = [(0, 0), (4, 0), (0, 4), (4, 4)]
        coarse = evaluate_coverage(corners, 2.4, unit_target, 40)
        fine = evaluate_coverage(corners, 2.4, unit_target, 160)
        assert coarse.max_hole_diameter >= fine.max_hole_diameter * 0.9

    def test_two_disjoint_holes(self):
        target = Rectangle(0, 0, 10, 2)
        # cover the middle band only: holes on the left and right
        nodes = [(5.0, 1.0)]
        report = evaluate_coverage(nodes, 2.2, target, 100)
        assert len(report.holes) == 2

    def test_covered_fraction_monotone_in_rs(self, unit_target):
        nodes = [(1.0, 1.0), (3.0, 3.0)]
        fractions = [
            evaluate_coverage(nodes, rs, unit_target, 50).covered_fraction
            for rs in (0.5, 1.0, 2.0, 4.0)
        ]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


def _report_digest(report):
    """sha256 of the covered fraction and every hole's cell centres."""
    text = repr((report.covered_fraction, [h.cell_centers for h in report.holes]))
    return hashlib.sha256(text.encode()).hexdigest()


_CORNERS = [(0, 0), (4, 0), (0, 4), (4, 4)]
_UNIT = Rectangle(0.0, 0.0, 4.0, 4.0)
_BLANKET = "7f639b1a00a11cea559e257d8f8f8b72d7ebd05714babec994cbab00cf1fd044"


class TestPinnedReports:
    """Reports pinned to the digests of the whole-grid numpy raster."""

    @pytest.mark.parametrize(
        "positions, rs, target, resolution, digest",
        [
            ([(2.0, 2.0)], 4.0, _UNIT, 40, _BLANKET),
            (_CORNERS, 2.4, _UNIT, 80,
             "7490d018cb1c684b8d0039af8c2e85ab485287b4530575a261e7d32bc0a7ddf2"),
            (_CORNERS, 2.4, _UNIT, 40,
             "271345a57d933f6c5058e0620735a66f782076ab64bfa7247b12c50e27fa2d21"),
            (_CORNERS, 2.4, _UNIT, 160,
             "84a993d32e6fb21770b0e2bce8c014980fc41ad345d63764db9678241ba90f06"),
            ([(5.0, 1.0)], 2.2, Rectangle(0, 0, 10, 2), 100,
             "09691a522e0a76618d6093b599bc93c722b1929aee73c308e1166ae8d9faf386"),
            ([(1.0, 1.0), (3.0, 3.0)], 0.5, _UNIT, 50,
             "efda651ac235b444013e597aa8715a1a06e99eb2c4e1b144aafd2c1e8516f5ba"),
            ([(1.0, 1.0), (3.0, 3.0)], 1.0, _UNIT, 50,
             "92661fe08031058a5b6f832d233073b93ce14d841196c680c10d9e8d78ff071c"),
            ([(1.0, 1.0), (3.0, 3.0)], 2.0, _UNIT, 50,
             "856fc53fc396aac25cb5b051124d684eddcc4f1cf5c8e57296582fb2f72d86d1"),
            ([(1.0, 1.0), (3.0, 3.0)], 4.0, _UNIT, 50, _BLANKET),
        ],
    )
    def test_small_cases(self, positions, rs, target, resolution, digest):
        report = evaluate_coverage(positions, rs, target, resolution)
        assert _report_digest(report) == digest

    def test_fig2_tau3_active_set_at_half_range(self):
        """Figure 2's deployment thinned at tau 3, sensed at rs 0.5: 47 holes."""
        net = network_for_average_degree(1600, 25.0, rc=1.0, rs=1.0, seed=0)
        cycle = outer_boundary_cycle(net)
        protected = set(net.boundary_nodes) | set(cycle)
        result = dcc_schedule(
            net.graph, protected, 3, rng=random.Random("fig2_paper/0/tau3"), workers=1
        )
        order = ",".join(map(str, result.removed)).encode()
        # the schedule pipebench records for fig2_paper, seed 0, tau 3
        assert hashlib.sha256(order).hexdigest()[:16] == "da2711b660beba30"
        positions = [net.positions[v] for v in result.active.vertices()]
        report = evaluate_coverage(positions, 0.5, net.target_area)
        assert len(report.holes) == 47
        assert _report_digest(report) == (
            "914834679720ed27a14dc3376e938e0ffe2fa6752ab20343e17ea257c995bad8"
        )
