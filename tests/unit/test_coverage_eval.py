"""Unit tests for the geometric coverage referee."""


import pytest

from repro.geometry.coverage_eval import (
    coverage_grid,
    evaluate_coverage,
)
from repro.network.deployment import Rectangle


@pytest.fixture
def unit_target():
    return Rectangle(0.0, 0.0, 4.0, 4.0)


class TestCoverageGrid:
    def test_full_cover_by_big_disk(self, unit_target):
        covered, xs, ys = coverage_grid([(2.0, 2.0)], 4.0, unit_target, 40)
        assert covered.all()

    def test_no_nodes_nothing_covered(self, unit_target):
        covered, __, __ = coverage_grid([], 1.0, unit_target, 20)
        assert not covered.any()

    def test_resolution_validation(self, unit_target):
        with pytest.raises(ValueError):
            coverage_grid([], 1.0, unit_target, 1)


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
