"""Unit tests for confine-coverage thresholds (Proposition 1)."""

import math

import pytest

from repro.core.confine import (
    ConfineRequirement,
    blanket_sensing_ratio_threshold,
    ghrist_max_hole_diameter,
    guarantees_blanket,
    hole_diameter_bound,
    max_blanket_tau,
)


class TestBlanketThreshold:
    def test_triangle_threshold_is_sqrt3(self):
        assert blanket_sensing_ratio_threshold(3) == pytest.approx(math.sqrt(3))

    def test_square_threshold_is_sqrt2(self):
        assert blanket_sensing_ratio_threshold(4) == pytest.approx(math.sqrt(2))

    def test_hexagon_threshold_is_one(self):
        assert blanket_sensing_ratio_threshold(6) == pytest.approx(1.0)

    def test_threshold_decreases_with_tau(self):
        values = [blanket_sensing_ratio_threshold(tau) for tau in range(3, 12)]
        assert values == sorted(values, reverse=True)

    def test_rejects_tau_below_three(self):
        with pytest.raises(ValueError):
            blanket_sensing_ratio_threshold(2)


class TestGuarantees:
    def test_paper_examples(self):
        # "gamma = sqrt(2) or 1 guarantee no holes in a 4-hop or 6-hop cycle"
        assert guarantees_blanket(4, math.sqrt(2))
        assert guarantees_blanket(6, 1.0)
        assert not guarantees_blanket(6, 1.01)

    def test_exact_threshold_accepted(self):
        assert guarantees_blanket(3, math.sqrt(3))


class TestHoleDiameterBound:
    def test_formula(self):
        assert hole_diameter_bound(5, rc=2.0) == pytest.approx(6.0)

    def test_triangle_bound(self):
        assert hole_diameter_bound(3, rc=1.0) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hole_diameter_bound(2)
        with pytest.raises(ValueError):
            hole_diameter_bound(4, rc=0.0)


class TestMaxBlanketTau:
    def test_gamma_one_gives_six(self):
        assert max_blanket_tau(1.0) == 6

    def test_gamma_sqrt3_gives_three(self):
        assert max_blanket_tau(math.sqrt(3)) == 3

    def test_gamma_beyond_sqrt3_is_none(self):
        assert max_blanket_tau(1.8) is None

    def test_small_gamma_hits_cap(self):
        assert max_blanket_tau(0.05, tau_cap=16) == 16

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            max_blanket_tau(0.0)


class TestConfineRequirement:
    def test_blanket_requirement(self):
        req = ConfineRequirement(gamma=1.0)
        assert req.is_blanket
        assert req.max_feasible_tau() == 6

    def test_partial_requirement_extends_tau(self):
        req = ConfineRequirement(gamma=1.0, max_hole_diameter=1.2)
        # blanket allows tau=6; hole bound (tau-2) <= 1.2 allows only tau=3
        assert req.max_feasible_tau() == 6

    def test_large_holes_with_large_gamma(self):
        req = ConfineRequirement(gamma=2.0, max_hole_diameter=2.0)
        # blanket impossible; (tau - 2) <= 2 allows tau=4
        assert req.max_feasible_tau() == 4

    def test_infeasible_requirement(self):
        req = ConfineRequirement(gamma=2.0, max_hole_diameter=0.0)
        assert req.max_feasible_tau() is None
        assert req.feasible_taus() == []

    def test_feasible_set_is_contiguous_prefix(self):
        req = ConfineRequirement(gamma=1.2, max_hole_diameter=0.0)
        taus = req.feasible_taus()
        assert taus == list(range(3, max(taus) + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfineRequirement(gamma=-1.0)
        with pytest.raises(ValueError):
            ConfineRequirement(gamma=1.0, max_hole_diameter=-0.5)
        with pytest.raises(ValueError):
            ConfineRequirement(gamma=1.0, rc=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_gamma_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="gamma"):
            ConfineRequirement(gamma=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_hole_diameter_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="max_hole_diameter"):
            ConfineRequirement(1.0, max_hole_diameter=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rc_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="rc"):
            ConfineRequirement(1.0, rc=bad)


class TestGhristGranularity:
    def test_fixed_hole_diameter(self):
        assert ghrist_max_hole_diameter(1.0) == pytest.approx(1 / math.sqrt(3))

    def test_scales_with_rc(self):
        assert ghrist_max_hole_diameter(2.0) == pytest.approx(2 / math.sqrt(3))
