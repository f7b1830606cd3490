"""Unit tests for the bound function c(eps, m) and its recursion.

These tests pin the paper's analytic facts: the anchor (Eq. 4), ratio
independence (Eq. 5), the f >= 2 constraint (Eq. 6), corner values
(Eq. 7), continuity across corners, Eq. (1)'s closed form for m = 2, and
the exact corner values 2/7 (m=2) and 0.09, 6/13 (m=3) that follow from
the construction.
"""

import math
import warnings

import numpy as np
import pytest

from repro.core.params import (
    BoundFunction,
    asymptotic_bound,
    c_bound,
    clamp_epsilon,
    closed_form_last_phase,
    closed_form_m2,
    closed_form_second_last_phase,
    closed_form_third_last_phase,
    corner_values,
    forward_f_chain,
    forward_polynomial,
    phase_index,
    threshold_parameters,
)


class TestClampEpsilon:
    def test_passthrough_in_range(self):
        assert clamp_epsilon(0.3) == 0.3

    def test_clamps_above_one(self):
        assert clamp_epsilon(2.5) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clamp_epsilon(0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="slack must be positive"):
            clamp_epsilon(math.nan)


class TestTinySlacks:
    """Slacks far below 1e-18 still solve; unrepresentable ones are refused."""

    @pytest.mark.parametrize("eps", [1e-100, 1e-300])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_solves_tiny_slacks(self, m, eps):
        params = BoundFunction(m).parameters(eps)
        target = (1.0 + eps) / eps
        assert params.k == 1
        assert abs(params.f[-1] - target) <= 3e-15 * target
        assert math.isfinite(params.c) and params.c > 1.0

    def test_m2_tiny_slack_value(self):
        # c(eps, 2) = 2 f_1 + 1 with f_2 = (1+eps)/eps, so c ~ 2/sqrt(eps).
        assert c_bound(1e-100, 2) == pytest.approx(2e50, rel=1e-12)

    @pytest.mark.parametrize("eps", [5e-324, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_refuses_unusable_slacks(self, m, eps):
        with pytest.raises(ValueError, match="slack"):
            BoundFunction(m).parameters(eps)

    @pytest.mark.parametrize("m", [2, 8])
    def test_overflowing_chain_refused_without_warnings(self, m):
        # (1+eps)/eps is finite here, but c(eps, m) bracketing overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too small"):
                BoundFunction(m).parameters(1e-308)


class TestForwardChain:
    def test_anchor_for_m1(self):
        # m = 1, k = 1: f_1 = c - 1, and c = 2 + 1/eps gives f_1 = (1+eps)/eps.
        eps = 0.25
        c = 2.0 + 1.0 / eps
        f = forward_f_chain(c, m=1, k=1)
        assert f[-1] == pytest.approx((1 + eps) / eps)

    def test_strictly_increasing_in_q(self):
        f = forward_f_chain(8.0, m=4, k=1)
        assert np.all(np.diff(f) > 0)

    def test_monotone_in_c(self):
        f_lo = forward_f_chain(6.0, m=3, k=1)[-1]
        f_hi = forward_f_chain(7.0, m=3, k=1)[-1]
        assert f_hi > f_lo

    def test_bad_k_raises(self):
        with pytest.raises(ValueError):
            forward_f_chain(5.0, m=3, k=0)
        with pytest.raises(ValueError):
            forward_f_chain(5.0, m=3, k=4)

    def test_polynomial_matches_chain(self):
        for m, k in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
            poly = forward_polynomial(m, k)
            for c in [3.0, 5.5, 9.0]:
                assert poly(c) == pytest.approx(forward_f_chain(c, m, k)[-1], rel=1e-12)


class TestCornerValues:
    def test_m1_trivial(self):
        assert corner_values(1) == (0.0, 1.0)

    def test_m2_corner_is_two_sevenths(self):
        corners = corner_values(2)
        assert corners[1] == pytest.approx(2.0 / 7.0, abs=1e-12)

    def test_m3_corners_exact(self):
        corners = corner_values(3)
        assert corners[1] == pytest.approx(0.09, abs=1e-12)
        assert corners[2] == pytest.approx(6.0 / 13.0, abs=1e-12)

    def test_strictly_increasing(self):
        for m in [2, 3, 4, 6, 10]:
            corners = corner_values(m)
            assert all(a < b for a, b in zip(corners, corners[1:]))

    def test_endpoints(self):
        for m in [1, 2, 5]:
            corners = corner_values(m)
            assert corners[0] == 0.0 and corners[-1] == 1.0

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            corner_values(0)


class TestPhaseIndex:
    def test_m2_phases(self):
        assert phase_index(0.1, 2) == 1
        assert phase_index(2.0 / 7.0, 2) == 1  # corner belongs to left phase
        assert phase_index(0.3, 2) == 2
        assert phase_index(1.0, 2) == 2

    def test_m3_phases(self):
        assert phase_index(0.05, 3) == 1
        assert phase_index(0.2, 3) == 2
        assert phase_index(0.8, 3) == 3

    def test_epsilon_above_one_clamped(self):
        assert phase_index(3.0, 2) == 2


class TestCBoundClosedForms:
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.2, 2 / 7, 0.4, 0.7, 1.0])
    def test_m2_matches_eq1(self, eps):
        assert c_bound(eps, 2) == pytest.approx(closed_form_m2(eps), rel=1e-10)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.5, 1.0])
    def test_m1_is_goldwasser(self, eps):
        assert c_bound(eps, 1) == pytest.approx(2.0 + 1.0 / eps, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_last_phase_closed_form(self, m):
        eps = 0.9  # inside (eps_{m-1,m}, 1] for all small m
        assert phase_index(eps, m) == m
        assert c_bound(eps, m) == pytest.approx(closed_form_last_phase(eps, m), rel=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_second_last_phase_closed_form(self, m):
        corners = corner_values(m)
        eps = 0.5 * (corners[m - 2] + corners[m - 1])
        assert phase_index(eps, m) == m - 1
        assert c_bound(eps, m) == pytest.approx(
            closed_form_second_last_phase(eps, m), rel=1e-10
        )

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_third_last_phase_closed_form(self, m):
        corners = corner_values(m)
        eps = 0.5 * (corners[m - 3] + corners[m - 2])
        assert phase_index(eps, m) == m - 2
        assert c_bound(eps, m) == pytest.approx(
            closed_form_third_last_phase(eps, m), rel=1e-9
        )

    def test_eq1_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form_m2(0.0)
        with pytest.raises(ValueError):
            closed_form_m2(1.5)


class TestShape:
    def test_decreasing_in_epsilon(self):
        for m in [1, 2, 3, 4]:
            grid = np.geomspace(0.01, 1.0, 40)
            vals = BoundFunction(m).series(grid)
            assert np.all(np.diff(vals) < 0)

    def test_decreasing_in_m(self):
        for eps in [0.05, 0.2, 0.7]:
            vals = [c_bound(eps, m) for m in [1, 2, 3, 4, 6]]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_continuity_at_corners(self):
        for m in [2, 3, 4]:
            for corner in corner_values(m)[1:-1]:
                left = c_bound(corner - 1e-9, m)
                right = c_bound(corner + 1e-9, m)
                assert left == pytest.approx(right, abs=1e-5)

    def test_corner_ratio_value(self):
        # At eps_{k,m} the ratio equals (2m+1)/k (f_k = 2 there).
        for m in [2, 3, 4]:
            corners = corner_values(m)
            for k in range(1, m):
                assert c_bound(corners[k], m) == pytest.approx(
                    (2 * m + 1) / k, rel=1e-9
                )

    def test_growth_rate_eps_pow_inverse_m(self):
        # Dominant phase: c ~ m * eps^{-1/m}; check the log-log slope.
        m = 3
        eps = np.array([1e-6, 1e-7])
        vals = np.array([c_bound(float(e), m) for e in eps])
        slope = np.log(vals[1] / vals[0]) / np.log(eps[1] / eps[0])
        assert slope == pytest.approx(-1.0 / m, abs=0.02)


class TestThresholdParameters:
    @pytest.mark.parametrize(
        "eps,m", [(0.05, 1), (0.3, 2), (0.05, 3), (0.2, 3), (0.8, 3), (0.1, 5)]
    )
    def test_verify_identities(self, eps, m):
        threshold_parameters(eps, m).verify()

    def test_factor_for_rank(self):
        p = threshold_parameters(0.2, 3)  # k = 2
        assert p.factor_for_rank(2) == pytest.approx(p.f[0])
        assert p.factor_for_rank(3) == pytest.approx((1 + 0.2) / 0.2)
        with pytest.raises(ValueError):
            p.factor_for_rank(1)
        with pytest.raises(ValueError):
            p.factor_for_rank(4)

    def test_anchor(self):
        for eps in [0.1, 0.5, 1.0]:
            p = threshold_parameters(eps, 4)
            assert p.f[-1] == pytest.approx((1 + eps) / eps)

    def test_c_equals_mfk_plus_1_over_k(self):
        p = threshold_parameters(0.2, 3)
        assert p.c == pytest.approx((p.m * p.f[0] + 1) / p.k)


class TestAsymptotics:
    def test_asymptotic_bound_value(self):
        assert asymptotic_bound(0.01) == pytest.approx(math.log(100))

    def test_asymptotic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            asymptotic_bound(0.0)

    def test_fixed_eps_limit_is_2_plus_log(self):
        # Measured fact (documented in EXPERIMENTS.md): for fixed eps the
        # m -> infinity limit of c(eps, m) is 2 + ln(1/eps); Proposition 1's
        # ln(1/eps) appears in the joint limit eps -> 0.
        eps = 0.01
        target = 2.0 + math.log(1.0 / eps)
        diffs = [c_bound(eps, m) - target for m in (64, 128, 256)]
        assert all(d > 0 for d in diffs)
        assert diffs[2] < diffs[1] < diffs[0]
        assert diffs[2] < 0.1

    def test_joint_limit_ratio_to_log(self):
        # c / ln(1/eps) -> 1 as eps -> 0 with m large.
        r1 = c_bound(1e-4, 256) / math.log(1e4)
        r2 = c_bound(1e-8, 256) / math.log(1e8)
        assert r2 < r1
        assert r2 < 1.25


class TestBoundFunctionObject:
    def test_transition_points_match_corners(self):
        bf = BoundFunction(3)
        pts = bf.transition_points()
        assert len(pts) == 2
        assert pts[0][0] == pytest.approx(0.09, abs=1e-9)
        assert pts[0][1] == pytest.approx(7.0)
        assert pts[1][1] == pytest.approx(3.5)

    def test_series_matches_scalar(self):
        bf = BoundFunction(2)
        grid = [0.1, 0.5]
        series = bf.series(grid)
        assert series[0] == pytest.approx(bf.value(0.1))
        assert series[1] == pytest.approx(bf.value(0.5))

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            BoundFunction(0)
