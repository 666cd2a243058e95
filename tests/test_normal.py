import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from sumnorm.normal import (critical_value, extreme_width, quartile_width,
                            std_normal_quantile, two_sided_p)


class TestQuantile:
    def test_center(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_known_values(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054,
                                                           abs=1e-9)
        assert std_normal_quantile(0.97312) == pytest.approx(
            float(ndtri(0.97312)), abs=1e-9)

    def test_against_scipy_grid(self):
        for i in range(1, 1000):
            p = i / 1000.0
            assert std_normal_quantile(p) == pytest.approx(float(ndtri(p)),
                                                           abs=1e-9)

    def test_round_trip_dense(self):
        # cdf(quantile(p)) must return p to 1e-9 across the whole range,
        # including the far tails on both sides.
        ps = [i / 1000.0 for i in range(1, 1000)]
        ps += [1e-9, 1e-6, 1e-4, 0.0242, 0.0243, 0.97, 0.9999, 1 - 1e-6]
        for p in ps:
            assert ndtr(std_normal_quantile(p)) == pytest.approx(
                p, abs=1e-9)

    @given(st.floats(min_value=1e-7, max_value=1 - 1e-7))
    def test_round_trip_property(self, p):
        assert abs(ndtr(std_normal_quantile(p)) - p) < 1e-9

    @given(st.floats(min_value=1e-7, max_value=1 - 1e-7))
    def test_antisymmetry(self, p):
        assert std_normal_quantile(p) == pytest.approx(
            -std_normal_quantile(1.0 - p), abs=1e-9)

    def test_bisection_oracle(self):
        # Slow but assumption-free inverse via bisection on the CDF.
        def bisect(p):
            lo, hi = -40.0, 40.0
            for _ in range(200):
                mid = (lo + hi) / 2
                if ndtr(mid) < p:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        for p in (0.001, 0.025, 0.31, 0.5, 0.84, 0.999):
            assert std_normal_quantile(p) == pytest.approx(bisect(p), abs=1e-11)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


class TestTwoSidedP:
    def test_at_zero(self):
        assert two_sided_p(0.0) == 1.0

    def test_known_value(self):
        assert two_sided_p(1.96) == pytest.approx(0.04999579029644087, abs=1e-12)

    @given(st.floats(min_value=-50, max_value=50))
    def test_even_function(self, t):
        assert two_sided_p(t) == two_sided_p(-t)

    def test_decreasing_in_magnitude(self):
        values = [two_sided_p(t / 4.0) for t in range(0, 60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_matches_cdf_identity(self):
        for t in (0.5, 1.0, 2.4, 3.7):
            expected = 2.0 * (1.0 - ndtr(t))
            assert two_sided_p(t) == pytest.approx(expected, rel=1e-12)

    def test_extreme_statistic_keeps_precision(self):
        # erfc form stays nonzero where 2*(1 - cdf) would round to 0.
        assert 0.0 < two_sided_p(9.0) < 1e-18


class TestCriticalValue:
    def test_alpha_05_is_literal(self):
        # The screening convention quotes 1.96, not the exact quantile.
        assert critical_value(0.05) == 1.96

    def test_other_levels_exact(self):
        assert critical_value(0.01) == pytest.approx(2.5758293035489004, abs=1e-9)
        assert critical_value(0.1) == pytest.approx(1.6448536269514722, abs=1e-9)

    def test_degenerate_limit(self):
        assert critical_value(1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -0.01, 1.01, 5e-324,
                                       float("nan")])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            critical_value(alpha)


class TestOrderStatisticWidths:
    @pytest.mark.parametrize("n", [2, 4, 13, 102, 1000, 10**6])
    def test_match_scipy_quantiles(self, n):
        assert extreme_width(n) == pytest.approx(
            2.0 * ndtri((n - 0.375) / (n + 0.25)), abs=1e-9)
        assert quartile_width(n) == pytest.approx(
            2.0 * ndtri((0.75 * n - 0.125) / (n + 0.25)), abs=1e-9)

    def test_every_width_position_to_full_precision(self):
        # Each coefficient T1/T2/T3 and S1-S3 divide by is Phi^-1 at one
        # of these positions; scipy's ndtri is the oracle.
        n = np.arange(2, 100_001)
        for p in ((n - 0.375) / (n + 0.25), (0.75 * n - 0.125) / (n + 0.25)):
            got = np.array([std_normal_quantile(float(pi)) for pi in p])
            want = ndtri(p)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("alpha", [1e-300, 1e-100, 1e-17, 3e-16, 1e-9,
                                       0.001, 0.01, 0.1, 0.2, 0.5, 0.999])
    def test_critical_value_to_full_precision(self, alpha):
        # 1 - alpha/2 rounds to 1 below alpha ~ 2.2e-16; alpha/2 does not.
        assert critical_value(alpha) == pytest.approx(
            float(norm.isf(alpha / 2.0)), rel=1e-14, abs=0)

    def test_extreme_width_refuses_unrepresentable_n(self):
        # (n - 0.375)/(n + 0.25) first rounds to 1 at n = 2**52 + 1.
        assert math.isfinite(extreme_width(2**52))
        for n in (2**52 + 1, 10**17):
            with pytest.raises(ValueError, match=f"n={n} is too large"):
                extreme_width(n)

    def test_large_n_limits(self):
        # The quartile width tends to the population IQR 2 * Phi^-1(0.75);
        # the expected range keeps growing.
        assert quartile_width(10**6) == pytest.approx(
            2.0 * ndtri(0.75), abs=1e-5)
        assert extreme_width(1000) > extreme_width(100) > quartile_width(100)
