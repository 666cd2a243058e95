import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sumnorm.model import (GroupRecord, QuantileSummary, Scenario,
                           UnsupportedSummaryError)
from sumnorm.symmetry import (FORMULAS, KAPPA_C, READS, DegenerateSummaryError,
                              coeff_kappa, coeff_phi, coeff_tau,
                              format_p_value, format_statistic, run_test,
                              statistic)


def _record(**kwargs) -> GroupRecord:
    defaults = dict(study_id="s", group_label="g", arm="case")
    defaults.update(kwargs)
    return GroupRecord(**defaults)


def _s1(a, m, b, n) -> GroupRecord:
    return _record(n=n, summary=QuantileSummary(median=m, min=a, max=b))


def _s2(q1, m, q3, n) -> GroupRecord:
    return _record(n=n, summary=QuantileSummary(median=m, q1=q1, q3=q3))


def _s3(a, q1, m, q3, b, n) -> GroupRecord:
    return _record(n=n, summary=QuantileSummary(median=m, min=a, q1=q1,
                                                q3=q3, max=b))


class TestCoefficients:
    def test_tau_frozen(self):
        assert coeff_tau(23) == pytest.approx(4.743883933900289, abs=1e-9)
        assert coeff_tau(1000) == pytest.approx(13.140628838145599, abs=1e-9)

    def test_phi_frozen(self):
        assert coeff_phi(4) == pytest.approx(0.9981172096072395, abs=1e-9)
        assert coeff_phi(13) == pytest.approx(2.3659161775294413, abs=1e-9)

    def test_kappa_frozen(self):
        assert coeff_kappa(100) == pytest.approx(9.342371501262242, abs=1e-9)
        assert coeff_kappa(60) == pytest.approx(7.8646576522789555, abs=1e-9)

    def test_default_constant(self):
        assert KAPPA_C == 10.14

    @pytest.mark.parametrize("coeff,start", [(coeff_tau, 2), (coeff_phi, 4),
                                             (coeff_kappa, 4)])
    def test_monotone_in_n(self, coeff, start):
        grid = [coeff(n) for n in range(start, 2000, 37)]
        assert grid == sorted(grid)
        assert grid[0] > 0.0

    def test_tau_domain(self):
        with pytest.raises(ValueError, match="n >= 2"):
            coeff_tau(1)

    @pytest.mark.parametrize("coeff", [coeff_phi, coeff_kappa])
    def test_quartile_domain(self, coeff):
        with pytest.raises(ValueError, match="n >= 4"):
            coeff(3)


class TestS1:
    def test_table_row(self):
        # asthma arm of the min/median/max study with n=23
        r = run_test(_s1(0.4, 5.3, 27.4, 23))
        assert r.scenario is Scenario.S1
        assert r.statistic == pytest.approx(3.0220297652994423, abs=1e-9)
        assert r.p_value == pytest.approx(0.0025108585729653674, abs=1e-12)
        assert r.reject is True
        assert r.n == 23
        assert r.alpha == 0.05

    def test_symmetric_input(self):
        r = run_test(_s1(-2.0, 0.0, 2.0, 50))
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert r.reject is False

    def test_alpha_passthrough(self):
        skewed = run_test(_s1(0.0, 1.0, 10.0, 30), alpha=0.5)
        assert skewed.alpha == 0.5

    def test_ordering_rejected(self):
        with pytest.raises(UnsupportedSummaryError,
                           match="ordering violation"):
            run_test(_s1(0.0, 5.0, 3.0, 20))

    def test_degenerate_range(self):
        with pytest.raises(DegenerateSummaryError, match="b - a = 0"):
            run_test(_s1(2.0, 2.0, 2.0, 20))


class TestS2:
    def test_near_symmetric_table_row(self):
        # healthy arm whose quartiles are symmetric up to float noise;
        # the table keeps the scientific-notation artifact
        r = run_test(_s2(0.4, 0.6, 0.8, 32))
        assert r.statistic == pytest.approx(2.205316697617185e-15, abs=1e-20)
        assert format_statistic(r.statistic) == "2.205e-15"
        assert r.p_value == pytest.approx(1.0, abs=1e-12)
        assert r.reject is False

    def test_skewed_input_rejects(self):
        # quartile row with a right-shifted median gap at n=100
        r = run_test(_s2(7.6, 9.6, 16.25, 100))
        assert r.statistic > 1.96
        assert r.reject is True

    def test_mild_asymmetry_retained(self):
        # skew is visible but the statistic stays under the cutoff
        r = run_test(_s2(30.0, 38.0, 60.0, 26))
        assert 0.0 < r.statistic < 1.96
        assert r.reject is False

    def test_ordering_rejected(self):
        with pytest.raises(UnsupportedSummaryError,
                           match="ordering violation"):
            run_test(_s2(0.0, 5.0, 3.0, 20))

    def test_degenerate_iqr(self):
        with pytest.raises(DegenerateSummaryError, match="q3 - q1 = 0"):
            run_test(_s2(2.0, 2.0, 2.0, 20))


class TestS3:
    def test_worked_example(self):
        r = run_test(_s3(0.0, 1.0, 2.0, 5.0, 20.0, 60))
        assert r.statistic == pytest.approx(5.898493239209216, abs=1e-9)
        assert r.reject is True

    def test_antisymmetric_population_quantiles(self):
        r = run_test(_s3(-3.0, -0.6745, 0.0, 0.6745, 3.0, 200))
        assert r.statistic == 0.0
        assert r.p_value == 1.0
        assert r.reject is False

    def test_ordering_rejected(self):
        with pytest.raises(UnsupportedSummaryError,
                           match="ordering violation"):
            run_test(_s3(0.0, 3.0, 2.0, 5.0, 20.0, 60))

    def test_degenerate_spread(self):
        with pytest.raises(DegenerateSummaryError, match="both zero"):
            run_test(_s3(1.0, 1.0, 1.0, 1.0, 1.0, 20))


class TestStatistic:
    _ROWS = np.array([[1.0, 3.0, 4.0, 6.0, 12.0],
                      [0.5, 2.0, 2.5, 3.0, 4.5],
                      [-3.0, -1.0, 0.25, 0.5, 2.0]])

    def test_arrays_match_scalar_tests_bitwise(self):
        n = 37
        a, q1, m, q3, b = self._ROWS.T
        s1 = statistic(Scenario.S1, a, q1, m, q3, b, n)
        s2 = statistic(Scenario.S2, a, q1, m, q3, b, n)
        s3 = statistic(Scenario.S3, a, q1, m, q3, b, n)
        for i, row in enumerate(self._ROWS.tolist()):
            ra, rq1, rm, rq3, rb = row
            assert s1[i] == run_test(_s1(ra, rm, rb, n)).statistic
            assert s2[i] == run_test(_s2(rq1, rm, rq3, n)).statistic
            assert s3[i] == run_test(_s3(ra, rq1, rm, rq3, rb, n)).statistic

    def test_direct_scenario_rejected(self):
        with pytest.raises(ValueError, match="no test statistic"):
            statistic(Scenario.DIRECT, 1.0, 2.0, 3.0, 4.0, 5.0, 20)

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2,
                                          Scenario.S3])
    def test_reads_are_the_positions_the_statistic_reads(self, scenario):
        # NaN in every position outside READS leaves the statistic
        # finite; NaN in any one position of it makes the statistic NaN.
        reads = READS[scenario]
        assert list(reads) == sorted(set(reads))
        row = self._ROWS[0]
        unread = row.copy()
        unread[[i for i in range(5) if i not in reads]] = np.nan
        assert math.isfinite(statistic(scenario, *unread, 37))
        for i in reads:
            one = row.copy()
            one[i] = np.nan
            assert math.isnan(statistic(scenario, *one, 37)), i


    @pytest.mark.parametrize("scenario,coeff", [
        (Scenario.S1, coeff_tau), (Scenario.S2, coeff_phi),
        (Scenario.S3, coeff_kappa)])
    def test_weights_are_those_of_the_formula(self, scenario, coeff):
        # The contrast (statistic * spread / coefficient) and the spread
        # are linear in the summary values; the row's weights are the
        # sums of their coefficients' magnitudes.
        coefficient, _, spread, weights = FORMULAS[scenario]
        assert coefficient is coeff

        def contrast(values):
            return (statistic(scenario, *values, 37) * spread(*values)
                    / coeff(37))

        base = np.arange(5.0)
        steps = [base + np.eye(5)[i] for i in range(5)]
        got = (sum(abs(contrast(v) - contrast(base)) for v in steps),
               sum(abs(spread(*v) - spread(*base)) for v in steps))
        assert got == pytest.approx(weights, abs=1e-12)


class TestOverflow:
    # a + b overflows to inf and a + b - 2m to nan; |nan| > crit is
    # False, so without the check the test would "retain".
    @pytest.mark.parametrize("run,error", [
        (lambda: run_test(_s1(1e308, 1.5e308, 1.7e308, 20)),
         DegenerateSummaryError),
        (lambda: run_test(_s2(1e308, 1.5e308, 1.7e308, 20)),
         DegenerateSummaryError),
        (lambda: run_test(_s3(1e308, 1.2e308, 1.5e308, 1.6e308, 1.7e308, 20)),
         DegenerateSummaryError),
        # Python ints beyond the float range, as a library caller may
        # pass: validation refuses them before any arithmetic.
        (lambda: run_test(_s1(1, 10**400, 10**400, 20)),
         UnsupportedSummaryError),
    ], ids=["s1", "s2", "s3", "s1-int"])
    def test_non_finite_statistic_is_refused_in_words(self, run, error):
        with pytest.raises(error, match="overflow the float range"):
            run()

    # A zero spread is a zero spread even where the contrast over it
    # overflows to nan: float division by 0 raises either way.
    @pytest.mark.parametrize("run,words", [
        (lambda: run_test(_s1(1e308, 1e308, 1e308, 20)), "b - a = 0"),
        (lambda: run_test(_s2(1e308, 1e308, 1e308, 20)), "q3 - q1 = 0"),
        (lambda: run_test(_s3(*[1e308] * 5, 20)), "both zero"),
    ], ids=["s1", "s2", "s3"])
    def test_zero_spread_over_nan_contrast_is_degenerate(self, run, words):
        with pytest.raises(DegenerateSummaryError, match=words):
            run()

    def test_coefficient_refusal_comes_before_zero_spread(self):
        # The statistic forms tau(n) before it divides, so a degenerate
        # range at an n whose expected range rounds away reports n.
        with pytest.raises(ValueError, match="too large") as info:
            run_test(_s1(2.0, 2.0, 2.0, 2**52 + 1))
        assert not isinstance(info.value, DegenerateSummaryError)


class TestRunTest:
    def test_direct_returns_none(self):
        g = _record(n=20, reported_mean=1.0, reported_sd=2.0)
        assert run_test(g) is None

    def test_s1_dispatch(self):
        g = _record(n=23, summary=QuantileSummary(median=5.3, min=0.4,
                                                  max=27.4))
        r = run_test(g)
        assert r.scenario is Scenario.S1
        assert r.statistic == statistic(Scenario.S1, 0.4, None, 5.3, None,
                                        27.4, 23)

    def test_s2_dispatch(self):
        g = _record(n=26, summary=QuantileSummary(median=38, q1=30,
                                                  q3=60))
        r = run_test(g)
        assert r.scenario is Scenario.S2
        assert r.statistic == statistic(Scenario.S2, None, 30, 38, 60, None,
                                        26)

    def test_s3_dispatch_with_options(self):
        g = _record(n=60, summary=QuantileSummary(median=2, min=0, q1=1,
                                                  q3=5, max=20))
        r = run_test(g, alpha=0.01)
        assert r.scenario is Scenario.S3
        assert r.statistic == statistic(Scenario.S3, 0, 1, 2, 5, 20, 60)
        assert r.alpha == 0.01
        assert r.n == 60

    def test_unsupported_summary_propagates(self):
        g = _record(n=20, summary=QuantileSummary(median=5.0, min=1.0))
        with pytest.raises(ValueError):
            run_test(g)


def _triple():
    return st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                     st.floats(-1e3, 1e3)).map(sorted)


class TestInvariance:
    @given(t=_triple(), n=st.integers(2, 5000),
           c=st.floats(0.01, 100), d=st.floats(-100, 100))
    def test_s1_location_scale_invariant(self, t, n, c, d):
        a, m, b = t
        assume(b - a > 1e-6 * max(1.0, abs(a), abs(b)))
        base = run_test(_s1(a, m, b, n)).statistic
        moved = run_test(_s1(c * a + d, c * m + d, c * b + d, n)).statistic
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(t=_triple(), n=st.integers(4, 5000),
           c=st.floats(0.01, 100), d=st.floats(-100, 100))
    def test_s2_location_scale_invariant(self, t, n, c, d):
        q1, m, q3 = t
        assume(q3 - q1 > 1e-6 * max(1.0, abs(q1), abs(q3)))
        base = run_test(_s2(q1, m, q3, n)).statistic
        moved = run_test(_s2(c * q1 + d, c * m + d, c * q3 + d, n)).statistic
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(t=_triple(), n=st.integers(2, 5000))
    def test_s1_reflection_antisymmetry(self, t, n):
        a, m, b = t
        assume(b - a > 1e-6 * max(1.0, abs(a), abs(b)))
        base = run_test(_s1(a, m, b, n)).statistic
        mirrored = run_test(_s1(-b, -m, -a, n)).statistic
        assert mirrored == pytest.approx(-base, rel=1e-12, abs=1e-12)

    @given(t=_triple(), n=st.integers(4, 5000))
    def test_s2_reflection_antisymmetry(self, t, n):
        q1, m, q3 = t
        assume(q3 - q1 > 1e-6 * max(1.0, abs(q1), abs(q3)))
        base = run_test(_s2(q1, m, q3, n)).statistic
        mirrored = run_test(_s2(-q3, -m, -q1, n)).statistic
        assert mirrored == pytest.approx(-base, rel=1e-12, abs=1e-12)

    @given(vals=st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5)
           .map(sorted), n=st.integers(4, 5000))
    def test_s3_reflection_antisymmetry(self, vals, n):
        a, q1, m, q3, b = vals
        assume((b - a) + (q3 - q1) > 1e-6 * max(1.0, abs(a), abs(b)))
        base = run_test(_s3(a, q1, m, q3, b, n)).statistic
        mirrored = run_test(_s3(-b, -q3, -m, -q1, -a, n)).statistic
        assert mirrored == pytest.approx(-base, rel=1e-12, abs=1e-12)

    @given(t=_triple(), n=st.integers(2, 5000),
           alpha=st.floats(0.001, 0.5))
    def test_reject_implies_small_p(self, t, n, alpha):
        a, m, b = t
        assume(b - a > 1e-6 * max(1.0, abs(a), abs(b)))
        r = run_test(_s1(a, m, b, n), alpha=alpha)
        if r.reject:
            assert r.p_value < r.alpha

    @given(t=_triple(), n=st.integers(2, 5000))
    def test_statistic_bounded_by_coefficient(self, t, n):
        # |a + b - 2m| <= b - a whenever a <= m <= b
        a, m, b = t
        assume(b - a > 1e-6 * max(1.0, abs(a), abs(b)))
        r = run_test(_s1(a, m, b, n))
        assert abs(r.statistic) <= coeff_tau(n) * (1.0 + 1e-12)

    @given(vals=st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5)
           .map(sorted), n=st.integers(4, 5000))
    def test_every_statistic_bounded_by_its_coefficient(self, vals, n):
        # a <= q1 <= m <= q3 <= b bounds each contrast by the width it is
        # divided by, so |T1| <= tau(n), |T2| <= phi(n), |T3| <= kappa(n).
        a, q1, m, q3, b = vals
        scale = max(1.0, abs(a), abs(b))
        for scenario, width, coeff in (
                (Scenario.S1, b - a, coeff_tau(n)),
                (Scenario.S2, q3 - q1, coeff_phi(n)),
                (Scenario.S3, (b - a) + (q3 - q1), coeff_kappa(n))):
            if width > 1e-6 * scale:
                t = statistic(scenario, a, q1, m, q3, b, n)
                assert abs(t) <= coeff * (1.0 + 1e-12)


class TestFormatting:
    @pytest.mark.parametrize("value,text", [
        (3.0220297652994423, "3.022"),
        (0.0, "0.000"),
        (-1.2345678, "-1.235"),
        (2.205316697617185e-15, "2.205e-15"),
        (-5e-7, "-5.000e-07"),
        (1e-6, "0.000"),
    ])
    def test_statistic(self, value, text):
        assert format_statistic(value) == text

    @pytest.mark.parametrize("value,text", [
        (0.0025108585729653674, "0.003"),
        (1.0, "1.000"),
        (0.001, "0.001"),
        (0.0009999, "<0.001"),
        (0.0, "<0.001"),
    ])
    def test_p_value(self, value, text):
        assert format_p_value(value) == text
