import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sumnorm import estimators
from sumnorm.estimators import (EstimatedMoments, estimate_mean_sd,
                                estimate_moments)
from sumnorm.model import (GroupRecord, QuantileSummary, Scenario,
                           UnsupportedSummaryError, classify_scenario)
from sumnorm.normal import std_normal_quantile

# Phi^-1(0.75), used to build population quartiles of N(mu, sigma^2)
_Z75 = 0.6744897501960817
# An int that is a float, while twice it is past the float range.
_BIG = int(1.7e308)


def _ordered5():
    return st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                    min_size=5, max_size=5).map(sorted)


# Summaries for the SD tests, with the median halfway between the
# quartiles (or the extremes); no SD formula reads it.
def _s1(a, b):
    return QuantileSummary(median=(a + b) / 2, min=a, max=b)


def _s2(q1, q3):
    return QuantileSummary(median=(q1 + q3) / 2, q1=q1, q3=q3)


def _s3(a, q1, q3, b):
    return QuantileSummary(median=(q1 + q3) / 2, min=a, q1=q1, q3=q3, max=b)


# The index of the mean and of the SD in an estimate_mean_sd pair, with
# the ids of the two estimators it replaced.
_HALVES = [pytest.param(0, id="estimate_mean"),
           pytest.param(1, id="estimate_sd")]


class TestSdS1:
    def test_frozen_examples(self):
        # the two min/median/max rows of the leptin table
        _, sd = estimate_mean_sd(_s1(0.4, 27.4), Scenario.S1, 23)
        assert sd == pytest.approx(6.999396763993786, abs=1e-9)
        _, sd = estimate_mean_sd(_s1(0.3, 31.3), Scenario.S1, 51)
        assert sd == pytest.approx(6.886055823202852, abs=1e-9)

    def test_inverts_expected_extremes(self):
        # plugging mu +- sigma * Phi^-1(position) back in recovers sigma
        for n in (5, 23, 100, 1000):
            z = std_normal_quantile((n - 0.375) / (n + 0.25))
            mu, sigma = 7.5, 3.25
            _, got = estimate_mean_sd(_s1(mu - sigma * z, mu + sigma * z),
                                      Scenario.S1, n)
            assert got == pytest.approx(sigma, rel=1e-12)

    def test_zero_range(self):
        assert estimate_mean_sd(_s1(5.0, 5.0), Scenario.S1, 10)[1] == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            estimate_mean_sd(_s1(0.0, 1.0), Scenario.S1, 1)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="^ordering violation: "):
            estimate_mean_sd(_s1(2.0, 1.0), Scenario.S1, 10)


class TestSdS2:
    def test_frozen_examples(self):
        _, sd = estimate_mean_sd(_s2(30, 60), Scenario.S2, 26)
        assert sd == pytest.approx(23.529996380388916, abs=1e-9)
        # worked example from the interface contract: rounds to 6.056
        _, got = estimate_mean_sd(_s2(43, 51), Scenario.S2, 70)
        assert got == pytest.approx(6.055500510645745, abs=1e-9)
        assert round(got, 3) == 6.056

    def test_population_quartile_consistency(self):
        # with exact N(mu, sigma^2) quartiles the estimate is within 2%
        # of sigma once n >= 100, tightening as n grows
        mu, sigma = 12.0, 4.0
        last_err = None
        for n in (100, 250, 1000, 10000):
            _, got = estimate_mean_sd(
                _s2(mu - sigma * _Z75, mu + sigma * _Z75), Scenario.S2, n)
            err = abs(got / sigma - 1.0)
            assert err < 0.02, (n, got)
            if last_err is not None:
                assert err < last_err
            last_err = err

    def test_inverts_expected_quartiles(self):
        for n in (4, 26, 70, 500):
            z = std_normal_quantile((0.75 * n - 0.125) / (n + 0.25))
            _, got = estimate_mean_sd(_s2(-z, z), Scenario.S2, n)
            assert got == pytest.approx(1.0, rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            estimate_mean_sd(_s2(0.0, 1.0), Scenario.S2, 3)

    def test_reversed_quartiles_rejected(self):
        with pytest.raises(ValueError, match="^ordering violation: "):
            estimate_mean_sd(_s2(2.0, 1.0), Scenario.S2, 10)


class TestSdS3:
    def test_frozen_example(self):
        _, sd = estimate_mean_sd(_s3(0, 2, 6, 10), Scenario.S3, 50)
        assert sd == pytest.approx(2.4151461926230002, abs=1e-9)

    def test_population_plugin_value(self):
        # nominal N(0,1) five-number summary with +-3 standing in for the
        # extremes; the fixed extremes bias the estimate low at large n
        # because the expected extremes keep growing
        _, got = estimate_mean_sd(_s3(-3.0, -0.6745, 0.6745, 3.0),
                                  Scenario.S3, 1000)
        assert got == pytest.approx(0.9419870145582901, abs=1e-9)

    def test_between_component_estimates(self):
        # pooling puts the S3 estimate between the S1 and S2 estimates
        s = _s3(0.0, 2.0, 6.0, 10.0)
        s1, s2, s3 = (estimate_mean_sd(s, scenario, 50)[1] for scenario in
                      (Scenario.S1, Scenario.S2, Scenario.S3))
        lo, hi = min(s1, s2), max(s1, s2)
        assert lo <= s3 <= hi

    def test_inverts_expected_summary(self):
        for n in (4, 50, 400):
            ze = std_normal_quantile((n - 0.375) / (n + 0.25))
            zq = std_normal_quantile((0.75 * n - 0.125) / (n + 0.25))
            _, got = estimate_mean_sd(_s3(-ze, -zq, zq, ze), Scenario.S3, n)
            assert got == pytest.approx(1.0, rel=1e-12)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            estimate_mean_sd(_s3(0.0, 1.0, 2.0, 3.0), Scenario.S3, 3)

    def test_disordered_rejected(self):
        with pytest.raises(ValueError, match="^ordering violation: q1 <= "
                           "median fails"):
            estimate_mean_sd(_s3(0.0, 3.0, 2.0, 5.0), Scenario.S3, 10)


class TestEstimateMean:
    def test_frozen_s1(self):
        s = QuantileSummary(median=5.3, min=0.4, max=27.4)
        assert estimate_mean_sd(s, Scenario.S1, 23)[0] == pytest.approx(
            7.671992221964471, abs=1e-9)

    def test_frozen_s2(self):
        s = QuantileSummary(median=38, q1=30, q3=60)
        mean, _ = estimate_mean_sd(s, Scenario.S2, 26)
        assert mean == pytest.approx(43.005, abs=1e-9)

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2, Scenario.S3])
    @given(mu=st.floats(-100, 100), spread=st.floats(0.01, 50),
           n=st.integers(4, 5000))
    def test_symmetric_summary_returns_median(self, scenario, mu, spread, n):
        # all weight groups sum to one, so a symmetric summary is a
        # fixed point regardless of n
        s = QuantileSummary(median=mu, min=mu - 2 * spread,
                            q1=mu - spread, q3=mu + spread,
                            max=mu + 2 * spread)
        assert estimate_mean_sd(s, scenario, n)[0] == pytest.approx(
            mu, rel=1e-9, abs=1e-9)

    @given(vals=_ordered5(), n=st.integers(4, 5000),
           c=st.floats(0.01, 100), d=st.floats(-100, 100))
    def test_location_scale_equivariance(self, vals, n, c, d):
        a, q1, m, q3, b = vals
        base = QuantileSummary(median=m, min=a, q1=q1, q3=q3, max=b)
        moved = QuantileSummary(median=c * m + d, min=c * a + d,
                                q1=c * q1 + d, q3=c * q3 + d, max=c * b + d)
        for scenario in (Scenario.S1, Scenario.S2, Scenario.S3):
            want = c * estimate_mean_sd(base, scenario, n)[0] + d
            assert estimate_mean_sd(moved, scenario, n)[0] == pytest.approx(
                want, rel=1e-9, abs=1e-6)

    def test_weight_shrinks_with_n(self):
        # as n grows the estimate moves toward the median
        s = QuantileSummary(median=0.0, min=-1.0, max=3.0)
        means = [estimate_mean_sd(s, Scenario.S1, n)[0]
                 for n in (5, 50, 500, 5000)]
        assert means == sorted(means, reverse=True)
        assert means[-1] == pytest.approx(0.0, abs=0.02)

    def test_missing_fields_rejected(self):
        s2_only = QuantileSummary(median=1.0, q1=0.0, q3=2.0)
        with pytest.raises(ValueError, match="min and max"):
            estimate_mean_sd(s2_only, Scenario.S1, 10)
        s1_only = QuantileSummary(median=1.0, min=0.0, max=2.0)
        with pytest.raises(ValueError, match="q1 and q3"):
            estimate_mean_sd(s1_only, Scenario.S2, 10)
        with pytest.raises(ValueError, match="S3 estimation needs q1 and "
                           "q3$"):
            estimate_mean_sd(s1_only, Scenario.S3, 10)

    def test_direct_has_no_estimator(self):
        s = QuantileSummary(median=1.0, min=0.0, max=2.0)
        with pytest.raises(ValueError, match="no estimator for scenario"):
            estimate_mean_sd(s, Scenario.DIRECT, 10)


class TestSharedChecks:
    # The mean and the SD of a summary are refused together, whichever
    # of the two a caller reads.
    @pytest.mark.parametrize("half", _HALVES)
    def test_missing_fields_rejected(self, half):
        s1_only = QuantileSummary(median=1.0, min=0.0, max=2.0)
        with pytest.raises(ValueError, match="q1 and q3"):
            estimate_mean_sd(s1_only, Scenario.S2, 10)[half]
        with pytest.raises(ValueError, match="S3 estimation needs q1 and "
                           "q3$"):
            estimate_mean_sd(s1_only, Scenario.S3, 10)[half]

    @pytest.mark.parametrize("half", _HALVES)
    def test_each_missing_field_named(self, half):
        s = QuantileSummary(median=1.0, min=0.0)
        with pytest.raises(ValueError, match="S3 .* needs q1, q3 and max$"):
            estimate_mean_sd(s, Scenario.S3, 10)[half]
        with pytest.raises(ValueError, match="S1 .* needs max$"):
            estimate_mean_sd(s, Scenario.S1, 10)[half]

    @pytest.mark.parametrize("half", _HALVES)
    def test_unordered_rejected(self, half):
        # the median lies outside the range it sits in
        s = QuantileSummary(median=5.0, min=0.0, q1=1.0, q3=2.0, max=3.0)
        for scenario in (Scenario.S1, Scenario.S2, Scenario.S3):
            with pytest.raises(ValueError, match="^ordering violation: "):
                estimate_mean_sd(s, scenario, 10)[half]

    @pytest.mark.parametrize("half", _HALVES)
    @pytest.mark.parametrize("scenario,n_min", [(Scenario.S1, 2),
                                                (Scenario.S2, 4),
                                                (Scenario.S3, 4)])
    def test_n_below_minimum_rejected(self, half, scenario, n_min):
        s = QuantileSummary(median=2.0, min=0.0, q1=1.0, q3=3.0, max=4.0)
        with pytest.raises(ValueError, match=rf"^n >= {n_min} required "
                           rf"with (quartiles|extremes), got n={n_min - 1}$"):
            estimate_mean_sd(s, scenario, n_min - 1)[half]
        assert math.isfinite(estimate_mean_sd(s, scenario, n_min)[half])

    @pytest.mark.parametrize("half", _HALVES)
    def test_direct_has_no_estimator(self, half):
        s = QuantileSummary(median=1.0, min=0.0, max=2.0)
        with pytest.raises(ValueError, match="no estimator"):
            estimate_mean_sd(s, Scenario.DIRECT, 10)[half]

    @pytest.mark.parametrize("scenario,n,fields", [
        (Scenario.S3, 2.5, dict(min=0.0, q1=1.0, median=2.0, q3=3.0,
                                max=4.0)),
        (Scenario.S1, 10**400, dict(min=0.0, median=1.0, max=2.0)),
        (Scenario.S1, 1, dict(min=2.0, median=1.0, max=0.0)),
        (Scenario.S2, 3, dict(q1=1.0, median=2.0, q3=3.0)),
        (Scenario.S2, 10, dict(q1=1.0, median=math.nan, q3=3.0)),
        (Scenario.S1, 10, dict(min=-math.inf, median=1.0, max=2.0))],
        ids=["fraction", "huge-n", "unordered-and-small", "small", "nan",
             "inf"])
    def test_refusal_is_validates(self, scenario, n, fields):
        # validate judges a summary and its n for both callers: the
        # estimator refuses in its words, all of them.
        s = QuantileSummary(**fields)
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=n,
                        summary=s)
        with pytest.raises(UnsupportedSummaryError) as validated:
            classify_scenario(g)
        with pytest.raises(ValueError) as estimated:
            estimate_mean_sd(s, scenario, n)
        assert str(estimated.value) == str(validated.value)


class TestSdEquivariance:
    @given(vals=_ordered5(), n=st.integers(4, 5000), c=st.floats(0.01, 100))
    def test_scale_equivariance(self, vals, n, c):
        a, q1, m, q3, b = vals
        base = QuantileSummary(median=m, min=a, q1=q1, q3=q3, max=b)
        scaled = QuantileSummary(median=c * m, min=c * a, q1=c * q1,
                                 q3=c * q3, max=c * b)
        for scenario in (Scenario.S1, Scenario.S2, Scenario.S3):
            assert estimate_mean_sd(scaled, scenario, n)[1] == pytest.approx(
                c * estimate_mean_sd(base, scenario, n)[1], rel=1e-12, abs=1e-9)

    @given(vals=_ordered5(), n=st.integers(4, 5000), d=st.floats(-500, 500))
    def test_shift_invariance(self, vals, n, d):
        a, q1, m, q3, b = vals
        base = QuantileSummary(median=m, min=a, q1=q1, q3=q3, max=b)
        shifted = QuantileSummary(median=m + d, min=a + d, q1=q1 + d,
                                  q3=q3 + d, max=b + d)
        for scenario in (Scenario.S1, Scenario.S2):
            assert estimate_mean_sd(shifted, scenario, n)[1] == pytest.approx(
                estimate_mean_sd(base, scenario, n)[1], rel=1e-12, abs=1e-9)


class TestEstimateMoments:
    def test_reported_passthrough(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=20,
                        reported_mean=3.5, reported_sd=1.25)
        got = estimate_moments(g, classify_scenario(g))
        assert got == EstimatedMoments(mean=3.5, sd=1.25, source="reported")
        assert got.scenario is None

    def test_s1_dispatch(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=23,
                        summary=QuantileSummary(median=5.3, min=0.4,
                                                max=27.4))
        got = estimate_moments(g, classify_scenario(g))
        assert got.source == "estimated"
        assert got.scenario is Scenario.S1
        assert got.mean == pytest.approx(7.671992221964471, abs=1e-9)
        assert got.sd == pytest.approx(6.999396763993786, abs=1e-9)

    def test_s2_dispatch(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=26,
                        summary=QuantileSummary(median=38, q1=30, q3=60))
        got = estimate_moments(g, classify_scenario(g))
        assert got.scenario is Scenario.S2
        assert got.mean == pytest.approx(43.005, abs=1e-9)
        assert got.sd == pytest.approx(23.529996380388916, abs=1e-9)

    def test_s3_dispatch(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=50,
                        summary=QuantileSummary(median=4, min=0, q1=2,
                                                q3=6, max=10))
        got = estimate_moments(g, classify_scenario(g))
        assert got.scenario is Scenario.S3
        assert got.sd == pytest.approx(2.4151461926230002, abs=1e-9)

    def test_unclassifiable_propagates(self):
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=20)
        with pytest.raises(ValueError):
            estimate_moments(g, classify_scenario(g))
        # Summary ints past the float range raised OverflowError from
        # the estimators; validation now refuses them in words.
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=20,
                        summary=QuantileSummary(min=1, median=10**400,
                                                max=10**400))
        with pytest.raises(ValueError, match="overflow the float range"):
            estimate_moments(g, classify_scenario(g))

    @pytest.mark.parametrize("fields", [
        dict(min=-_BIG, median=0, max=_BIG),
        dict(q1=-_BIG, median=0, q3=_BIG),
        dict(min=-_BIG, q1=-_BIG, median=0, q3=_BIG, max=_BIG),
    ], ids=["s1", "s2", "s3"])
    def test_int_summary_spread_past_the_float_range(self, fields):
        # Each int is a float, but b - a is not: the estimate raised
        # OverflowError from int arithmetic before it read floats.
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=20,
                        summary=QuantileSummary(**fields))
        with pytest.raises(ValueError, match="^estimated SD is inf: the "
                           "summary values overflow the float range$"):
            estimate_moments(g, classify_scenario(g))

    @pytest.mark.parametrize("fields", [
        dict(min=0.5, median=1.0, max=4.0),
        dict(q1=0.75, median=1.0, q3=2.0),
        dict(min=0.5, q1=0.75, median=1.0, q3=2.0, max=4.0),
    ], ids=["s1", "s2", "s3"])
    def test_classified_group_judged_once(self, monkeypatch, fields):
        # classify_scenario has judged the group: its estimate is
        # estimate_mean_sd's, without a second summary_violations.
        g = GroupRecord(study_id="s", group_label="g", arm="case", n=30,
                        summary=QuantileSummary(**fields))
        scenario = classify_scenario(g)
        want = estimate_mean_sd(g.summary, scenario, g.n)
        monkeypatch.setattr(estimators, "summary_violations", None)
        got = estimate_moments(g, scenario)
        assert (got.mean, got.sd, got.scenario) == (*want, scenario)

    def test_scenario_not_the_groups_judged_as_any_summary(self):
        # A scenario that is not the group's classification is refused,
        # or estimated, as estimate_mean_sd refuses or estimates it.
        s1 = GroupRecord(study_id="s", group_label="g", arm="case", n=30,
                         summary=QuantileSummary(min=0.5, median=1.0,
                                                 max=4.0))
        for scenario in (Scenario.S2, Scenario.S3):
            with pytest.raises(ValueError, match=rf"^{scenario.value} "
                               "estimation needs q1 and q3$"):
                estimate_moments(s1, scenario)
        s3 = GroupRecord(study_id="s", group_label="g", arm="case", n=30,
                         summary=QuantileSummary(min=0.5, q1=0.75, median=1.0,
                                                 q3=2.0, max=4.0))
        got = estimate_moments(s3, Scenario.S1)
        assert (got.mean, got.sd) == estimate_mean_sd(s3.summary,
                                                      Scenario.S1, 30)
        with pytest.raises(ValueError, match="^n >= 2 required with "
                           "extremes, got n=1$"):
            estimate_moments(GroupRecord(study_id="s", group_label="g",
                                         arm="case", n=1,
                                         summary=s3.summary), Scenario.S1)

    def test_summary_past_the_float_range_refused_in_words(self):
        # Unvalidated, such a summary used to raise OverflowError.  The
        # summary holds the int as inf, which validate's rule refuses.
        s = QuantileSummary(min=1, median=2, max=10**400)
        with pytest.raises(ValueError, match="^the summary values overflow "
                           "the float range$"):
            estimate_mean_sd(s, Scenario.S1, 20)

    @pytest.mark.parametrize("scenario", [Scenario.S1, Scenario.S2,
                                          Scenario.S3])
    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, 0, -10**5000],
                             ids=["2.5", "nan", "inf", "0", "-5001-digits"])
    def test_n_not_a_positive_integer_refused_in_validate_words(self, n,
                                                                scenario):
        # 2.5 was estimated, nan blamed p, inf was an overflow, and 0
        # and -10**5000 were formatted, the latter past str()'s limit.
        s = QuantileSummary(median=2.0, min=0.0, q1=1.0, q3=3.0, max=4.0)
        with pytest.raises(ValueError,
                           match="^n must be a positive integer$"):
            estimate_mean_sd(s, scenario, n)

    @pytest.mark.parametrize("n", [10**400, 10**5000],
                             ids=["400-digits", "5001-digits"])
    def test_n_past_the_float_range_refused_in_words(self, n):
        # n ** 0.75 raised OverflowError; the words do not format n,
        # whose str() fails past 4300 digits.
        s = QuantileSummary(min=0.0, median=1.0, max=2.0)
        with pytest.raises(ValueError,
                           match="^n overflows the float range$"):
            estimate_mean_sd(s, Scenario.S1, n)
