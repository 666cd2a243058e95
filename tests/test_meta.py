import builtins
import functools
import json
import math
import operator
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from sumnorm import model
from sumnorm.estimators import estimate_mean_sd, estimate_moments

from sumnorm.meta import (EffectSize, GroupTest, PipelineReport, PooledResult,
                          StudyEntry, chi_square_sf, cohen_d, pool,
                          report_to_dict, run_pipeline)
from sumnorm.model import (GroupRecord, QuantileSummary, Scenario, Study,
                           classify_scenario, parse_studies)
from sumnorm.plots import curve_svg, forest_svg
from sumnorm.symmetry import run_test, statistic

from strategies import NUMBERS, SIZES


class TestChiSquareSf:
    @pytest.mark.parametrize("df", [*range(1, 31), 45, 120, 500])
    def test_matches_scipy_grid(self, df):
        for x in (0.05, 0.5, 1.0, 2.3, 5.0, 7.7, 10.0, 20.0, 35.41, 50.0,
                  89.76, 120.0, 300.0, 700.0, 1200.0, 1800.0):
            want = chi2.sf(x, df)
            assert chi_square_sf(x, df) == pytest.approx(want, rel=1e-10,
                                                         abs=0.0)

    def test_at_zero(self):
        assert chi_square_sf(0.0, 5) == 1.0

    def test_deep_tail(self):
        # log-space terms keep full relative accuracy far out
        assert chi_square_sf(200.0, 3) == pytest.approx(
            chi2.sf(200.0, 3), rel=1e-8)

    def test_bad_df(self):
        with pytest.raises(ValueError, match="df"):
            chi_square_sf(1.0, 0)

    @pytest.mark.parametrize("df", [2.5, 3.0])
    def test_non_integer_df(self, df):
        # The finite sum holds for integer df only; pool passes len - 1.
        with pytest.raises(ValueError, match="integer"):
            chi_square_sf(1.0, df)

    def test_negative_x(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 3)

    @given(x=st.floats(0.001, 300), df=st.integers(1, 60))
    def test_is_probability_and_decreasing(self, x, df):
        p = chi_square_sf(x, df)
        assert 0.0 <= p <= 1.0
        assert chi_square_sf(x + 1.0, df) <= p + 1e-12


class TestCohenD:
    def test_frozen_example(self):
        # equal arms of 10 with pooled variance 5 and mean gap 6
        e = cohen_d(10, 6.0, math.sqrt(5), 10, 0.0, math.sqrt(5))
        assert e.smd == pytest.approx(6 / math.sqrt(5), rel=1e-12)
        assert e.se == pytest.approx(math.sqrt(0.38), rel=1e-12)
        assert e.ci_low == pytest.approx(e.smd - 1.96 * e.se, rel=1e-12)
        assert e.ci_high == pytest.approx(e.smd + 1.96 * e.se, rel=1e-12)
        assert (e.n_case, e.n_control) == (10, 10)

    def test_unequal_arm_se(self):
        e = cohen_d(40, 1.0, 1.0, 10, 0.0, 1.0)
        want_se = math.sqrt(50 / 400 + e.smd ** 2 / 100)
        assert e.se == pytest.approx(want_se, rel=1e-12)

    def test_antisymmetry(self):
        a = cohen_d(12, 3.0, 1.5, 18, 1.0, 2.0)
        b = cohen_d(18, 1.0, 2.0, 12, 3.0, 1.5)
        assert b.smd == pytest.approx(-a.smd, rel=1e-12)
        assert b.se == pytest.approx(a.se, rel=1e-12)

    def test_hedges_shrinks(self):
        plain = cohen_d(10, 2.0, 1.0, 10, 0.0, 1.0)
        small = cohen_d(10, 2.0, 1.0, 10, 0.0, 1.0, hedges=True)
        assert small.smd == pytest.approx(plain.smd * (1 - 3 / 71), rel=1e-12)
        assert abs(small.smd) < abs(plain.smd)

    def test_zero_difference(self):
        e = cohen_d(10, 5.0, 2.0, 10, 5.0, 2.0)
        assert e.smd == 0.0

    def test_tiny_groups_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            cohen_d(1, 1.0, 1.0, 10, 0.0, 1.0)
        with pytest.raises(ValueError, match="n >= 2"):
            cohen_d(10, 1.0, 1.0, 1, 0.0, 1.0)

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cohen_d(10, 1.0, -1.0, 10, 0.0, 1.0)

    def test_zero_pooled_sd_rejected(self):
        with pytest.raises(ValueError, match="pooled SD is zero"):
            cohen_d(10, 1.0, 0.0, 10, 0.0, 0.0)

    @pytest.mark.parametrize("moments", [
        (5.0, 1e200, 4.0, 1e200),                   # a float SD squared
        (5, 10**200, 4, 10**200),                   # an int variance
        (int(1.7e308), 1, -int(1.7e308), 1),        # an int mean gap
    ], ids=["float-sd", "int-sd", "int-mean"])
    def test_overflow_refused_in_words(self, moments):
        # Each raised OverflowError from the arithmetic.
        mean_case, sd_case, mean_control, sd_control = moments
        with pytest.raises(ValueError,
                           match="^the moments overflow the float range$"):
            cohen_d(20, mean_case, sd_case, 20, mean_control, sd_control)


def _effect(smd: float, se: float) -> EffectSize:
    return EffectSize(smd=smd, se=se, ci_low=smd - 1.96 * se,
                      ci_high=smd + 1.96 * se, n_case=10, n_control=10)


def _effects_strategy():
    return st.lists(
        st.builds(_effect, st.floats(-3, 3), st.floats(0.05, 1.0)),
        min_size=1, max_size=12)


def _left_fold(values, start=0):
    # Builtin sum as it is before Python 3.12: one addition at a time.
    return functools.reduce(operator.add, values, start)


class TestPool:
    def test_same_floats_under_a_compensated_sum(self, monkeypatch):
        # Python 3.12's builtin sum compensates float rounding; pool adds
        # left to right on every version, so an fsum in place of the
        # builtin changes nothing.  The weighted terms here are ones the
        # two summations round differently.
        effects = [_effect(-0.1, 0.26), _effect(-0.7, 0.18),
                   _effect(1.0, 0.13), _effect(-0.3, 0.23)]
        terms = [1.0 / e.se ** 2 * e.smd for e in effects]
        assert math.fsum(terms) != _left_fold(terms)
        for model in ("fixed", "random"):
            monkeypatch.setattr(builtins, "sum", _left_fold)
            want = pool(effects, model=model)
            monkeypatch.setattr(builtins, "sum", math.fsum)
            got = pool(effects, model=model)
            monkeypatch.undo()
            assert got == want

    def test_frozen_two_study_example(self):
        effects = [_effect(0.5, 0.2), _effect(1.0, 0.25)]
        fixed = pool(effects, model="fixed")
        assert fixed.smd == pytest.approx(0.6951219512195121, rel=1e-12)
        assert fixed.q_stat == pytest.approx(2.4390243902439024, rel=1e-12)
        assert fixed.q_p == pytest.approx(0.11834981273562842, rel=1e-10)
        assert fixed.i_squared == pytest.approx(59.0, rel=1e-12)
        random = pool(effects, model="random")
        assert random.tau_squared == pytest.approx(0.07375, rel=1e-10)
        assert random.smd == pytest.approx(0.7275, rel=1e-10)
        assert random.weights == pytest.approx((0.545, 0.455), rel=1e-10)
        assert random.ci_low == pytest.approx(
            0.7275 - 1.96 * 0.24898544134145673, rel=1e-9)

    def test_single_effect(self):
        (e,) = [_effect(0.8, 0.3)]
        p = pool([e])
        assert p.smd == pytest.approx(0.8, rel=1e-12)
        assert p.q_stat == 0.0
        assert p.q_p == 1.0
        assert p.i_squared == 0.0
        assert p.tau_squared == 0.0
        assert p.weights == (1.0,)

    def test_identical_effects_have_no_heterogeneity(self):
        p = pool([_effect(0.5, 0.2)] * 4)
        assert p.q_stat == pytest.approx(0.0, abs=1e-12)
        assert p.tau_squared == 0.0
        assert p.i_squared == 0.0
        assert p.smd == pytest.approx(0.5, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pool([])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            pool([_effect(0.5, 0.2)], model="bayes")

    @given(effects=_effects_strategy())
    def test_weights_sum_to_one(self, effects):
        for model in ("fixed", "random"):
            p = pool(effects, model=model)
            assert sum(p.weights) == pytest.approx(1.0, rel=1e-9)
            assert all(w > 0 for w in p.weights)

    @given(effects=_effects_strategy())
    def test_pooled_contained_in_observed_range(self, effects):
        for model in ("fixed", "random"):
            p = pool(effects, model=model)
            lo = min(e.smd for e in effects) - 1e-9
            hi = max(e.smd for e in effects) + 1e-9
            assert lo <= p.smd <= hi

    @given(effects=_effects_strategy())
    def test_random_ci_at_least_as_wide(self, effects):
        fixed = pool(effects, model="fixed")
        random = pool(effects, model="random")
        fixed_width = fixed.ci_high - fixed.ci_low
        random_width = random.ci_high - random.ci_low
        assert random_width >= fixed_width - 1e-12

    @given(effects=_effects_strategy())
    def test_i_squared_range_and_q_p(self, effects):
        p = pool(effects)
        assert 0.0 <= p.i_squared < 100.0
        assert 0.0 <= p.q_p <= 1.0
        assert p.tau_squared >= 0.0


def _direct_study(study_id, outcome, n1, m1, s1, n2, m2, s2):
    case = GroupRecord(study_id=study_id, group_label="case", arm="case",
                       n=n1, reported_mean=m1, reported_sd=s1)
    control = GroupRecord(study_id=study_id, group_label="control",
                          arm="control", n=n2, reported_mean=m2,
                          reported_sd=s2)
    return Study(study_id=study_id, outcome_label=outcome,
                 case_groups=(case,), control_groups=(control,))


def _summary_study(study_id, outcome, case, control):
    """A two-group study; ``case`` and ``control`` are (n, summary)."""
    (n_case, case_summary), (n_control, control_summary) = case, control
    case = GroupRecord(study_id=study_id, group_label="case", arm="case",
                       n=n_case, summary=case_summary)
    control = GroupRecord(study_id=study_id, group_label="control",
                          arm="control", n=n_control,
                          summary=control_summary)
    return Study(study_id=study_id, outcome_label=outcome,
                 case_groups=(case,), control_groups=(control,))


_SYMMETRIC = (40, QuantileSummary(median=5.0, q1=4.0, q3=6.0))
_SKEWED = (100, QuantileSummary(median=9.6, q1=7.6, q3=16.25))


class TestRunPipeline:
    def test_direct_studies_pool(self):
        studies = [_direct_study("a", "o", 20, 5.0, 2.0, 20, 4.0, 2.0),
                   _direct_study("b", "o", 30, 5.5, 2.0, 30, 4.0, 2.0)]
        (report,) = run_pipeline(studies)
        assert report.included_ids == ("a", "b")
        assert report.excluded_ids == ()
        assert report.pooled is not None
        # direct groups are never symmetry-tested
        for entry in report.studies:
            assert all(t.result is None and t.error is None
                       for t in entry.tests)

    @pytest.mark.parametrize("sd_a, sd_b", [("1e-8", "2"), ("1e-9", "2"),
                                            ("1e-100", "2e-100")])
    def test_dominated_weight_pooled(self, tmp_path, sd_a, sd_b):
        # Study a's weight is about 2^50 (sd 1e-8) or 2^57 (sd 1e-9)
        # times smaller than b's.  The tau^2 denominator sum_w -
        # sum(w^2) / sum_w lost most of its digits at 1e-8 and cancelled
        # to 0 (ZeroDivisionError) at 1e-9.  At sd 1e-100 every weight is
        # near 1e-198, so any product of two weights underflows to 0.
        # tau^2 must match the exact value from the same weights.
        csv_path = tmp_path / "dominated.csv"
        csv_path.write_text(
            "study_id,outcome,arm,group_label,n,mean,sd,min,q1,median,q3,max\n"
            f"a,o,case,case,20,5,{sd_a},,,,,\n"
            f"a,o,control,control,20,4,{sd_a},,,,,\n"
            f"b,o,case,case,20,5,{sd_b},,,,,\n"
            f"b,o,control,control,20,4,{sd_b},,,,,\n")
        (report,) = run_pipeline(parse_studies(csv_path))
        assert report.included_ids == ("a", "b")
        w = [1 / Fraction(s.effect.se) ** 2 for s in report.studies]
        pairs = sum(wi * wj for i, wi in enumerate(w)
                    for j, wj in enumerate(w) if i != j)
        exact = (Fraction(report.pooled.q_stat) - 1) / (pairs / sum(w))
        assert report.pooled.tau_squared > 0
        assert report.pooled.tau_squared == pytest.approx(float(exact),
                                                          rel=1e-12)

    def test_skewed_study_excluded(self):
        studies = [_direct_study("a", "o", 20, 5.0, 2.0, 20, 4.0, 2.0),
                   _summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        (report,) = run_pipeline(studies)
        assert report.excluded_ids == ("skew",)
        (entry,) = [s for s in report.studies if s.study_id == "skew"]
        assert entry.effect is None
        assert any("symmetry rejected" in r for r in entry.exclusion_reasons)

    def test_degenerate_summary_excluded_with_error(self):
        flat = (40, QuantileSummary(median=2.0, q1=2.0, q3=2.0))
        studies = [_summary_study("flat", "o", flat, _SYMMETRIC),
                   _direct_study("a", "o", 20, 5.0, 2.0, 20, 4.0, 2.0)]
        (report,) = run_pipeline(studies)
        assert report.excluded_ids == ("flat",)
        (entry,) = [s for s in report.studies if s.study_id == "flat"]
        flagged = [t for t in entry.tests if t.error is not None]
        assert len(flagged) == 1
        assert "statistic undefined" in flagged[0].error

    def test_summary_without_median_excluded_in_words(self):
        no_median = (40, QuantileSummary(median=None, min=1.0, max=3.0))
        studies = [_summary_study("nomedian", "o", no_median, _SYMMETRIC),
                   _direct_study("a", "o", 20, 5.0, 2.0, 20, 4.0, 2.0)]
        (report,) = run_pipeline(studies)
        assert report.excluded_ids == ("nomedian",)
        (entry,) = [s for s in report.studies if s.study_id == "nomedian"]
        assert any("no median" in r for r in entry.exclusion_reasons)

    def test_int_summary_beyond_float_range_excluded_in_words(self):
        huge = (20, QuantileSummary(min=1, median=10**400, max=10**400))
        studies = [_summary_study("huge", "o", huge, _SYMMETRIC),
                   _direct_study("a", "o", 20, 5.0, 2.0, 20, 4.0, 2.0)]
        (report,) = run_pipeline(studies)
        assert report.excluded_ids == ("huge",)
        (entry,) = [s for s in report.studies if s.study_id == "huge"]
        assert entry.exclusion_reasons == (
            "group case: the summary values overflow the float range",)
        # An n past the float range used to raise OverflowError out of
        # run_pipeline, through the S1 statistic's n - 0.375.
        for n in (10**400, 10**5000):
            big = (n, QuantileSummary(min=1.0, median=2.0, max=3.0))
            (report,) = run_pipeline([_summary_study("big", "o", big,
                                                     _SYMMETRIC)])
            (entry,) = report.studies
            assert entry.exclusion_reasons == (
                "group case: n overflows the float range",)
            assert report.pooled is None

    def test_flagged_and_unsupported_groups_excluded_in_words(self, tmp_path):
        # Rows the parser flags (q1 > median, a mean without an SD) or
        # that no test fits (min/q1/median only) exclude their study.
        csv_path = tmp_path / "flagged.csv"
        csv_path.write_text(
            "study_id,outcome,arm,group_label,n,mean,sd,min,q1,median,q3,max\n"
            "ok,o,case,case,20,5.0,2.0,,,,,\n"
            "ok,o,control,control,20,4.0,2.0,,,,,\n"
            "unordered,o,case,case,40,,,,6,5,8,\n"
            "unordered,o,control,control,40,4.0,2.0,,,,,\n"
            "partial,o,case,case,40,,,1,3,5,,\n"
            "partial,o,control,control,40,4.0,2.0,,,,,\n"
            "nosd,o,case,case,40,5.0,,,,,,\n"
            "nosd,o,control,control,40,4.0,2.0,,,,,\n")
        (report,) = run_pipeline(parse_studies(csv_path))
        assert report.included_ids == ("ok",)
        assert report.excluded_ids == ("unordered", "partial", "nosd")
        reasons = {s.study_id: s.exclusion_reasons for s in report.studies}
        assert reasons["unordered"] == (
            "group case: ordering violation: q1 <= median fails (6.0 > 5.0)",)
        (partial,) = reasons["partial"]
        assert partial.startswith("group case: ") and "matches no scenario" \
            in partial
        assert reasons["nosd"] == (
            "group case: neither (mean, sd) nor a quantile summary is "
            "present",)
        for entry in report.studies[1:]:
            (flagged,) = [t for t in entry.tests if t.error is not None]
            assert flagged.group_label == "case" and flagged.result is None
        json.dumps(report_to_dict(report), allow_nan=False)

    @pytest.mark.parametrize("case_cells, control_cells, reason", [
        ("1,5.0,2.0,,,,,", "20,4.0,2.0,,,,,",
         "no effect size: both groups need n >= 2, got n_case=1, "
         "n_control=20"),
        ("20,5.0,0,,,,,", "20,4.0,0,,,,,",
         "no effect size: pooled SD is zero; effect size undefined"),
        ("20,,,1e308,,1.5e308,,1.7e308", "20,4.0,2.0,,,,,",
         "group case: statistic is nan: the summary values overflow the "
         "float range"),
        ("20,,,-1.7e308,,0,,1.7e308", "20,4.0,2.0,,,,,",
         "no effect size: estimated SD is inf: the summary values "
         "overflow the float range"),
        ("20,5.0,1e200,,,,,", "20,4.0,1e200,,,,,",
         "no effect size: the moments overflow the float range"),
        ("20,1.7e308,1,,,,,", "20,-1.7e308,1,,,,,",
         "no effect size: pooled SD, d or its SE is not finite: the "
         "moments overflow the float range"),
    ], ids=["n1", "zero-sd", "huge-cells", "infinite-sd", "sd-squared",
            "infinite-d"])
    def test_undefined_effect_size_excluded_in_words(
            self, tmp_path, case_cells, control_cells, reason):
        # Each bad study used to raise out of run_pipeline (or, for the
        # infinite SD, out of the strict JSON dump).
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text(
            "study_id,outcome,arm,group_label,n,mean,sd,min,q1,median,q3,max\n"
            "ok,o,case,case,20,5.0,2.0,,,,,\n"
            "ok,o,control,control,20,4.0,2.0,,,,,\n"
            f"bad,o,case,case,{case_cells}\n"
            f"bad,o,control,control,{control_cells}\n")
        (report,) = run_pipeline(parse_studies(csv_path))
        assert report.included_ids == ("ok",)
        (bad,) = [s for s in report.studies if s.study_id == "bad"]
        assert bad.exclusion_reasons == (reason,)
        json.dumps(report_to_dict(report), allow_nan=False)

    def test_combined_arm_overflow_excluded_in_words(self, tmp_path):
        # Two case groups whose pooled squared deviation is past the float
        # range; pooled_moments raised OverflowError.
        csv_path = tmp_path / "rows.csv"
        csv_path.write_text(
            "study_id,outcome,arm,group_label,n,mean,sd,min,q1,median,q3,max\n"
            "ok,o,case,case,20,5.0,2.0,,,,,\n"
            "ok,o,control,control,20,4.0,2.0,,,,,\n"
            "bad,o,case,c1,20,1e200,1,,,,,\n"
            "bad,o,case,c2,20,-1e200,1,,,,,\n"
            "bad,o,control,control,20,4.0,2.0,,,,,\n")
        (report,) = run_pipeline(parse_studies(csv_path))
        (bad,) = [s for s in report.studies if s.study_id == "bad"]
        assert bad.exclusion_reasons == (
            "no effect size: the moments overflow the float range",)

    def test_omitted_pool_names_undefined_effect_size(self):
        studies = [_direct_study("a", "o", 1, 5.0, 2.0, 20, 4.0, 2.0)]
        (report,) = run_pipeline(studies)
        assert report.pooled is None
        assert report.pooled_omitted_reason == (
            "all studies excluded by the symmetry screen or for an "
            "undefined effect size")

    def test_all_excluded_outcome(self):
        studies = [_summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        (report,) = run_pipeline(studies)
        assert report.pooled is None
        assert report.pooled_omitted_reason == (
            "all studies excluded by the symmetry screen")

    def test_multi_arm_case_combined(self):
        a = GroupRecord(study_id="m", group_label="sub1", arm="case", n=40,
                        reported_mean=11.8, reported_sd=7.9)
        b = GroupRecord(study_id="m", group_label="sub2", arm="case", n=51,
                        reported_mean=5.3, reported_sd=6.8)
        control = GroupRecord(study_id="m", group_label="control",
                              arm="control", n=20, reported_mean=2.1,
                              reported_sd=2.4)
        study = Study(study_id="m", outcome_label="o", case_groups=(a, b),
                      control_groups=(control,))
        (report,) = run_pipeline([study])
        (entry,) = report.studies
        assert entry.case_moments.source == "combined"
        assert entry.case_moments.sd == pytest.approx(
            7.953428930092463, abs=1e-9)
        assert entry.effect.n_case == 91

    def test_exclusion_is_per_outcome(self):
        # the same study id can pool for one outcome and fail another
        ok = _summary_study("dual", "one", _SYMMETRIC, _SYMMETRIC)
        bad = _summary_study("dual", "two", _SKEWED, _SYMMETRIC)
        other_one = _direct_study("x", "one", 20, 5.0, 2.0, 20, 4.0, 2.0)
        other_two = _direct_study("x", "two", 20, 5.0, 2.0, 20, 4.0, 2.0)
        reports = {r.outcome_label: r
                   for r in run_pipeline([ok, bad, other_one, other_two])}
        assert "dual" in reports["one"].included_ids
        assert "dual" in reports["two"].excluded_ids

    def test_outcome_order_is_first_appearance(self):
        studies = [_direct_study("a", "beta", 20, 5.0, 2.0, 20, 4.0, 2.0),
                   _direct_study("a", "alpha", 20, 5.0, 2.0, 20, 4.0, 2.0),
                   _direct_study("b", "beta", 20, 5.0, 2.0, 20, 4.0, 2.0)]
        reports = run_pipeline(studies)
        assert [r.outcome_label for r in reports] == ["beta", "alpha"]

    def test_alpha_and_model_recorded(self):
        studies = [_direct_study("a", "o", 20, 5.0, 2.0, 20, 4.0, 2.0)]
        (report,) = run_pipeline(studies, alpha=0.01, model="fixed")
        assert report.alpha == 0.01
        assert report.model == "fixed"
        assert report.pooled.model == "fixed"

    def test_stricter_alpha_can_rescue_a_study(self):
        # the skewed summary rejects at 0.05 but survives a harsher cutoff
        studies = [_summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        (at_05,) = run_pipeline(studies, alpha=0.05)
        (at_1e5,) = run_pipeline(studies, alpha=1e-5)
        assert at_05.excluded_ids == ("skew",)
        assert at_1e5.included_ids == ("skew",)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, 5e-324])
    def test_bad_alpha_raises(self, alpha):
        # A group's ValueError excludes its study; a bad alpha is no
        # group's fault, so it is refused before any group is screened.
        studies = [_summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        with pytest.raises(ValueError, match="alpha"):
            run_pipeline(studies, alpha=alpha)

    def test_tiny_alpha_screens(self):
        studies = [_summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        (report,) = run_pipeline(studies, alpha=1e-17)
        assert report.included_ids == ("skew",)

    def test_each_group_classified_once(self, monkeypatch, data_dir):
        # The screen classifies a group once, and its GroupTest carries
        # the scenario into estimation: one validation per group,
        # multi-arm studies included.  classify_scenario runs validate.
        calls = []
        real = model.validate

        def counting(group):
            calls.append(group)
            return real(group)

        monkeypatch.setattr(model, "validate", counting)
        for path in sorted(data_dir.glob("*.csv")):
            studies = parse_studies(path)
            calls.clear()
            reports = run_pipeline(studies)
            groups = [g for report in reports for study in studies
                      if study.outcome_label == report.outcome_label
                      for g in study.groups]
            assert calls == groups, path.name
            tests = [t for report in reports for entry in report.studies
                     for t in entry.tests]
            assert [t.scenario for t in tests] == [
                None if t.error else classify_scenario(g)
                for t, g in zip(tests, groups)], path.name

    def test_hedges_passthrough(self):
        studies = [_direct_study("a", "o", 10, 2.0, 1.0, 10, 0.0, 1.0)]
        (plain,) = run_pipeline(studies)
        (adjusted,) = run_pipeline(studies, hedges=True)
        want = plain.studies[0].effect.smd * (1 - 3 / 71)
        assert adjusted.studies[0].effect.smd == pytest.approx(want, rel=1e-12)


class TestHandBuiltRecords:
    """Records built without the parser pass the same gate as parsed ones."""

    def _excluded_reason(self, case):
        control = GroupRecord(study_id="hand", group_label="control",
                              arm="control", n=40, reported_mean=4.0,
                              reported_sd=2.0)
        study = Study(study_id="hand", outcome_label="o", case_groups=(case,),
                      control_groups=(control,))
        (report,) = run_pipeline([study])
        assert report.excluded_ids == ("hand",)
        (entry,) = report.studies
        (reason,) = entry.exclusion_reasons
        json.dumps(report_to_dict(report), allow_nan=False)
        return reason

    def test_unordered_quartiles_excluded(self):
        case = GroupRecord(study_id="hand", group_label="case", arm="case",
                           n=40, summary=QuantileSummary(median=5.0, q1=6.0,
                                                         q3=8.0))
        assert self._excluded_reason(case) == (
            "group case: ordering violation: q1 <= median fails (6.0 > 5.0)")

    def test_quartiles_at_n2_excluded(self):
        case = GroupRecord(study_id="hand", group_label="case", arm="case",
                           n=2, summary=QuantileSummary(median=5.0, q1=4.0,
                                                        q3=6.0))
        assert self._excluded_reason(case) == (
            "group case: n >= 4 required with quartiles, got n=2")

    def test_unrepresentable_n_excluded(self):
        # Above n = 2**52 the expected normal range rounds away, so T1
        # is undefined; the study is excluded in the words the test
        # command prints, not with a traceback.
        n = 10**17
        case = GroupRecord(study_id="hand", group_label="case", arm="case",
                           n=n, summary=QuantileSummary(min=1.0, median=2.0,
                                                        max=4.0))
        assert self._excluded_reason(case) == (
            f"group case: n={n} is too large for the expected normal "
            f"range: (n - 0.375)/(n + 0.25) rounds to 1 above n = 2**52")

    @pytest.mark.parametrize("n", [2.5, math.inf, math.nan],
                             ids=["fractional", "inf", "nan"])
    def test_n_not_whole_excluded(self, n):
        # 2.5 was pooled as an arm of 2.5; inf and nan were excluded as
        # "quantile argument must lie in (0, 1), got p=nan".
        case = GroupRecord(study_id="hand", group_label="case", arm="case",
                           n=n, summary=QuantileSummary(min=1.0, median=2.0,
                                                        max=4.0))
        assert self._excluded_reason(case) == (
            "group case: n must be a positive integer")

    @pytest.mark.parametrize("n", [math.inf, math.nan, 10**400, 10**5000],
                             ids=["inf", "nan", "400-digits", "5001-digits"])
    def test_report_writes_a_refused_n_as_null(self, n):
        # Strict JSON refused inf and nan, and str() a 5001-digit int.
        big = (n, QuantileSummary(min=1.0, median=2.0, max=3.0))
        (report,) = run_pipeline([_summary_study("big", "o", big,
                                                 _SYMMETRIC)])
        d = report_to_dict(report)
        assert d["studies"][0]["tests"][0]["n"] is None
        json.dumps(d, allow_nan=False)

    @pytest.mark.parametrize("numbers, words", [
        (dict(reported_mean=math.nan, reported_sd=2.0), "mean is nan"),
        (dict(reported_mean=5.0, reported_sd=math.nan), "sd is nan"),
        (dict(summary=QuantileSummary(min=1.0, median=math.nan, max=4.0)),
         "a summary value is nan"),
    ], ids=["mean", "sd", "summary"])
    def test_nan_excluded_in_words_that_name_it(self, numbers, words):
        # Each was excluded later, in words that blamed an overflow.
        case = GroupRecord(study_id="hand", group_label="case", arm="case",
                           n=40, **numbers)
        assert self._excluded_reason(case) == f"group case: {words}"

    def test_group_n_is_the_only_n(self):
        # The test, the estimate and the pooled arm size all use group.n.
        _, summary = _SKEWED
        study = _summary_study("one", "o", (21, summary), _SYMMETRIC)
        (case,) = study.case_groups
        result = run_test(case)
        assert result.n == 21
        assert result.statistic == statistic(Scenario.S2, None, 7.6, 9.6,
                                             16.25, None, 21)
        moments = estimate_moments(case, classify_scenario(case))
        assert (moments.mean, moments.sd) == estimate_mean_sd(
            summary, Scenario.S2, 21)
        (report,) = run_pipeline([study], alpha=1e-9)
        (entry,) = report.studies
        (case_test, _) = entry.tests
        assert case_test.n == case_test.result.n == 21
        assert entry.effect.n_case == 21
        assert report_to_dict(report)["studies"][0]["case"]["n"] == 21


_FIELDS = ("min", "q1", "median", "q3", "max")
# The S1, S2 and S3 reporting patterns.
_PATTERNS = (("min", "median", "max"), ("q1", "median", "q3"), _FIELDS)
# Floats, and the ints a hand-built summary may hold: small ones, and
# ones near the float limit, each a float but their sums not; numbers
# that are not finite; and a numeric string.
_BIG = int(1.7e308)
_NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_SUMMARY_VALUES = st.one_of(NUMBERS.map(float), st.integers(-5, 5),
                            st.sampled_from([-_BIG, _BIG]), _NOT_FINITE,
                            st.just("1"))


@st.composite
def _hand_built_group(draw, study_id, label, arm):
    # Moments, a summary, both, or neither; summary fields those of a
    # reporting pattern or any set of them, and the set ones ordered,
    # in any order, or tied.
    form = draw(st.sampled_from(["moments", "summary", "both", "neither"]))
    mean = sd = summary = None
    if form in ("moments", "both"):
        mean = draw(st.one_of(st.sampled_from([0.0, 1.0, 5.0]), _NOT_FINITE))
        sd = draw(st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                            _NOT_FINITE))
    if form in ("summary", "both"):
        if draw(st.booleans()):
            present = list(draw(st.sampled_from(_PATTERNS)))
        else:
            present = [f for f in _FIELDS if draw(st.booleans())]
        layout = draw(st.sampled_from(["ordered", "any", "tied"]))
        if layout == "tied":
            values = [1.0] * len(present)
        else:
            values = draw(st.lists(_SUMMARY_VALUES, min_size=len(present),
                                   max_size=len(present)))
            if layout == "ordered":
                values.sort(key=float)
        summary = QuantileSummary(**{"median": None,
                                     **dict(zip(present, values))})
    n = draw(st.one_of(SIZES, st.sampled_from([2.5, 20.0, math.inf,
                                               math.nan])))
    return GroupRecord(study_id=study_id, group_label=label, arm=arm,
                       n=n, reported_mean=mean, reported_sd=sd,
                       summary=summary)


def _holds(group, test):
    numbers = [group.n, group.reported_mean, group.reported_sd]
    if group.summary is not None:
        numbers += [getattr(group.summary, name) for name in _FIELDS]
    return any(test(float(v)) for v in numbers if v is not None)


@st.composite
def _hand_built_studies(draw):
    studies = []
    for study_id in ("a", "b")[:draw(st.integers(1, 2))]:
        cases = tuple(draw(_hand_built_group(study_id, f"case{i}", "case"))
                      for i in range(draw(st.integers(1, 2))))
        control = draw(_hand_built_group(study_id, "control", "control"))
        studies.append(Study(study_id=study_id, outcome_label="o",
                             case_groups=cases, control_groups=(control,)))
    return studies


@settings(max_examples=200)
@given(_hand_built_studies())
def test_pipeline_never_raises_on_hand_built_records(studies):
    # Mirrors the CLI property on generated rows, without the parser.
    # An arm is pooled with a whole n only, and a nan is never blamed
    # on an overflow: a study holding one is refused at the screen.
    by_id = {study.study_id: study for study in studies}
    for report in run_pipeline(studies):
        for entry in report.studies:
            assert entry.included or entry.exclusion_reasons
            if entry.included:
                effect = entry.effect
                assert effect.n_case % 1 == effect.n_control % 1 == 0
            nan_only = {g.group_label for g in by_id[entry.study_id].groups
                        if _holds(g, math.isnan)
                        and not _holds(g, math.isinf)}
            if nan_only:
                assert all(reason.startswith("group ")
                           for reason in entry.exclusion_reasons)
            for test in entry.tests:
                if test.group_label in nan_only:
                    assert test.error and "overflow" not in test.error
        json.dumps(report_to_dict(report), allow_nan=False)
    for study in studies:
        for group in study.groups:
            for consumer in (run_test, lambda g: estimate_moments(
                    g, classify_scenario(g))):
                try:
                    consumer(group)
                except ValueError:
                    pass


class TestReportToDict:
    def _report(self):
        studies = [_direct_study("a", "o", 20, 5.0, 2.0, 20, 4.0, 2.0),
                   _summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        (report,) = run_pipeline(studies)
        return report

    def test_json_serializable(self):
        d = report_to_dict(self._report())
        text = json.dumps(d)
        assert json.loads(text) == d

    def test_structure(self):
        d = report_to_dict(self._report())
        assert d["outcome"] == "o"
        assert d["alpha"] == 0.05
        assert d["model"] == "random"
        by_id = {s["study_id"]: s for s in d["studies"]}
        assert by_id["a"]["included"] is True
        assert by_id["a"]["effect"]["smd"] == pytest.approx(0.5, rel=1e-12)
        assert by_id["a"]["case"]["source"] == "reported"
        assert by_id["skew"]["included"] is False
        assert by_id["skew"]["exclusion_reasons"]
        tested = [t for t in by_id["skew"]["tests"] if t.get("tested")]
        assert tested and tested[0]["scenario"] == "S2"
        assert d["pooled"]["model"] == "random"

    def test_pooled_none(self):
        studies = [_summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        (report,) = run_pipeline(studies)
        d = report_to_dict(report)
        assert d["pooled"] is None
        assert "excluded" in d["pooled_omitted_reason"]


class TestForestSvg:
    def _report(self):
        studies = [_direct_study("alpha", "leptin", 20, 5.0, 2.0, 20, 4.0, 2.0),
                   _direct_study("beta", "leptin", 30, 5.5, 2.0, 30, 4.0, 2.0)]
        (report,) = run_pipeline(studies)
        return report

    def test_deterministic(self):
        report = self._report()
        assert forest_svg(report) == forest_svg(report)

    def test_contains_rows_and_pooled(self):
        svg = forest_svg(self._report())
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")
        assert "alpha" in svg and "beta" in svg
        assert "Pooled (random)" in svg
        assert "Q=" in svg

    def test_escapes_markup(self):
        studies = [_direct_study("a<b>", "x & y", 20, 5.0, 2.0, 20, 4.0, 2.0)]
        (report,) = run_pipeline(studies)
        svg = forest_svg(report)
        assert "a&lt;b&gt;" in svg
        assert "x &amp; y" in svg

    def test_heterogeneity_floor_is_escaped(self):
        # Q's p-value prints as "<0.001" here; a bare "<" made the SVG
        # ill-formed XML.
        studies = [_direct_study("alpha", "o", 50, 9.0, 1.0, 50, 1.0, 1.0),
                   _direct_study("beta", "o", 50, 1.0, 1.0, 50, 9.0, 1.0)]
        (report,) = run_pipeline(studies)
        svg = forest_svg(report)
        assert "p=&lt;0.001" in svg
        ET.fromstring(svg.encode("utf-8"))

    def test_no_included_studies_rejected(self):
        studies = [_summary_study("skew", "o", _SKEWED, _SYMMETRIC)]
        (report,) = run_pipeline(studies)
        with pytest.raises(ValueError, match="no included studies"):
            forest_svg(report)


class TestCurveSvg:
    def test_deterministic(self):
        args = ([50, 100, 200], [0.2, 0.5, 0.9], "power, S1")
        assert curve_svg(*args) == curve_svg(*args)

    def test_reference_line_only_when_asked(self):
        with_ref = curve_svg([50, 100], [0.04, 0.05], "t", reference=0.05)
        without = curve_svg([50, 100], [0.04, 0.05], "t")
        assert with_ref.count("#cc0000") == 1
        assert "#cc0000" not in without

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            curve_svg([1, 2], [0.5], "t")
        with pytest.raises(ValueError, match="nonempty"):
            curve_svg([], [], "t")
