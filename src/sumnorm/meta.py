"""Effect sizes, meta-analytic pooling, and the screening pipeline.

The pipeline mirrors the recommended workflow for quantile-summarized
studies: symmetry-test every group that reports quantiles, exclude a
study from an outcome when any of its groups rejects or cannot be
tested (with the reason in words), estimate moments for the survivors,
combine multi-arm subgroups, compute standardized mean differences, and
pool them (fixed-effect or DerSimonian-Laird random-effects).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .estimators import EstimatedMoments, estimate_moments
from .model import GroupRecord, Scenario, Study, left_sum, pooled_moments
from .normal import critical_value
from .symmetry import TestResult, run_test

__all__ = [
    "EffectSize",
    "PooledResult",
    "GroupTest",
    "StudyEntry",
    "PipelineReport",
    "cohen_d",
    "pool",
    "run_pipeline",
    "chi_square_sf",
    "report_to_dict",
]

_Z95 = critical_value(0.05)  # the screening procedure's 95% multiplier


@dataclass(frozen=True)
class EffectSize:
    """Standardized mean difference of one case/control comparison."""

    smd: float
    se: float
    ci_low: float
    ci_high: float
    n_case: int
    n_control: int


@dataclass(frozen=True)
class PooledResult:
    """Pooled effect with heterogeneity statistics."""

    smd: float
    ci_low: float
    ci_high: float
    q_stat: float
    q_p: float
    i_squared: float
    tau_squared: float
    weights: tuple[float, ...]  # normalized to sum 1, study order
    model: str


@dataclass(frozen=True)
class GroupTest:
    """Symmetry-test outcome for one group of a study."""

    group_label: str
    arm: str
    n: int
    result: TestResult | None  # None when moments were reported directly
    error: str | None = None   # why the group could not be tested
    scenario: Scenario | None = None  # the group's form; None on error


@dataclass(frozen=True)
class StudyEntry:
    """Everything the pipeline decided about one study for one outcome."""

    study_id: str
    tests: tuple[GroupTest, ...]
    included: bool
    exclusion_reasons: tuple[str, ...]
    case_moments: EstimatedMoments | None = None
    control_moments: EstimatedMoments | None = None
    effect: EffectSize | None = None


@dataclass(frozen=True)
class PipelineReport:
    """Per-outcome screening decisions, estimates, and pooled effect."""

    outcome_label: str
    alpha: float
    model: str
    studies: tuple[StudyEntry, ...]
    pooled: PooledResult | None
    pooled_omitted_reason: str | None = None

    @property
    def excluded_ids(self) -> tuple[str, ...]:
        return tuple(s.study_id for s in self.studies if not s.included)

    @property
    def included_ids(self) -> tuple[str, ...]:
        return tuple(s.study_id for s in self.studies if s.included)


def chi_square_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution with ``df`` dof.

    For integer df the upper tail is a finite sum (Abramowitz & Stegun
    1964, 26.4.4-5).  With h = x/2 and s = (df mod 2)/2 it is the sum
    over k < df // 2 of h^(s+k) e^-h / Gamma(s+k+1), plus erfc(sqrt(h))
    when df is odd.  Each term is formed in log space, so none
    underflows before the tail itself does.
    """
    if not isinstance(df, numbers.Integral) or df < 1:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    s = (df % 2) / 2.0
    log_h = math.log(h)
    terms = [math.exp((s + k) * log_h - h - math.lgamma(s + k + 1.0))
             for k in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    # Where the tail rounds to 1, the rounded terms can sum one ulp above.
    return min(1.0, math.fsum(terms))


def cohen_d(n_case: int, mean_case: float, sd_case: float,
            n_control: int, mean_control: float, sd_control: float,
            hedges: bool = False) -> EffectSize:
    """Standardized mean difference with large-sample standard error.

    d = (mean_case - mean_control) / s_pooled, where s_pooled is the
    usual bias-weighted pooled SD.  With ``hedges`` the small-sample
    factor 1 - 3/(4(n1 + n2) - 9) multiplies d before the SE and CI are
    formed; the default leaves d uncorrected.

    Raises
    ------
    ValueError
        On n below 2, negative SDs, a zero pooled SD (degenerate), or
        moments past the float range: a squared SD, an int quotient, or
        a pooled SD, d or SE that is not finite.
    """
    if n_case < 2 or n_control < 2:
        raise ValueError(
            f"both groups need n >= 2, got n_case={n_case}, "
            f"n_control={n_control}")
    if sd_case < 0 or sd_control < 0:
        raise ValueError("SDs must be nonnegative")
    try:  # sd ** 2 on floats, and / on ints, raise past the float range
        pooled_var = (((n_case - 1) * sd_case ** 2
                       + (n_control - 1) * sd_control ** 2)
                      / (n_case + n_control - 2))
        if pooled_var == 0.0:
            raise ValueError("pooled SD is zero; effect size undefined")
        d = (mean_case - mean_control) / math.sqrt(pooled_var)
    except OverflowError:
        raise ValueError("the moments overflow the float range") from None
    if hedges:
        d *= 1.0 - 3.0 / (4.0 * (n_case + n_control) - 9.0)
    total = n_case + n_control
    se = math.sqrt(total / (n_case * n_control) + d * d / (2.0 * total))
    if not all(map(math.isfinite, (pooled_var, d, se))):
        raise ValueError("pooled SD, d or its SE is not finite: the moments "
                         "overflow the float range")
    return EffectSize(smd=d, se=se, ci_low=d - _Z95 * se,
                      ci_high=d + _Z95 * se,
                      n_case=n_case, n_control=n_control)


def pool(effects: list[EffectSize], model: str = "random") -> PooledResult:
    """Pool standardized mean differences across studies.

    Fixed-effect weights are inverse variances; the random-effects model
    adds the DerSimonian-Laird between-study variance tau^2 estimated
    from the fixed-effect Q statistic.

    Raises
    ------
    ValueError
        On an empty list or unknown model.
    """
    if not effects:
        raise ValueError("pool requires at least one effect size")
    if model not in ("fixed", "random"):
        raise ValueError(f"model must be 'fixed' or 'random', got {model!r}")
    d = [e.smd for e in effects]
    w = [1.0 / (e.se ** 2) for e in effects]
    sum_w = left_sum(w)
    d_fixed = left_sum(wi * di for wi, di in zip(w, d)) / sum_w
    q_stat = left_sum(wi * (di - d_fixed) ** 2 for wi, di in zip(w, d))
    df = len(effects) - 1
    if df > 0:
        # sum_w - sum(w_i^2) / sum_w, summed as w_i w_j / sum_w over the
        # pairs i != j: the difference cancels to exactly 0 when one
        # weight is about 2^52 times another.  Dividing before
        # multiplying keeps tiny weights' products from underflowing.
        pairs = math.fsum(wi / sum_w * math.fsum(w[:i] + w[i + 1:])
                          for i, wi in enumerate(w))
        tau_squared = max(0.0, (q_stat - df) / pairs)
        i_squared = max(0.0, (q_stat - df) / q_stat) * 100.0 if q_stat > 0 else 0.0
        q_p = chi_square_sf(q_stat, df)
    else:
        tau_squared = 0.0
        i_squared = 0.0
        q_p = 1.0
    if model == "random":
        w_star = [1.0 / (e.se ** 2 + tau_squared) for e in effects]
    else:
        w_star = w
    sum_w_star = left_sum(w_star)
    pooled_smd = left_sum(wi * di for wi, di in zip(w_star, d)) / sum_w_star
    pooled_se = 1.0 / math.sqrt(sum_w_star)
    return PooledResult(
        smd=pooled_smd,
        ci_low=pooled_smd - _Z95 * pooled_se,
        ci_high=pooled_smd + _Z95 * pooled_se,
        q_stat=q_stat, q_p=q_p, i_squared=i_squared,
        tau_squared=tau_squared,
        weights=tuple(wi / sum_w_star for wi in w_star),
        model=model)


def _moments_for_arm(groups: tuple[GroupRecord, ...],
                     tests: tuple[GroupTest, ...]) -> tuple[int, EstimatedMoments]:
    """Estimate (and if multi-arm, combine) the moments of one arm, each
    group for the scenario its screen ``tests`` classified."""
    per_group = [(g, estimate_moments(g, t.scenario))
                 for g, t in zip(groups, tests)]
    if len(per_group) == 1:
        g, m = per_group[0]
        return g.n, m
    n, mean, sd = pooled_moments([(g.n, m.mean, m.sd) for g, m in per_group])
    return n, EstimatedMoments(mean=mean, sd=sd, source="combined")


def _study_entry(study: Study, alpha: float,
                 hedges: bool) -> tuple[StudyEntry, bool]:
    """Screen one study for one outcome, and estimate and compare the arms
    of one that passes.  A group that cannot be tested, in the words
    ``sumnorm test`` prints, or that rejects excludes the study, and so
    does an undefined effect size; the bool marks the latter."""
    tests = []
    reasons = []
    for group in study.groups:
        result = error = scenario = None
        try:
            result = run_test(group, alpha=alpha)
        except ValueError as exc:
            error = str(exc)
            reasons.append(f"group {group.group_label}: {exc}")
        else:
            # run_test returns None for a group of reported moments only.
            scenario = Scenario.DIRECT if result is None else result.scenario
            if result is not None and result.reject:
                reasons.append(
                    f"group {group.group_label}: symmetry rejected "
                    f"(|{result.statistic:.3f}| > critical at alpha={alpha:g})")
        tests.append(GroupTest(group_label=group.group_label, arm=group.arm,
                               n=group.n, result=result, error=error,
                               scenario=scenario))
    tests = tuple(tests)
    screened = not reasons
    if screened:
        try:
            cases = len(study.case_groups)
            n_case, case_moments = _moments_for_arm(study.case_groups,
                                                    tests[:cases])
            n_control, control_moments = _moments_for_arm(
                study.control_groups, tests[cases:])
            effect = cohen_d(n_case, case_moments.mean, case_moments.sd,
                             n_control, control_moments.mean,
                             control_moments.sd, hedges=hedges)
        except ValueError as exc:
            reasons.append(f"no effect size: {exc}")
        else:
            return StudyEntry(study_id=study.study_id, tests=tests,
                              included=True, exclusion_reasons=(),
                              case_moments=case_moments,
                              control_moments=control_moments,
                              effect=effect), False
    return StudyEntry(study_id=study.study_id, tests=tests, included=False,
                      exclusion_reasons=tuple(reasons)), screened


def run_pipeline(studies: list[Study], alpha: float = 0.05,
                 model: str = "random",
                 hedges: bool = False) -> list[PipelineReport]:
    """Screen, estimate, and pool every outcome present in ``studies``.

    Exclusion is per (study, outcome): a study skewed for one outcome
    may still pool for another.  Case subgroups of an included study are
    combined into a single arm before the effect size is computed;
    control groups are combined within a study only, never across
    studies.

    Returns one report per distinct outcome, in order of first
    appearance.  An outcome whose studies are all excluded yields a
    report with ``pooled`` set to None and a reason, not an error.

    Raises
    ------
    ValueError
        On an ``alpha`` that :func:`normal.critical_value` refuses.
    """
    # Checked here, since a group's ValueError only excludes its study.
    critical_value(alpha)
    outcomes: dict[str, list[Study]] = {}
    for study in studies:
        outcomes.setdefault(study.outcome_label, []).append(study)

    reports = []
    for outcome_label, outcome_studies in outcomes.items():
        entries, undefined = zip(*[_study_entry(study, alpha, hedges)
                                   for study in outcome_studies])
        effects = [entry.effect for entry in entries if entry.included]
        pooled = reason = None
        if effects:
            pooled = pool(effects, model=model)
        else:
            reason = "all studies excluded by the symmetry screen"
            if any(undefined):
                reason += " or for an undefined effect size"
        reports.append(PipelineReport(outcome_label=outcome_label,
                                      alpha=alpha, model=model,
                                      studies=entries, pooled=pooled,
                                      pooled_omitted_reason=reason))
    return reports


def _test_to_dict(t: GroupTest) -> dict:
    # A hand-built n that validate refuses as inf, nan or past the float
    # range is written as null: strict JSON holds neither inf nor nan,
    # and str() fails on an int of over 4300 digits.
    n = t.n if abs(t.n) <= sys.float_info.max else None
    out: dict = {"group_label": t.group_label, "arm": t.arm, "n": n}
    if t.error is not None:
        out["error"] = t.error
    elif t.result is None:
        out["tested"] = False
    else:
        out.update(tested=True, scenario=t.result.scenario.value,
                   statistic=t.result.statistic, p_value=t.result.p_value,
                   reject=t.result.reject)
    return out


def _moments_to_dict(n: int, m: EstimatedMoments) -> dict:
    out = {"n": n, "mean": m.mean, "sd": m.sd, "source": m.source}
    if m.scenario is not None:
        out["scenario"] = m.scenario.value
    return out


def report_to_dict(report: PipelineReport) -> dict:
    """JSON-ready mirror of a pipeline report."""
    studies = []
    for entry in report.studies:
        d: dict = {
            "study_id": entry.study_id,
            "included": entry.included,
            "tests": [_test_to_dict(t) for t in entry.tests],
        }
        if entry.exclusion_reasons:
            d["exclusion_reasons"] = list(entry.exclusion_reasons)
        if entry.included:
            e = entry.effect
            d["case"] = _moments_to_dict(e.n_case, entry.case_moments)
            d["control"] = _moments_to_dict(e.n_control, entry.control_moments)
            d["effect"] = {"smd": e.smd, "se": e.se, "ci_low": e.ci_low,
                           "ci_high": e.ci_high}
        studies.append(d)
    out: dict = {
        "outcome": report.outcome_label,
        "alpha": report.alpha,
        "model": report.model,
        "studies": studies,
    }
    if report.pooled is None:
        out["pooled"] = None
        out["pooled_omitted_reason"] = report.pooled_omitted_reason
    else:
        p = report.pooled
        out["pooled"] = {
            "smd": p.smd, "ci_low": p.ci_low, "ci_high": p.ci_high,
            "q_stat": p.q_stat, "q_p": p.q_p, "i_squared": p.i_squared,
            "tau_squared": p.tau_squared, "model": p.model,
            "weights": list(p.weights),
        }
    return out
