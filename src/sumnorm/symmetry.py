"""Symmetry tests for quantile-summarized data.

Each statistic contrasts a symmetric midpoint against the median and is
scaled by a sample-size coefficient so that under normality it is
approximately standard normal:

* T1 = tau(n) * (a + b - 2m) / (b - a)          from min/median/max
* T2 = phi(n) * (q1 + q3 - 2m) / (q3 - q1)      from the quartiles
* T3 = kappa(n) * (a + b + q1 + q3 - 4m) / (b - a + q3 - q1)

The kappa denominator carries a small-sample correction constant,
``KAPPA_C``.  The derivation gives 10.14, which is what this module
uses; the paper's summary table prints 10.5, a reading that does not
follow from the derivation and is recorded here only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (SCENARIO_FIELDS, SUMMARY_FIELDS, GroupRecord, Scenario,
                    classify_scenario)
from .normal import (critical_value, extreme_width, quartile_width,
                     two_sided_p)

__all__ = [
    "KAPPA_C",
    "DegenerateSummaryError",
    "TestResult",
    "coeff_tau",
    "coeff_phi",
    "coeff_kappa",
    "statistic",
    "READS",
    "run_test",
    "format_statistic",
    "format_p_value",
]

KAPPA_C = 10.14


class DegenerateSummaryError(ValueError):
    """The statistic is undefined: 0/0 from a collapsed range, or not
    finite because the summary values overflow the float range."""


@dataclass(frozen=True)
class TestResult:
    """Outcome of one symmetry test."""

    scenario: Scenario
    statistic: float
    p_value: float
    reject: bool
    alpha: float
    n: int


def _null_variance(n: int, c: float) -> float:
    """pi^2 / (6 ln n) + c / n, the null variance of a symmetry contrast.

    For n standard-normal draws, c = pi gives that of a + b - 2m (T1)
    and c = KAPPA_C that of a + b + q1 + q3 - 4m (T3).
    """
    return math.pi ** 2 / 6.0 / math.log(n) + c / n


def coeff_tau(n: int) -> float:
    """Scaling coefficient for the min/median/max statistic, n >= 2."""
    if n < 2:
        raise ValueError(f"tau(n) needs n >= 2, got n={n}")
    return extreme_width(n) / math.sqrt(_null_variance(n, math.pi))


def coeff_phi(n: int) -> float:
    """Scaling coefficient for the quartile statistic, n >= 4."""
    if n < 4:
        raise ValueError(f"phi(n) needs n >= 4, got n={n}")
    return 1.09 * math.sqrt(n) * (quartile_width(n) / 2.0)


def coeff_kappa(n: int) -> float:
    """Scaling coefficient for the five-number statistic, n >= 4."""
    if n < 4:
        raise ValueError(f"kappa(n) needs n >= 4, got n={n}")
    num = extreme_width(n) + quartile_width(n)
    return num / math.sqrt(_null_variance(n, KAPPA_C))


def statistic(scenario: Scenario, a, q1, m, q3, b, n: int):
    """T1, T2 or T3 of one summary, or of arrays of summaries.

    Plain arithmetic, so the summary values may be floats or equally
    shaped numpy arrays; fields the scenario does not use are ignored
    (pass None).  No ordering or degeneracy checks: on floats a zero
    spread raises ZeroDivisionError, which :func:`run_test` turns into
    words; on arrays it gives inf or nan.
    """
    if scenario is Scenario.S1:
        return coeff_tau(n) * (a + b - 2.0 * m) / (b - a)
    if scenario is Scenario.S2:
        return coeff_phi(n) * (q1 + q3 - 2.0 * m) / (q3 - q1)
    if scenario is Scenario.S3:
        return (coeff_kappa(n)
                * (a + b + q1 + q3 - 4.0 * m) / ((b - a) + (q3 - q1)))
    raise ValueError(f"no test statistic for scenario {scenario}")


# scenario -> the positions in SUMMARY_FIELDS that its statistic reads;
# the others it ignores.
READS = {scenario: tuple(map(SUMMARY_FIELDS.index, fields))
         for scenario, (fields, _) in SCENARIO_FIELDS.items()}


# scenario -> the words for a zero divisor in its statistic, which on
# floats raises ZeroDivisionError even over an inf or nan numerator.  An
# ordered summary's spreads are nonnegative, so the S3 sum is zero only
# when the range and the IQR both are.
_ZERO_SPREAD = {
    Scenario.S1: "degenerate range b - a = 0 (a = b = {s.min}); "
                 "statistic undefined",
    Scenario.S2: "degenerate IQR q3 - q1 = 0 (q1 = q3 = {s.q1}); "
                 "statistic undefined",
    Scenario.S3: "degenerate summary: range and IQR are both zero",
}


def run_test(group: GroupRecord, alpha: float = 0.05) -> TestResult | None:
    """The symmetry test of ``group`` for the scenario it reports.

    Returns None for groups that report mean and SD directly; those need
    no symmetry screening.

    Raises
    ------
    UnsupportedSummaryError
        For a group that :func:`classify_scenario` refuses, an unordered
        summary or one past the float range among them.
    DegenerateSummaryError
        If the spread the statistic divides by is zero, or the statistic
        overflows the float range; the group should be flagged rather
        than silently accepted.
    """
    scenario = classify_scenario(group)
    if scenario is Scenario.DIRECT:
        return None
    s, n = group.summary, group.n
    try:
        t = statistic(scenario, s.min, s.q1, s.median, s.q3, s.max, n)
    except ZeroDivisionError:
        raise DegenerateSummaryError(
            _ZERO_SPREAD[scenario].format(s=s)) from None
    if not math.isfinite(t):
        # |nan| > crit is False, so a nan would read as "retain".
        raise DegenerateSummaryError(
            f"statistic is {t}: the summary values overflow the float range")
    return TestResult(scenario=scenario, statistic=t, p_value=two_sided_p(t),
                      reject=abs(t) > critical_value(alpha), alpha=alpha,
                      n=n)


def format_statistic(t: float) -> str:
    """Render a statistic the way the result tables print it.

    Three decimals normally; tiny nonzero values (|t| < 1e-6, float
    artifacts of symmetric inputs) keep scientific notation.
    """
    if t != 0.0 and abs(t) < 1e-6:
        return f"{t:.3e}"
    return f"{t:.3f}"


def format_p_value(p: float) -> str:
    """Render a p-value with three decimals and a '<0.001' floor."""
    if p < 0.001:
        return "<0.001"
    return f"{p:.3f}"
