"""Sample mean and SD estimation from quantile summaries.

:func:`estimate_mean_sd` takes a summary, its scenario and n, and
applies the formulas of all three scenarios.  The SD estimates divide the
reported spreads by the expected widths of standard-normal order
statistics, :func:`normal.extreme_width` for the range and
:func:`normal.quartile_width` for the interquartile range.  The mean
estimates are the published optimal weightings of mid-range,
mid-quartile range, and median; their weights are adopted here as fixed
constants.  It refuses a summary its scenario cannot read, or whose
fields read break a rule of :func:`model.summary_violations`.
:func:`estimate_moments` estimates a group that
:func:`model.classify_scenario` has already judged by those rules, so it
takes the same formulas without judging the group again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (SCENARIO_FIELDS, SUMMARY_FIELDS, GroupRecord,
                    QuantileSummary, Scenario, summary_violations)
from .normal import extreme_width, quartile_width

__all__ = [
    "EstimatedMoments",
    "estimate_mean_sd",
    "estimate_moments",
]


@dataclass(frozen=True)
class EstimatedMoments:
    """Mean and SD of a group, with their provenance.

    ``source`` is "reported" for direct passthrough and "estimated" when
    computed from a quantile summary, in which case ``scenario`` names
    the formula used.
    """

    mean: float
    sd: float
    source: str
    scenario: Scenario | None = None


def estimate_mean_sd(summary: QuantileSummary, scenario: Scenario,
                     n: int) -> tuple[float, float]:
    """Mean and SD estimates for ``summary`` of ``n`` values under
    ``scenario``, from the fields it reads, which
    :class:`model.QuantileSummary` holds as floats.

    The mean weights shrink toward the median as n grows:

    * S1: w1 = 4 / (4 + n^0.75) on the mid-range
    * S2: w2 = 0.7 + 0.39 / n on the mid-quartile range
    * S3: w3 = 2.2 / (2.2 + n^0.75) on the mid-range and
      w4 = 0.7 - 0.72 / n^0.55 on the mid-quartile range

    The SD divides each reported spread by its expected width for n
    standard-normal draws:

    * S1: (b - a) / extreme_width(n)
    * S2: (q3 - q1) / quartile_width(n)
    * S3: (b - a + q3 - q1) / (extreme_width(n) + quartile_width(n))

    Raises
    ------
    ValueError
        If the summary lacks a field the scenario reads; if n and the
        fields read break a rule of :func:`model.summary_violations`,
        in the words :func:`model.validate` gives: n not a whole number
        from 1 to the float limit or below the scenario's minimum, a
        value inf or nan, or the values out of order; or if an estimate
        is not finite, as where the values lie near the float limit.
    """
    if scenario not in SCENARIO_FIELDS:
        raise ValueError(f"no estimator for scenario {scenario}")
    names = SCENARIO_FIELDS[scenario]
    missing = [name for name in names if getattr(summary, name) is None]
    if missing:
        *rest, last = missing
        raise ValueError(f"{scenario.value} estimation needs "
                         f"{', '.join(rest) + ' and ' if rest else ''}{last}")
    violations = summary_violations(summary, n, names)
    if violations:
        raise ValueError("; ".join(violations))
    return _mean_sd(summary, scenario, n)


def _mean_sd(summary: QuantileSummary, scenario: Scenario,
             n: int) -> tuple[float, float]:
    """:func:`estimate_mean_sd`'s arithmetic and finite-result check, for
    a summary that has the fields ``scenario`` reads and, with n, holds
    every rule of :func:`model.summary_violations`."""
    a, q1, m, q3, b = (getattr(summary, name) for name in SUMMARY_FIELDS)
    if scenario is Scenario.S1:
        w1 = 4.0 / (4.0 + n ** 0.75)
        mean = w1 * (a + b) / 2.0 + (1.0 - w1) * m
        sd = (b - a) / extreme_width(n)
    elif scenario is Scenario.S2:
        w2 = 0.7 + 0.39 / n
        mean = w2 * (q1 + q3) / 2.0 + (1.0 - w2) * m
        sd = (q3 - q1) / quartile_width(n)
    else:
        w3 = 2.2 / (2.2 + n ** 0.75)
        w4 = 0.7 - 0.72 / n ** 0.55
        mean = (w3 * (a + b) / 2.0 + w4 * (q1 + q3) / 2.0
                + (1.0 - w3 - w4) * m)
        sd = (b - a + q3 - q1) / (extreme_width(n) + quartile_width(n))
    for name, value in (("mean", mean), ("SD", sd)):
        if not math.isfinite(value):
            raise ValueError(f"estimated {name} is {value}: the summary "
                             f"values overflow the float range")
    return mean, sd


def estimate_moments(group: GroupRecord,
                     scenario: Scenario) -> EstimatedMoments:
    """Moments of ``group``: passthrough when reported, otherwise
    :func:`estimate_mean_sd`'s estimates for its scenario.

    ``scenario`` is :func:`model.classify_scenario` of ``group``, which the
    caller has already run: it validates the group, so classifying once
    serves both the symmetry test and the estimate, and the estimate
    judges the group's n and summary no second time.  A ``scenario`` that
    is not the group's own is judged, or refused, as
    :func:`estimate_mean_sd` judges any summary.

    Raises
    ------
    ValueError
        As :func:`estimate_mean_sd` does.
    """
    if scenario is Scenario.DIRECT:
        return EstimatedMoments(mean=group.reported_mean, sd=group.reported_sd,
                                source="reported")
    if group.summary.present_fields() == SCENARIO_FIELDS.get(scenario):
        mean, sd = _mean_sd(group.summary, scenario, group.n)
    else:
        mean, sd = estimate_mean_sd(group.summary, scenario, group.n)
    return EstimatedMoments(mean=mean, sd=sd, source="estimated",
                            scenario=scenario)
