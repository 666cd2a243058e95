"""Sample mean and SD estimation from quantile summaries.

:func:`estimate_mean` and :func:`estimate_sd` take a summary, its
scenario and n, and hold the formulas of all three scenarios.  The SD
estimates divide the reported spreads by the expected widths of
standard-normal order statistics, :func:`normal.extreme_width` for the
range and :func:`normal.quartile_width` for the interquartile range.
The mean estimates are the published optimal weightings of mid-range,
mid-quartile range, and median; their weights are adopted here as fixed
constants.  Both refuse a summary their scenario cannot read, and
:func:`estimate_moments` calls both for a group's scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (SCENARIO_FIELDS, GroupRecord, QuantileSummary, Scenario,
                    classify_scenario)
from .normal import extreme_width, quartile_width

__all__ = [
    "EstimatedMoments",
    "estimate_mean",
    "estimate_sd",
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


def _check(summary: QuantileSummary, scenario: Scenario, n: int,
           what: str) -> None:
    """Refuse a summary the ``what`` estimator of ``scenario`` cannot read:
    a field it reads is missing, the fields are unordered, or n is below
    the minimum."""
    if scenario not in SCENARIO_FIELDS:
        raise ValueError(f"no {what} estimator for scenario {scenario}")
    names, n_min = SCENARIO_FIELDS[scenario]
    values = [getattr(summary, name) for name in names]
    if None in values:
        *rest, last = [name for name, value in zip(names, values)
                       if value is None]
        raise ValueError(f"{scenario.value} {what} estimation needs "
                         f"{', '.join(rest) + ' and ' if rest else ''}{last}")
    if any(lo > hi for lo, hi in zip(values, values[1:])):
        raise ValueError(f"{scenario.value} {what} estimation needs an "
                         f"ordered summary {' <= '.join(names)}, got "
                         f"{tuple(values)}")
    if n < n_min:
        raise ValueError(f"{scenario.value} {what} estimation needs "
                         f"n >= {n_min}, got n={n}")


def estimate_mean(summary: QuantileSummary, scenario: Scenario, n: int) -> float:
    """Mean estimate for ``summary`` of ``n`` values under ``scenario``.

    The weights shrink toward the median as n grows:

    * S1: w1 = 4 / (4 + n^0.75) on the mid-range
    * S2: w2 = 0.7 + 0.39 / n on the mid-quartile range
    * S3: w3 = 2.2 / (2.2 + n^0.75) on the mid-range and
      w4 = 0.7 - 0.72 / n^0.55 on the mid-quartile range

    Raises
    ------
    ValueError
        If the summary lacks a field the scenario reads, is unordered,
        or n is below the scenario's minimum.
    """
    _check(summary, scenario, n, "mean")
    m = summary.median
    if scenario is Scenario.S1:
        w1 = 4.0 / (4.0 + n ** 0.75)
        return w1 * (summary.min + summary.max) / 2.0 + (1.0 - w1) * m
    if scenario is Scenario.S2:
        w2 = 0.7 + 0.39 / n
        return w2 * (summary.q1 + summary.q3) / 2.0 + (1.0 - w2) * m
    w3 = 2.2 / (2.2 + n ** 0.75)
    w4 = 0.7 - 0.72 / n ** 0.55
    return (w3 * (summary.min + summary.max) / 2.0
            + w4 * (summary.q1 + summary.q3) / 2.0
            + (1.0 - w3 - w4) * m)


def estimate_sd(summary: QuantileSummary, scenario: Scenario, n: int) -> float:
    """SD estimate for ``summary`` of ``n`` values under ``scenario``.

    Each reported spread is divided by its expected width for n
    standard-normal draws:

    * S1: (b - a) / extreme_width(n)
    * S2: (q3 - q1) / quartile_width(n)
    * S3: (b - a + q3 - q1) / (extreme_width(n) + quartile_width(n))

    Raises
    ------
    ValueError
        If the summary lacks a field the scenario reads, is unordered,
        or n is below the scenario's minimum.
    """
    _check(summary, scenario, n, "SD")
    a, q1, q3, b = summary.min, summary.q1, summary.q3, summary.max
    if scenario is Scenario.S1:
        return (b - a) / extreme_width(n)
    if scenario is Scenario.S2:
        return (q3 - q1) / quartile_width(n)
    return (b - a + q3 - q1) / (extreme_width(n) + quartile_width(n))


def estimate_moments(group: GroupRecord) -> EstimatedMoments:
    """Moments of ``group``: passthrough when reported, otherwise
    :func:`estimate_mean` and :func:`estimate_sd` for its scenario.

    Raises
    ------
    UnsupportedSummaryError
        If :func:`classify_scenario` refuses ``group``.
    ValueError
        If an estimated mean or SD is not finite, because the summary
        values lie near the float limit.
    """
    scenario = classify_scenario(group)
    if scenario is Scenario.DIRECT:
        return EstimatedMoments(mean=group.reported_mean, sd=group.reported_sd,
                                source="reported")
    s, n = group.summary, group.n
    mean = estimate_mean(s, scenario, n)
    sd = estimate_sd(s, scenario, n)
    for name, value in (("mean", mean), ("SD", sd)):
        if not math.isfinite(value):
            raise ValueError(f"estimated {name} is {value}: the summary "
                             f"values overflow the float range")
    return EstimatedMoments(mean=mean, sd=sd, source="estimated",
                            scenario=scenario)
