"""Sample mean and SD estimation from quantile summaries.

The SD estimators divide the reported ranges by the expected widths of
standard-normal order statistics, :func:`normal.extreme_width` for the
range and :func:`normal.quartile_width` for the interquartile range.
The mean estimators are the published optimal weightings of mid-range,
mid-quartile range, and median; their weights are adopted here as fixed
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import GroupRecord, QuantileSummary, Scenario, classify_scenario
from .normal import extreme_width, quartile_width

__all__ = [
    "EstimatedMoments",
    "estimate_sd_s1",
    "estimate_sd_s2",
    "estimate_sd_s3",
    "estimate_mean",
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


def estimate_sd_s1(a: float, b: float, n: int) -> float:
    """SD estimate from minimum ``a`` and maximum ``b``.

    Returns (b - a) / extreme_width(n), the range over the expected
    range of n standard-normal draws.
    """
    if n < 2:
        raise ValueError(f"extreme-based SD estimation needs n >= 2, got n={n}")
    if b < a:
        raise ValueError(f"max must be >= min, got a={a}, b={b}")
    denom = extreme_width(n)
    assert denom > 0.0
    return (b - a) / denom


def estimate_sd_s2(q1: float, q3: float, n: int) -> float:
    """SD estimate from the quartiles.

    Returns (q3 - q1) / quartile_width(n), the IQR over the expected
    IQR of n standard-normal draws.
    """
    if n < 4:
        raise ValueError(f"quartile-based SD estimation needs n >= 4, got n={n}")
    if q3 < q1:
        raise ValueError(f"q3 must be >= q1, got q1={q1}, q3={q3}")
    denom = quartile_width(n)
    assert denom > 0.0
    return (q3 - q1) / denom


def estimate_sd_s3(a: float, q1: float, q3: float, b: float, n: int) -> float:
    """SD estimate from the full five-number summary.

    Pools the range and interquartile range against the sum of their
    expected standard-normal widths.
    """
    if n < 4:
        raise ValueError(f"five-number SD estimation needs n >= 4, got n={n}")
    if not (a <= q1 <= q3 <= b):
        raise ValueError(
            f"summary must be ordered a <= q1 <= q3 <= b, got "
            f"({a}, {q1}, {q3}, {b})")
    denom = extreme_width(n) + quartile_width(n)
    assert denom > 0.0
    return (b - a + q3 - q1) / denom


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
        If the summary lacks the fields the scenario requires.
    """
    m = summary.median
    if scenario is Scenario.S1:
        if summary.min is None or summary.max is None:
            raise ValueError("S1 mean estimation needs min and max")
        w1 = 4.0 / (4.0 + n ** 0.75)
        return w1 * (summary.min + summary.max) / 2.0 + (1.0 - w1) * m
    if scenario is Scenario.S2:
        if summary.q1 is None or summary.q3 is None:
            raise ValueError("S2 mean estimation needs q1 and q3")
        w2 = 0.7 + 0.39 / n
        return w2 * (summary.q1 + summary.q3) / 2.0 + (1.0 - w2) * m
    if scenario is Scenario.S3:
        if None in (summary.min, summary.q1, summary.q3, summary.max):
            raise ValueError("S3 mean estimation needs all five numbers")
        w3 = 2.2 / (2.2 + n ** 0.75)
        w4 = 0.7 - 0.72 / n ** 0.55
        return (w3 * (summary.min + summary.max) / 2.0
                + w4 * (summary.q1 + summary.q3) / 2.0
                + (1.0 - w3 - w4) * m)
    raise ValueError(f"no mean estimator for scenario {scenario}")


def estimate_moments(group: GroupRecord) -> EstimatedMoments:
    """Moments of ``group``: passthrough when reported, estimated otherwise.

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
    if scenario is Scenario.S1:
        sd = estimate_sd_s1(s.min, s.max, n)
    elif scenario is Scenario.S2:
        sd = estimate_sd_s2(s.q1, s.q3, n)
    else:
        sd = estimate_sd_s3(s.min, s.q1, s.q3, s.max, n)
    for name, value in (("mean", mean), ("SD", sd)):
        if not math.isfinite(value):
            raise ValueError(f"estimated {name} is {value}: the summary "
                             f"values overflow the float range")
    return EstimatedMoments(mean=mean, sd=sd, source="estimated",
                            scenario=scenario)
