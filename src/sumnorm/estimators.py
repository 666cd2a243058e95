"""Sample mean and SD estimation from quantile summaries.

:func:`estimate_mean_sd` takes a summary, its scenario and n, and holds
the formulas of all three scenarios.  The SD estimates divide the
reported spreads by the expected widths of standard-normal order
statistics, :func:`normal.extreme_width` for the range and
:func:`normal.quartile_width` for the interquartile range.  The mean
estimates are the published optimal weightings of mid-range,
mid-quartile range, and median; their weights are adopted here as fixed
constants.  It refuses a summary its scenario cannot read, and
:func:`estimate_moments` calls it for a group's scenario.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import (SCENARIO_FIELDS, SUMMARY_FIELDS, GroupRecord,
                    QuantileSummary, Scenario)
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
        If the summary lacks a field the scenario reads or is unordered,
        or n is below the scenario's minimum or past the float range; or
        if an estimate is not finite: a summary value is inf or nan, or
        the values lie near the float limit.
    """
    if scenario not in SCENARIO_FIELDS:
        raise ValueError(f"no estimator for scenario {scenario}")
    names, n_min = SCENARIO_FIELDS[scenario]
    read = {name: getattr(summary, name) for name in names}
    if None in read.values():
        *rest, last = [name for name, value in read.items() if value is None]
        raise ValueError(f"{scenario.value} estimation needs "
                         f"{', '.join(rest) + ' and ' if rest else ''}{last}")
    values = list(read.values())
    if any(lo > hi for lo, hi in zip(values, values[1:])):
        raise ValueError(f"{scenario.value} estimation needs an ordered "
                         f"summary {' <= '.join(names)}, got {tuple(values)}")
    if n < n_min:
        raise ValueError(f"{scenario.value} estimation needs n >= {n_min}, "
                         f"got n={n}")
    if n > sys.float_info.max:  # n ** 0.75 would raise OverflowError
        raise ValueError("n overflows the float range")
    a, q1, m, q3, b = map(dict(zip(names, values)).get, SUMMARY_FIELDS)
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
    :func:`estimate_mean_sd` for its scenario.

    ``scenario`` is :func:`model.classify_scenario` of ``group``, which the
    caller has already run: it validates the group, so classifying once
    serves both the symmetry test and the estimate.

    Raises
    ------
    ValueError
        As :func:`estimate_mean_sd` does.
    """
    if scenario is Scenario.DIRECT:
        return EstimatedMoments(mean=group.reported_mean, sd=group.reported_sd,
                                source="reported")
    mean, sd = estimate_mean_sd(group.summary, scenario, group.n)
    return EstimatedMoments(mean=mean, sd=sd, source="estimated",
                            scenario=scenario)
