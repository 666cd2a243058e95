"""Scalar standard-normal primitives, on the standard library alone.

Only the standard normal is needed: the quantile function, two-sided
p-values, the critical value used by the symmetry tests, and the
expected widths of normal order statistics that both the symmetry tests
and the SD estimators divide by.  The quantile function is the standard
library's ``statistics.NormalDist.inv_cdf``, Wichura's algorithm AS 241
(Wichura 1988, Appl. Statist. 37:477), accurate to about 1e-15 relative
error everywhere in (0, 1).  Everything here takes and returns floats;
the array port of the quantile lives with its one user, ``simulate``.
"""

import math
from statistics import NormalDist

__all__ = [
    "std_normal_quantile",
    "two_sided_p",
    "critical_value",
    "extreme_width",
    "quartile_width",
]

_SQRT2 = math.sqrt(2.0)
_STD_NORMAL = NormalDist()


def std_normal_quantile(p: float) -> float:
    """Quantile function Phi^-1 of N(0, 1).

    Parameters
    ----------
    p : float
        Probability strictly inside (0, 1).

    Returns
    -------
    float
        z with ``Phi(z) == p``, to about 1e-15 relative error.

    Raises
    ------
    ValueError
        If ``p`` is outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got p={p!r}")
    return _STD_NORMAL.inv_cdf(p)


def two_sided_p(t: float) -> float:
    """Two-sided tail probability 2 * (1 - Phi(|t|)) of a statistic ``t``.

    Computed as ``erfc(|t| / sqrt(2))`` so small p-values keep full
    relative accuracy.  Equals 1 at t = 0.
    """
    return math.erfc(abs(t) / _SQRT2)


def critical_value(alpha: float) -> float:
    """Two-sided rejection threshold at significance level ``alpha``.

    At the conventional alpha = 0.05 the literal 1.96 is returned, the
    threshold quoted by the screening procedure; other levels use the
    exact quantile -Phi^-1(alpha/2), which keeps its precision where
    1 - alpha/2 would round to 1 (alpha below about 2.2e-16).  alpha = 1
    is allowed as a degenerate limit (the threshold collapses to 0, so
    any nonzero statistic rejects); an alpha whose half underflows to 0
    is not.
    """
    if not (alpha / 2.0 > 0.0 and alpha <= 1.0):
        raise ValueError(
            f"alpha must lie in (0, 1] with alpha/2 > 0, got alpha={alpha!r}")
    if alpha == 0.05:
        return 1.96
    return -std_normal_quantile(alpha / 2.0)


def extreme_width(n: int) -> float:
    """Expected range of ``n`` standard-normal draws.

    2 * Phi^-1((n - 0.375)/(n + 0.25)), with (n - 0.375)/(n + 0.25)
    the expected CDF position of the sample maximum.

    Raises
    ------
    ValueError
        If that position rounds to 1, first at n = 2**52 + 1.
    """
    p = (n - 0.375) / (n + 0.25)
    if p == 1.0:
        raise ValueError(
            f"n={n} is too large for the expected normal range: "
            f"(n - 0.375)/(n + 0.25) rounds to 1 above n = 2**52")
    return 2.0 * std_normal_quantile(p)


def quartile_width(n: int) -> float:
    """Expected interquartile range of ``n`` standard-normal draws.

    2 * Phi^-1((0.75n - 0.125)/(n + 0.25)), with (0.75n - 0.125)/(n + 0.25)
    the expected CDF position of the third sample quartile.
    """
    return 2.0 * std_normal_quantile((0.75 * n - 0.125) / (n + 0.25))
