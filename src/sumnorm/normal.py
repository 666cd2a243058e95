"""Standard-normal primitives shared by every other module.

Only the standard normal is needed: the quantile function, two-sided
p-values, the critical value used by the symmetry tests, and the
expected widths of normal order statistics that both the symmetry tests
and the SD estimators divide by.  The quantile function is the standard
library's ``statistics.NormalDist.inv_cdf``, Wichura's algorithm AS 241
(Wichura 1988, Appl. Statist. 37:477), accurate to about 1e-15 relative
error everywhere in (0, 1).  :func:`std_normal_quantiles` is the same
algorithm over numpy arrays, for the Monte Carlo.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = [
    "std_normal_quantile",
    "std_normal_quantiles",
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


# AS 241's rational approximations, coefficients highest power first, as
# in CPython's ``statistics._normal_dist_inv_cdf``: the central one in
# r = 0.180625 - (p - 0.5)^2 for |p - 0.5| <= 0.425, and two tail ones in
# s = sqrt(-ln(min(p, 1 - p))), for s <= 5 and beyond.
_CENTRAL = ((2.5090809287301226727e+3, 3.3430575583588128105e+4,
             6.7265770927008700853e+4, 4.5921953931549871457e+4,
             1.3731693765509461125e+4, 1.9715909503065514427e+3,
             1.3314166789178437745e+2, 3.3871328727963666080e+0),
            (5.2264952788528545610e+3, 2.8729085735721942674e+4,
             3.9307895800092710610e+4, 2.1213794301586595867e+4,
             5.3941960214247511077e+3, 6.8718700749205790830e+2,
             4.2313330701600911252e+1, 1.0))
_NEAR_TAIL = ((7.74545014278341407640e-4, 2.27238449892691845833e-2,
               2.41780725177450611770e-1, 1.27045825245236838258e+0,
               3.64784832476320460504e+0, 5.76949722146069140550e+0,
               4.63033784615654529590e+0, 1.42343711074968357734e+0),
              (1.05075007164441684324e-9, 5.47593808499534494600e-4,
               1.51986665636164571966e-2, 1.48103976427480074590e-1,
               6.89767334985100004550e-1, 1.67638483018380384940e+0,
               2.05319162663775882187e+0, 1.0))
_FAR_TAIL = ((2.01033439929228813265e-7, 2.71155556874348757815e-5,
              1.24266094738807843860e-3, 2.65321895265761230930e-2,
              2.96560571828504891230e-1, 1.78482653991729133580e+0,
              5.46378491116411436990e+0, 6.65790464350110377720e+0),
             (2.04426310338993978564e-15, 1.42151175831644588870e-7,
              1.84631831751005468180e-5, 7.86869131145613259100e-4,
              1.48753612908506148525e-2, 1.36929880922735805310e-1,
              5.99832206555887937690e-1, 1.0))


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    # In place, in the same operation order as the scalar code.
    y = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def std_normal_quantiles(p, upper) -> np.ndarray:
    """Phi^-1 of every element of ``p``, Wichura's AS 241 over arrays.

    Each branch is evaluated only on the elements that take it.

    Parameters
    ----------
    p : array_like
        Probabilities strictly inside (0, 1).  Not checked: this is the
        Monte Carlo's inner loop.
    upper : array_like
        1 - p, of the same shape, computed by the caller without
        cancellation.  It is read only where p > 0.5, so the upper tail
        keeps the full relative precision of ``upper`` instead of that
        of ``1 - p``.

    Returns
    -------
    numpy.ndarray
        Within a few ulp of :func:`std_normal_quantile` elementwise.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    x = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    x[central] = qc * _horner(_CENTRAL[0], r) / _horner(_CENTRAL[1], r)
    tail = ~central
    lower = q[tail] < 0.0
    s = np.sqrt(-np.log(np.where(lower, p[tail], np.asarray(upper)[tail])))
    far = s > 5.0
    near = ~far
    z = np.empty_like(s)
    z[near] = (_horner(_NEAR_TAIL[0], s[near] - 1.6)
               / _horner(_NEAR_TAIL[1], s[near] - 1.6))
    z[far] = (_horner(_FAR_TAIL[0], s[far] - 5.0)
              / _horner(_FAR_TAIL[1], s[far] - 5.0))
    x[tail] = np.where(lower, -z, z)
    return x


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
    exact quantile.  alpha = 1 is allowed as a degenerate limit (the
    threshold collapses to 0, so any nonzero statistic rejects).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got alpha={alpha!r}")
    if alpha == 0.05:
        return 1.96
    return std_normal_quantile(1.0 - alpha / 2.0)


def extreme_width(n: int) -> float:
    """Expected range of ``n`` standard-normal draws.

    2 * Phi^-1((n - 0.375)/(n + 0.25)), with (n - 0.375)/(n + 0.25)
    the expected CDF position of the sample maximum.
    """
    return 2.0 * std_normal_quantile((n - 0.375) / (n + 0.25))


def quartile_width(n: int) -> float:
    """Expected interquartile range of ``n`` standard-normal draws.

    2 * Phi^-1((0.75n - 0.125)/(n + 0.25)), with (0.75n - 0.125)/(n + 0.25)
    the expected CDF position of the third sample quartile.
    """
    return 2.0 * std_normal_quantile((0.75 * n - 0.125) / (n + 0.25))
