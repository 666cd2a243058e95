"""Standard-normal primitives shared by every other module.

Only the standard normal is needed: density, distribution function,
quantile function, two-sided p-values, the critical value used by the
symmetry tests, and the expected widths of normal order statistics that
both the symmetry tests and the SD estimators divide by.  The quantile
function follows Acklam's rational approximation refined by one Newton
step on the erfc-based CDF, which keeps the absolute error well below
1e-9 everywhere in (0, 1).
"""

from __future__ import annotations

import math

__all__ = [
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_quantile",
    "two_sided_p",
    "critical_value",
    "extreme_width",
    "quartile_width",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Acklam's minimax coefficients for the initial quantile guess
# (relative error below 1.15e-9 before refinement).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def std_normal_pdf(z: float) -> float:
    """Density of N(0, 1) at ``z``."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def std_normal_cdf(z: float) -> float:
    """Distribution function of N(0, 1) at ``z``.

    Uses ``erfc`` so both tails stay accurate to ~1e-16 relative error;
    absolute error is far below the 1e-12 contract.
    """
    return 0.5 * math.erfc(-z / _SQRT2)


def _quantile_guess(p: float) -> float:
    # Piecewise rational approximation (central region plus two tails).
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
               ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    if p > _P_HIGH:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
                ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
           (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def std_normal_quantile(p: float) -> float:
    """Quantile function of N(0, 1), the inverse of :func:`std_normal_cdf`.

    Parameters
    ----------
    p : float
        Probability strictly inside (0, 1).

    Returns
    -------
    float
        z with ``std_normal_cdf(z) == p`` to within 1e-9.

    Raises
    ------
    ValueError
        If ``p`` is outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got p={p!r}")
    z = _quantile_guess(p)
    # One Newton step against the erfc-based CDF removes the residual
    # ~1e-9 approximation error of the rational guess.
    err = std_normal_cdf(z) - p
    z -= err / std_normal_pdf(z)
    return z


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
