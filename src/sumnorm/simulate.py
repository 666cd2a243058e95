"""Monte-Carlo harness: rejection-rate curves and the skew demo.

:func:`power_curve` gives the rejection rate of a scenario's test under
any distribution; under the standard normal, the null, that rate is the
type I error.

Replicates are drawn in fixed-size chunks, each chunk from its own
generator seeded by (seed, n, chunk index).  Results are therefore
deterministic regardless of scheduling or chunk parallelism, and the
rate at a given n does not depend on which other n values share the
grid.  The order-statistic asymptotics behind the tests are checked by
the acceptance scorecard from ``_summary_matrix``, not here.

A curve's unit of work is one chunk of one cell (one n), in two stages:
its draw (``_draw_chunk``), the chunk's gamma rows or the sort path's
order statistics, and its count, which maps that draw and no other
(``_summary_matrix``) and counts the statistic's rejections.  A cell's
whole matrix, which only the tests and the scorecard take, is the same
maps stacked in chunk order (``tests/matrices.py``).  The calling
thread and one helper thread per further usable CPU
(``os.sched_getaffinity``) share the stages.
The draws start in grid order, then chunk order.  A free thread counts
the lowest drawn chunk when no draw can start, or when as many chunks
are drawn or being drawn, and not yet taken, as there are threads;
otherwise it starts the next draw.  numpy's samplers release the
interpreter lock and the count's short ufunc calls mostly hold it, so
the next chunk's draw on one thread overlaps counts on another: three
one-chunk cells on two CPUs run as two draws, then the third draw
beside the first two counts, then the third count.  On one CPU each
unit is drawn, then counted.  The helpers start with the first curve
that needs them and stay parked between curves, and a helper slowed by
other load on its CPU holds up the curve by at most one chunk.  A unit
reads only its own stream and returns two counts, its rejections and
its non-finite statistics; a cell's rate is its rejections over the
replicates, the same float as the mean of the rejection flags, so a
curve is the same at any CPU count.  After a cell fails no stage of a
later cell starts, the failing cell's own units finish so that its
count is whole, and the failure at the lowest grid position is raised,
the one a serial loop would raise.
A stage's working set is a few rows of its chunk: the spacings path
holds the (4, rows) or (6, rows) gammas, their sum and the (5, rows)
result and maps one order statistic (row) at a time, and the sort path
draws and sorts a chunk ``_SORT_VALUES`` values at a time, all in its
draw stage.  So a curve holds at most one chunk per thread in a stage
and fewer drawn chunks waiting than threads, at any number of
replicates.  A sort block is at least one whole sample, so the sort
path holds 2 MiB of values or one sample of n, whichever is larger.

The map from gammas to order statistics is a run of short ufunc calls
on rows of ``_CHUNK_ROWS`` elements, and the interpreter lock is held
between them, so concurrent maps serialise: on a 2-CPU x86 guest, Phi^-1
of one row took about 160 us on one thread and 300 us on each of two
threads at once, with one Horner pass per polynomial.  So the map is
kept to few calls.  A curve maps only the order statistics its
scenario's statistic reads (``symmetry.READS``), and each of AS 241's
numerator/denominator pairs is evaluated in one Horner pass (220 us a
row on each of two threads).

Each replicate needs at most five order statistics of a sample of n,
and the Renyi representation (Renyi 1953; Devroye 1986, *Non-Uniform
Random Variate Generation*, ch. V) draws them exactly without the
others.  With ranks k_1 <= ... <= k_r and independent standard gammas
G_j of shapes k_1, k_2 - k_1, ..., k_r - k_{r-1} and n + 1 - k_r, the
uniform order statistics are U_(k_i) = (G_1 + ... + G_i) / G with G the
sum of all r + 1, and 1 - U_(k_i) is the sum of the G_j after the i-th
over G.  The ranks are those the statistic reads: a sum of independent
standard gammas of shapes a and b is a standard gamma of shape a + b,
so merging the gaps around an unread rank leaves the joint law of the
read ones exactly as it was.  The family's quantile maps both sums to
the sample scale, each tail from the one of the two that keeps its
precision.  So a row costs r + 1 gammas at any n: four for S1 (min,
median, max) and S2 (q1, median, q3), six for S3 and for the full
five-column matrix.  A chunk draws them gap by gap, one row of an
(r + 1, rows) array per sampler call.  A gap of shape 1 (below a read
minimum, above a read maximum, and between adjacent ranks at small n)
takes standard_exponential, which is what standard_gamma calls at shape
1, so the values and the stream position are the same at less cost; the
others take standard_gamma.  The map forms the running sums G_1 + ... +
G_i and G_{i+1} + ... + G_{r+1} by adding whole rows in place, and G as
the last lower sum plus G_{r+1}: the additions that summing the rows
makes, in the same order, made once.  The families with a closed-form
or Phi^-1-based quantile take this path: normal, lognormal,
exponential, Weibull, chi-square(1) and beta(1, b), which covers
``POWER_ALTERNATIVES``.  Chi-square with other degrees of freedom and
beta(a != 1, b) sort whole samples instead, and so does the demo,
which needs every value.  T1, T2 and T3 each divide a contrast of the
summary by a spread of it, so none changes under y -> a + b * y with
b > 0.  So this path maps through each family's standard member,
normal(0, 1), lognormal(0, sigma), exponential(1) and Weibull(k, 1),
and a curve is the same at every location and scale.

Their Phi^-1 is the AS 241 algorithm (Wichura 1988) of
``normal.std_normal_quantile`` on numpy arrays, same coefficients, same
operation order, taken one order statistic (row) at a time.  Each
rational function's numerator and denominator are the two rows of one
(2, len) Horner evaluation, element for element the scalar code's
operations.  A row is evaluated whole by the branch, central or tail,
that most of its elements take, and the other branch then overwrites
its own few elements, so a row that straddles a branch edge costs about
one branch and every element still gets the operations of its own.
ln(1 - U) for the exponential, Weibull and beta(1, b) quantiles is
split the same way.  No other module imports numpy.

A spacings-path curve counts through a float32 screen wherever its
family's row in ``_FAMILIES`` has an error column for its parameters:
every normal, exponential and chi-square(1) curve, and so every type I
curve and every ``POWER_ALTERNATIVES`` curve.
A unit maps a float32 copy of its gammas through the same
``_summary_matrix`` and ``_statistics``, with float32 copies of the AS
241 coefficients, in about half the float64 map's time.
``_error_bound`` bounds each replicate's |T32 - T|, T32 its float32
statistic and T the float64 one, by (coeff(n) * w_N + |T32| * w_D) * E
/ (D32 - w_D * E): (w_N, w_D) and D32, the float32 spread, from the
statistic's ``symmetry.FORMULAS`` row, and E a bound on one read order
statistic's float32 error, of one shape for every family, whose five
numbers the error column holds.  A replicate whose T32 lies
further than its bound from the critical value is counted from T32.
The rest go through the float64 map, which stays the oracle: 0-5 of a
20000-row chunk at n = 200 to 1000 under the standard normal, about 30
at S2, n = 1e5, and about 1 in 6400 replicates of the power
alternatives at n = 10 to 100.  So does every non-finite T32 and every
replicate past its family's far-tail guard, where a float32 p or 1 - p
nears the subnormal range.  So a unit's two counts, the early stop of
``_run_units`` and every output byte are those of the float64 map.  A
fixed margin would not do: the float32 error grows with coeff(n), to
1e-4 at S2, n = 1e5.  A Weibull shape other than 0.5, 1 and 2, a
lognormal sigma or beta b whose float32 map would overflow or lose
precision, and the sort path map in float64 only.
"""

from __future__ import annotations

import csv
import heapq
import math
import os
import queue
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .estimators import estimate_mean_sd
from .meta import cohen_d
from .model import QuantileSummary, Scenario
from .normal import critical_value
from .symmetry import FORMULAS, READS, statistic

__all__ = [
    "DistSpec",
    "ExperimentResult",
    "DemoResult",
    "POWER_ALTERNATIVES",
    "DEMO_PAIRS",
    "summarize",
    "power_curve",
    "skew_distortion_demo",
    "isotonic_fit_r2",
    "write_experiment_csv",
]

# Fixed chunk height keeps memory bounded without breaking determinism.
_CHUNK_ROWS = 20000
# The sort path draws and sorts a chunk in blocks of this many values
# (2 MiB), or of one sample where n is larger: it holds the larger of
# the two, which grows with n past 2^18.
_SORT_VALUES = 1 << 18

# glibc hands a freed block above its mmap threshold back to the system,
# then raises that threshold to the block's size, and its heap trim
# threshold to twice that, for the rest of the process.  One block the
# size of a chunk's result and its most gamma rows (six: S3 and the full
# matrix; S1 and S2 draw four), freed here, does so once, so that a
# chunk's arrays come from the heap and stay mapped for the next chunk.
# Otherwise the thresholds stay near the largest single array, and the
# ~2 MB a chunk allocates is trimmed and faulted in again, chunk after
# chunk: up to 1000-14000 minor page faults per default --type1 curve
# (S1, S2 or S3, 2 CPUs) without the block.  With it most curves take
# 0-2 and a few up to about 300.
np.empty((5 + 6, _CHUNK_ROWS))

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


# The same pairs as (8, 2, 1) columns, numerator over denominator, for
# ``_horner``: in float64, and rounded to float32 for the screen.
_CENTRAL_PAIR, _NEAR_TAIL_PAIR, _FAR_TAIL_PAIR = (
    {dtype: tuple(np.array(pair, dtype).T[:, :, None])
     for dtype in map(np.dtype, (np.float64, np.float32))}
    for pair in (_CENTRAL, _NEAR_TAIL, _FAR_TAIL))


def _horner(pairs: dict, x: np.ndarray) -> np.ndarray:
    # Both polynomials of a pair at x, as the rows of one (2, len(x))
    # array: half the calls of one pass per polynomial.  In place, in
    # the same operation order as the scalar code, in x's precision.
    pair = pairs[x.dtype]
    y = x * pair[0]
    y += pair[1]
    for c in pair[2:]:
        y *= x
        y += c
    return y


def _central_quantiles(q: np.ndarray) -> np.ndarray:
    # Phi^-1 from q = p - 0.5 with |q| <= 0.425.  The scalar code's
    # operations in its order, in place where it can be, so that fewer
    # rows are held at once.
    r = q * q
    np.subtract(0.180625, r, out=r)
    y = _horner(_CENTRAL_PAIR, r)
    np.multiply(y[0], q, out=r)
    r /= y[1]
    return r


def _rational(pairs: dict, x: np.ndarray) -> np.ndarray:
    # The pair's quotient at x, written over x.
    y = _horner(pairs, x)
    return np.divide(y[0], y[1], out=x)


def _tail_quantiles(s: np.ndarray) -> np.ndarray:
    # |Phi^-1| from s = sqrt(-ln(min(p, 1 - p))) > 0.425's tail, near
    # (s <= 5) and far split as a mixed row's branches are.  Each formula
    # is finite on the other's elements: the far-tail denominator stays
    # above 0.015 for 0.83 <= s <= 5 (any p <= 0.5), and the near-tail one
    # above 82 for s > 5.
    return _by_majority(
        s <= 5.0, lambda i: _rational(_NEAR_TAIL_PAIR, s[i] - 1.6),
        lambda i: _rational(_FAR_TAIL_PAIR, s[i] - 5.0))


def _by_majority(mask: np.ndarray, where_true: Callable,
                 where_false: Callable) -> np.ndarray:
    """``where_true(i)`` on the elements of the 1-D ``mask`` that are
    true and ``where_false(i)`` on the others, each given an index ``i``
    into the row.  The side most elements take runs once on the whole
    row (``i`` is ``...``), and the other side then overwrites its own
    elements (``i`` their positions).  So every element gets the
    operations of its own side, at about the cost of one side when the
    other has few elements.  Ties go to ``where_true``.
    """
    count = np.count_nonzero(mask)
    if 2 * count < len(mask):
        mask, where_true, where_false = ~mask, where_false, where_true
        count = len(mask) - count
    out = where_true(...)
    if count < len(mask):
        rest = np.flatnonzero(~mask)
        out[rest] = where_false(rest)
    return out


def _signed_tails(p: np.ndarray, upper: np.ndarray,
                  lower: np.ndarray) -> np.ndarray:
    # Phi^-1 by the tail formula: from p and negated where ``lower``,
    # from upper = 1 - p elsewhere.
    z = _tail_quantiles(np.sqrt(-np.log(np.where(lower, p, upper))))
    np.negative(z, out=z, where=lower)
    return z


def _quantile_row(p: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Phi^-1 of each element of the 1-D ``p``, within a few ulp of
    ``normal.std_normal_quantile``.

    ``p`` is strictly inside (0, 1), unchecked (the Monte Carlo's inner
    loop).  ``upper`` is 1 - p, computed by the caller without
    cancellation; it is read only where p > 0.5, so the upper tail keeps
    its full relative precision.  A row whose elements all take one
    branch (central, lower tail or upper tail) is evaluated whole.  A
    mixed row is evaluated whole by the branch most of its elements
    take, central or tail, and the other branch then overwrites the
    elements that take it.  Either way every element gets the operations
    of its own branch.
    """
    # The extremes of q = p - 0.5, which rounds monotonically in p, so a
    # tail row never forms q.  initial=: an empty row counts as central.
    lo, hi = p.min(initial=np.inf) - 0.5, p.max(initial=-np.inf) - 0.5
    if lo >= -0.425 and hi <= 0.425:  # all central
        return _central_quantiles(p - 0.5)
    if hi < -0.425:  # all in the lower tail
        return -_tail_quantiles(np.sqrt(-np.log(p)))
    if lo > 0.425:  # all in the upper tail
        return _tail_quantiles(np.sqrt(-np.log(upper)))
    # Each formula is finite on the other's elements: the central
    # denominator stays above 0.002 for |q| <= 0.5, and a central
    # element's s - 1.6 keeps the near-tail denominator above 0.14.
    q = p - 0.5
    return _by_majority(
        np.abs(q) <= 0.425, lambda i: _central_quantiles(q[i]),
        lambda i: _signed_tails(p[i], upper[i], q[i] < 0.0))


def _log_upper(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # ln(1 - U): log1p(-U) for U in the lower half, ln(v) from the exact
    # v = 1 - U above it.
    return _by_majority(u < 0.5, lambda i: np.log1p(-u[i]),
                        lambda i: np.log(v[i]))


def _exponential_row(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # -ln(1 - U), the standard exponential's quantile, negated in place.
    w = _log_upper(u, v)
    return np.negative(w, out=w)


_U32 = float(np.finfo(np.float32).eps) / 2  # float32's unit roundoff
# Past |z| = 12 a float32 p = Phi(-|z|), or 1 - p where the map reads it,
# nears the subnormal range (Phi(-13) < 2^-126), where its relative error
# is no longer about u.  Each family's guard recounts the replicates whose
# lowest or highest read order statistic lies past the image of
# _P_FAR = Phi(-12) or 1 - _P_FAR; ln(1 - U) there is -_W_FAR.
_Z_FAR = 12.0
_P_FAR = 0.5 * math.erfc(_Z_FAR / math.sqrt(2))
_W_FAR = -math.log(_P_FAR)
# float32 holds a number of magnitude 2^-100 to 2^100 to within u of it.
# A lognormal sigma or beta b needs itself and its guard's range inside
# that, so the float32 map neither overflows nor loses relative precision.
_SPAN = 2.0 ** 100


def _inside(*values: float) -> bool:
    return all(1 / _SPAN <= abs(v) <= _SPAN for v in values)


def _lognormal_row(sigma: float) -> tuple | None:
    # y = exp(w), w = sigma * z: w is off by at most sigma * (eps_z + 2 u) *
    # (1 + |z|), 2 u for sigma's rounding and the product; exp adds 6 u
    # (3 ulp) relative and the statistic 15 u y.  So E is at most sigma *
    # (5.4 * gaps + 43) * u * max(F, y_hi * (1 + z_hi)) + 21 u y_hi, as
    # y * (1 + |z|) rises with z >= 0 and is at most F = max(1, e^(sigma -
    # 1) / sigma) over z <= 0.  Inside the guard z <= 12, so y (1 + z) <= 13
    # y, and max(F, X) <= F + X: E <= (13 * 5.4 * sigma * gaps + 13 * 43 *
    # sigma + 21) * u * (y_hi + F / 13).
    if not (_inside(sigma) and _Z_FAR * sigma <= math.log(_SPAN)):
        return None
    floor = max(1.0, math.exp(sigma - 1) / sigma)
    return (13 * 5.4 * sigma, 13 * 43 * sigma + 21, floor / 13,
            math.exp(-_Z_FAR * sigma), math.exp(_Z_FAR * sigma))


def _log_upper_row(slope: float, const: float, below: float, above: float,
                   *params: float) -> tuple | None:
    # A family whose y >= 0 rises with U and is off by at most (slope *
    # gaps + const) * u * y: exponential, Weibull and beta(1, b), all
    # through w = -ln(1 - U).  w is off by (2.9 * gaps + 8) * u * w: p's
    # relative 2 * gaps * u moves log1p(-U) by at most 1.443 times that
    # relative (U <= 0.5), and ln(1 - U) >= ln 2 by 2 * gaps * u absolute
    # (U > 0.5), plus log1p's 2 ulp or log's 4.  The row adds what its own
    # passes cost, and the statistic's 15 u; its offset is 0.  ``params``
    # are those the map rounds to float32.
    if not _inside(above, *params):
        return None
    return slope, const, 0.0, max(below, 1 / _SPAN), above


# family -> (number of parameters, indices that must be > 0, sampler,
# quantile, error).  Parameters: normal mu, sigma; lognormal mu, sigma of
# the underlying normal; chisquare degrees of freedom; exponential rate
# lambda; beta alpha, beta; weibull shape k, scale lambda.  The quantile
# column maps the parameters to the quantile function of one row of
# (U, 1 - U), or to None where the family has no closed form for them.
# It is that of the family's standard member (see the module docstring),
# so no location or scale enters the map.  The error column maps the
# parameters to the five numbers (slope, const, offset, below, above) of
# ``_error_bound``'s bound on one read order statistic's float32 error,
# each row derived beside it, or to None where no bound is known and the
# curve maps in float64 only: the sort path, a Weibull k other than 0.5,
# 1 and 2, where numpy's float32 power is not the correctly rounded
# square, copy or sqrt, and a lognormal sigma or beta b whose float32 map
# overflows or loses precision (``_SPAN``).
_FAMILIES: dict[str, tuple[int, tuple[int, ...], Callable, Callable,
                           Callable]] = {
    # |z32 - z| <= eps_z * (1 + |z|), eps_z = (5.4 * gaps + 41) * u (see
    # ``_error_bound``), and the statistic adds 15 u |z|: E = (5.4 * gaps
    # + 56) * u * (max|z| + 1).  The guard is |z| > 12.
    "normal": (2, (1,), lambda rng, p, shape: rng.normal(p[0], p[1], shape),
               lambda p: _quantile_row,
               lambda p: (5.4, 56, 1.0, -_Z_FAR, _Z_FAR)),
    # exp(sigma * z): z * 1.0 is z, so a unit sigma makes no multiply.
    "lognormal": (2, (1,),
                  lambda rng, p, shape: rng.lognormal(p[0], p[1], shape),
                  lambda p: lambda u, v: np.exp(
                      _quantile_row(u, v) * p[1] if p[1] != 1
                      else _quantile_row(u, v)),
                  lambda p: _lognormal_row(p[1])),
    # chi-square(1) is Z^2 with Phi(Z) = (1 - U) / 2.  y = z^2 from p = V /
    # 2 <= 0.5: z is off by eps_z * (1 + |z|), so y by 2 * eps_z * (|z| +
    # y) <= eps_z * (1 + 3 y), plus u y for the square and the statistic's
    # 15 u y: y_hi * (3 * eps_z + 16 u) + eps_z, at most (16.2 * gaps +
    # 139) * u * (y_hi + 1/3), as (16.2 * gaps + 139) / 3 >= 5.4 * gaps +
    # 41.  y >= 0, so the only guard is |z| > 12 above.
    "chisquare": (1, (0,), lambda rng, p, shape: rng.chisquare(p[0], shape),
                  lambda p: None if p[0] != 1 else lambda u, v: (
                      _quantile_row(v / 2, (1 + u) / 2) ** 2),
                  lambda p: None if p[0] != 1 else (
                      16.2, 139, 1 / 3, -math.inf, _Z_FAR ** 2)),
    # y = w: w's (2.9 * gaps + 8) * u * y and the statistic's 15 u y.
    "exponential": (1, (0,),
                    lambda rng, p, shape: rng.exponential(1.0 / p[0], shape),
                    lambda p: _exponential_row,
                    lambda p: _log_upper_row(2.9, 23, _P_FAR, _W_FAR)),
    # y = 1 - e^m, m = -w / b: b's rounding and the quotient add 2 u to m,
    # |dy| = e^m |dm| <= y |dm| / |m|, and expm1 adds 3 ulp: (2.9 * gaps
    # + 10 + 6 + 15) * u * y.
    "beta": (2, (0, 1), lambda rng, p, shape: rng.beta(p[0], p[1], shape),
             lambda p: None if p[0] != 1 else lambda u, v: (
                 -np.expm1(_log_upper(u, v) / p[1])),
             lambda p: None if p[0] != 1 else _log_upper_row(
                 2.9, 31, -math.expm1(-_P_FAR / p[1]),
                 -math.expm1(-_W_FAR / p[1]), p[1])),
    # y = w^(1/k): w's error over k, 1 u for the square or sqrt and the
    # statistic's 15 u.
    "weibull": (2, (0, 1),
                lambda rng, p, shape: p[1] * rng.weibull(p[0], shape),
                lambda p: lambda u, v: _exponential_row(u, v) ** (1 / p[0]),
                lambda p: None if p[0] not in (0.5, 1, 2) else (
                    _log_upper_row(2.9 / p[0], 8 / p[0] + 16,
                                   _P_FAR ** (1 / p[0]),
                                   _W_FAR ** (1 / p[0])))),
}


@dataclass(frozen=True)
class DistSpec:
    """A sampling distribution with its family-specific parameters."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose from "
                f"{sorted(_FAMILIES)}")
        arity, positive, *_ = _FAMILIES[self.family]
        p = self.params
        if len(p) != arity:
            raise ValueError(
                f"{self.family} takes {arity} parameter(s), got {p}")
        if not (all(map(math.isfinite, p))
                and all(p[i] > 0 for i in positive)):
            raise ValueError(f"invalid parameters {p} for family {self.family!r}")

    @staticmethod
    def parse(text: str) -> "DistSpec":
        """Build a spec from CLI syntax like ``lognormal:0,1``."""
        family, _, rest = text.partition(":")
        if not rest:
            raise ValueError(
                f"distribution {text!r} must look like 'family:p1[,p2]'")
        try:
            params = tuple(float(tok) for tok in rest.split(","))
        except ValueError:
            raise ValueError(f"non-numeric parameters in {text!r}") from None
        return DistSpec(family=family.strip().lower(), params=params)

    def param_text(self) -> str:
        """The parameters as ``p1,p2``, each its round-trip repr less a
        trailing ".0", so the text parses back to the same spec."""
        return ",".join(repr(float(p)).removesuffix(".0")
                        for p in self.params)

    def label(self) -> str:
        return f"{self.family}({self.param_text()})"


def _draw(dist: DistSpec, rng: np.random.Generator, shape,
          gaps: np.ndarray | None = None) -> np.ndarray:
    """Every variate of this module: ``shape`` draws from ``dist``, or,
    given the rank ``gaps`` of the spacings path (one more than the
    order statistics read), a ``shape`` array whose i-th row holds
    standard gammas of shape ``gaps[i]``, a row of shape 1 drawn by the
    exponential sampler that standard_gamma itself calls there."""
    if gaps is None:
        return _FAMILIES[dist.family][2](rng, dist.params, shape)
    # Row by row in C order: the stream of one broadcast
    # standard_gamma(gaps[:, None], shape) call, without its iterator.
    # At shape 1 numpy's standard_gamma returns its standard_exponential
    # draw, so a shape-1 row takes that sampler directly: the same values
    # and stream position, without the gamma sampler's per-value checks.
    g = np.empty(shape)
    for k, row in zip(gaps, g):
        if k == 1:
            rng.standard_exponential(out=row)
        else:
            rng.standard_gamma(k, out=row)
    return g


def _generator(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, *stream])))


def _order_columns(n: int) -> list[int]:
    # 0-based positions of the minimum, the [0.25n], [0.5n], [0.75n]
    # order statistics and the maximum.  Every caller gets its n >= 4
    # check here; from n = 4 every 1-based index is at least 1.
    if n < 4:
        raise ValueError(f"n={n} is below the scenario minimum: a "
                         f"five-number summary needs n >= 4")
    return [0, int(0.25 * n) - 1, int(0.5 * n) - 1, int(0.75 * n) - 1, n - 1]


def summarize(sorted_sample: np.ndarray) -> QuantileSummary:
    """Five-number summary using the [np]-th order-statistic convention."""
    x = np.asarray(sorted_sample)
    a, q1, m, q3, b = x[_order_columns(x.shape[-1])]
    return QuantileSummary(min=a, q1=q1, median=m, q3=q3, max=b)


def _draw_chunk(dist: DistSpec, n: int, replicates: int, seed: int,
                chunk: int, reads: Sequence[int]) -> np.ndarray:
    """The draw stage of one chunk of a cell, from its (seed, n, chunk)
    stream: the spacings path's (len(gaps), rows) standard gammas, or the
    sort path's (5, rows) order statistics, which that path finds here
    whole.  ``_summary_matrix`` maps the result."""
    columns = _order_columns(n)
    rng = _generator(seed, n, chunk)
    rows = min(_CHUNK_ROWS, replicates - chunk * _CHUNK_ROWS)
    if _FAMILIES[dist.family][3](dist.params) is None:
        # A Generator fills in C order, so drawing the chunk's samples a
        # block at a time takes the same values from its stream as
        # drawing them at once.
        part = np.empty((len(columns), rows))
        block = max(1, _SORT_VALUES // n)
        for lo in range(0, rows, block):
            x = _draw(dist, rng, (min(block, rows - lo), n))
            x.sort(axis=1)
            part[:, lo:lo + len(x)] = x[:, columns].T
            del x  # not held while the next block is drawn
        return part
    # Gamma shapes: the gaps between 0, the 1-based ranks read and n + 1.
    # A gap is 0 where read ranks tie (S3 at n = 4..7); that gamma is
    # exactly 0.  One row per gap, so every sum runs along contiguous
    # memory.
    gaps = np.diff([0, *(columns[i] + 1 for i in reads), n + 1])
    return _draw(dist, rng, (len(gaps), rows), gaps)


def _summary_matrix(dist: DistSpec, drawn: np.ndarray,
                    reads: Sequence[int]) -> np.ndarray:
    """The map stage of a curve's unit: the (rows, 5) [min, q1, median,
    q3, max] rows of one chunk's ``drawn``, from ``_draw_chunk``.

    Spacings when the family has a quantile (see the module docstring),
    sorted samples otherwise.  A map is the transpose of a (5, rows)
    array filled a row at a time.  The spacings path draws gammas for the
    gaps between the ascending positions in ``reads`` only, maps those
    positions through the quantile of the family's standard member (its
    rows are ``dist``'s up to location and scale) and fills the others
    with NaN, so a statistic that reads an unmapped position is not
    finite.  Its draws therefore depend on ``reads``: the read columns
    have the same joint law for any ``reads``, not the same values.  The
    sort path's draw is already its five order statistics, the same
    values for any ``reads``; its map is that draw's transpose, not a
    copy.  The spacings path maps in ``drawn``'s precision, float64 or
    the screen's float32, and overwrites ``drawn`` with its upper sums,
    so a draw maps once.
    """
    quantile = _FAMILIES[dist.family][3](dist.params)
    if quantile is None:
        return drawn.T
    out = np.empty((5, drawn.shape[1]), drawn.dtype)
    # The running sums add whole rows in place, the additions of
    # np.cumsum along axis 0 at a fraction of its cost there: G_1 + ... +
    # G_j into out's row of the j-th read rank, G_{j+1} + ... + G_k into
    # drawn's, k = len(gaps).  The total G is the last lower sum plus the
    # last gap: the additions of drawn.sum(axis=0), in its order, made
    # once.
    out[reads[0]] = drawn[0]
    for j in range(1, len(reads)):
        np.add(drawn[j], out[reads[j - 1]], out=out[reads[j]])
    total = out[reads[-1]] + drawn[-1]
    above = drawn[1:]
    for j in range(len(above) - 2, -1, -1):
        above[j] += above[j + 1]
    for i in reads:
        out[i] /= total
    above /= total
    del total  # one row less to hold while the quantiles run
    for i, upper in zip(reads, above):
        out[i] = quantile(out[i], upper)
    unread = [i for i in range(5) if i not in reads]
    if unread:
        out[unread] = np.nan
    return out.T


def _statistics(scenario: Scenario, summaries: np.ndarray,
                n: int) -> np.ndarray:
    return statistic(scenario, *summaries.T, n)


def _error_bound(scenario: Scenario, error: tuple, summaries: np.ndarray,
                 stats: np.ndarray, n: int) -> np.ndarray:
    """Per replicate, a bound on |T32 - T|, inf where none is known.

    ``summaries`` is the float32 map of a draw and ``stats`` its
    statistics T32; T is the statistic of the float64 map of the same
    draw.  The bound is (coefficient(n) * w_N + |T32| * w_D) * E /
    (D32 - w_D * E), with (w_N, w_D) the weights of the statistic's
    ``symmetry.FORMULAS`` row, D32 the float32 spread and E the float32
    error of one order statistic y the statistic reads.  Every family's
    E has one shape, from the five numbers (slope, const, offset, below,
    above) of its error column (``_FAMILIES``):

        E = (slope * gaps + const) * u * (max(-y_lo, y_hi) + offset),

    gaps = len(reads) + 1 and y_lo, y_hi the lowest and highest read y,
    and E is inf where y_lo < below or y_hi > above, the family's
    far-tail guard.  max(-y_lo, y_hi) is y_hi where y >= 0.  The map is of
    the family's standard member, so no location or scale parameter
    enters E.  Each row's derivation, beside it, takes E from these
    shares, to first order in float32's unit roundoff u:

    * p, or 1 - p where the map reads it, is off by a relative 2 * gaps
      * u at most: the gamma rows' roundings to float32, at most
      gaps - 1 additions in each of its two sums, and the quotient.
    * Phi^-1 carries a relative error r of p to at most r * p / phi(z)
      <= 2.68 * r * (1 + |z|) in the central branch, most at its edge
      p = 0.925, and 0.22 * r * (1 + |z|) in the tails.
    * Evaluating the port in float32 adds 41 * u * (1 + |z|) at most:
      32 u relative for a pair's Horner passes (positive coefficients
      at a positive argument), their quotient and the product by q, and
      the roundings of q and r, or of s, its log and its constant,
      carried through the slope.  So |z32 - z| <= eps_z * (1 + |z|),
      eps_z = (5.4 * gaps + 41) * u.
    * Each elementary function adds the float32 tolerance of numpy's own
      tests, ``numpy/_core/tests/data/umath-validation-set-*.csv``: 4
      ulp (8 u relative) for log, 3 for exp, 2 for log1p and 3 for
      expm1.  NumPy's float32 kernels are chosen for the CPU, and those
      tables are what each is held to.  ``TestFloat32Quantile`` checks
      the port's 41 u on a fixed sample of float32 inputs of every
      branch, and the screen tests check each column's whole bound, with
      the headroom measured for that column, on the host that runs them.
    * 15 u * max|y| covers the contrast's and the spread's float32 sums
      (4 u), the statistic's product and quotient, the critical value's
      rounding, this bound's own arithmetic, the float64 map's own error
      and second-order terms (11 u).

    A guard lies at the image of a p or 1 - p of Phi(-12) (``_Z_FAR``).
    Where D32 is within w_D * E of zero the bound is inf too; a
    non-finite T32 gives nan or inf.
    """
    x = summaries.T
    reads = READS[scenario]
    slope, const, offset, below, above = error
    # The map is monotone up to its own rounding, and each row's error is
    # largest at one end of the ranks the statistic reads.
    lo, hi = x[reads[0]], x[reads[-1]]
    e = np.negative(lo)
    np.maximum(e, hi, out=e)
    e += offset
    e *= (slope * (len(reads) + 1) + const) * _U32
    e[(lo < below) | (hi > above)] = np.inf
    coefficient, _, spread, (w_contrast, w_spread) = FORMULAS[scenario]
    margin = spread(*x) - w_spread * e
    # A spread within its error of zero bounds nothing: inf, or nan.
    np.maximum(margin, 0.0, out=margin)
    bound = np.abs(stats)
    bound *= w_spread
    bound += coefficient(n) * w_contrast
    bound *= e
    bound /= margin
    return bound


@dataclass(frozen=True)
class ExperimentResult:
    """Rejection-rate curve of one scenario against one distribution."""

    scenario: Scenario
    dist: DistSpec
    n_grid: tuple[int, ...]
    rates: tuple[float, ...]
    ses: tuple[float, ...]  # Monte-Carlo standard error per point
    replicates: int
    alpha: float
    seed: int


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Helper threads live as long as the process, parked on one task queue.
# A thread that exits can hand its malloc arena back to the C library
# after ``Thread.join`` has returned; a helper started in that window
# gets a new arena, which then keeps about 3 MB of freed memory for good.
_helper_tasks: queue.SimpleQueue = queue.SimpleQueue()
_helpers: list[threading.Thread] = []
_helpers_lock = threading.Lock()


def _helper(tasks: queue.SimpleQueue) -> None:
    for task in iter(tasks.get, None):  # None stops the thread
        task()


def _on_helpers(task: Callable[[], None], count: int) -> threading.Semaphore:
    """Queue ``count`` runs of ``task`` for the helper threads, first
    starting helpers until ``count`` are alive.  The returned semaphore
    is released once per finished run."""
    done = threading.Semaphore(0)

    def run() -> None:
        try:
            task()
        finally:
            done.release()

    with _helpers_lock:
        _helpers[:] = [thread for thread in _helpers if thread.is_alive()]
        for _ in range(count - len(_helpers)):
            thread = threading.Thread(target=_helper, args=(_helper_tasks,),
                                      daemon=True)
            thread.start()
            _helpers.append(thread)
    for _ in range(count):
        _helper_tasks.put(run)
    return done


def _run_units(draw: Callable[[int, int], np.ndarray],
               count: Callable[[int, int, np.ndarray], tuple[int, int]],
               cells: int, chunks: int) -> list:
    """Per cell, the sums over its chunks of ``count(cell, chunk,
    draw(cell, chunk)) = (rejections, non-finite statistics)``.

    A (cell, chunk) unit runs in two stages, its draw and its count, not
    necessarily on one thread.  The draws start in cell order, then
    chunk order.  The calling thread and ``min(units, _usable_cpus()) -
    1`` helper threads each take the lowest drawn chunk waiting for its
    count when no draw can start, or when the chunks drawn or being drawn
    and not yet taken number as many as the threads; otherwise each
    starts the next draw.  A thread stops when neither is left.  So one
    thread draws while another counts, fewer drawn chunks wait than there
    are threads, and on one thread each unit is drawn, then counted.
    Once a cell has a non-finite statistic, or a stage of it raises, no
    stage of a later cell starts; the cell's own units started their
    draws before any later cell's, and still finish, so its counts are
    whole.  A cell's entry is its ``[rejections, non-finite]`` sums, or
    the exception one of its stages raised; the entries of cells after
    the first that failed are not complete.
    """
    results: list = [[0, 0] for _ in range(cells)]
    units = iter([(cell, chunk) for cell in range(cells)
                  for chunk in range(chunks)])
    following = next(units, None)  # the next unit to draw
    waiting: list = []  # heap of drawn (cell, chunk, draw) not yet taken
    drawing = 0
    threads = min(cells * chunks, _usable_cpus())
    lock = threading.Lock()
    last = cells - 1  # the last cell whose stages still start

    def work() -> None:
        nonlocal following, drawing, last
        while True:
            with lock:
                can_draw = following is not None and following[0] <= last
                if (waiting and waiting[0][0] <= last and (
                        not can_draw or len(waiting) + drawing >= threads)):
                    cell, chunk, drawn = heapq.heappop(waiting)
                elif can_draw:  # drawn None: this thread draws the unit
                    (cell, chunk), drawn = following, None
                    following = next(units, None)
                    drawing += 1
                else:
                    return
            try:
                if drawn is None:
                    drawn = draw(cell, chunk)
                    with lock:
                        drawing -= 1
                        heapq.heappush(waiting, (cell, chunk, drawn))
                    continue
                rejections, bad = count(cell, chunk, drawn)
            except Exception as exc:  # raised by the caller, in cell order
                with lock:
                    if drawn is None:  # the draw raised
                        drawing -= 1
                    results[cell] = exc
                    last = min(last, cell)
                continue
            with lock:
                if bad:
                    last = min(last, cell)
                if isinstance(results[cell], list):
                    results[cell][0] += rejections
                    results[cell][1] += bad

    helpers = max(0, threads - 1)
    done = _on_helpers(work, helpers)
    try:
        work()
    except BaseException:
        last = -1  # an interrupted caller stops the helpers too
        raise
    finally:
        for _ in range(helpers):
            done.acquire()
    return results


def _rejection_curve(scenario: Scenario, dist: DistSpec,
                     n_grid: Sequence[int], replicates: int, alpha: float,
                     seed: int) -> ExperimentResult:
    if replicates < 1:
        raise ValueError(f"replicates must be positive, got {replicates}")
    for n in n_grid:  # the whole grid, before any draw
        _order_columns(n)
    crit = critical_value(alpha)
    reads = READS.get(scenario)
    if reads is None:
        raise ValueError(f"no test statistic for scenario {scenario}")

    # Draws that overflow, or round to a zero spread, give inf or nan
    # statistics; a nan would count as "retain", so the cell is refused.
    # The error state is per thread, so each stage sets it.
    def draw(i: int, chunk: int) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _draw_chunk(dist, n_grid[i], replicates, seed, chunk,
                               reads)

    # Where the family's row has an error column for these parameters, a
    # unit first maps a float32 copy of its draw and counts each
    # replicate that ``_error_bound`` decides from its statistic there.
    # The float64 map counts the others, and every non-finite float32
    # statistic is among them.
    error = _FAMILIES[dist.family][4](dist.params)

    def count(i: int, chunk: int, drawn: np.ndarray) -> tuple[int, int]:
        n = n_grid[i]
        rejections = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if error is not None:
                summaries = _summary_matrix(dist, drawn.astype(np.float32),
                                            reads)
                stats = _statistics(scenario, summaries, n)
                over = np.abs(stats) - crit
                bound = _error_bound(scenario, error, summaries, stats, n)
                rejections = int(np.count_nonzero(over > bound))
                undecided = np.flatnonzero(
                    ~(np.abs(over, out=over) > bound))
                if not len(undecided):
                    return rejections, 0
                drawn = drawn[:, undecided]
            summaries = _summary_matrix(dist, drawn, reads)
            stats = _statistics(scenario, summaries, n)
            return (rejections + int(np.count_nonzero(np.abs(stats) > crit)),
                    int(np.count_nonzero(~np.isfinite(stats))))

    rates = []
    for n, result in zip(n_grid, _run_units(
            draw, count, len(n_grid), -(-replicates // _CHUNK_ROWS))):
        if isinstance(result, MemoryError):  # the sort path's one sample
            raise ValueError(f"{dist.label()} at n={n}: {result}") from None
        if isinstance(result, Exception):
            raise result
        rejections, bad = result
        if bad:
            raise ValueError(
                f"{dist.label()} at n={n}: {bad} of {replicates} statistics "
                f"are not finite; the draws overflow the float range or "
                f"round to a zero spread")
        # The np.mean of the rejection flags: their float sum is exact.
        rates.append(rejections / replicates)
    ses = [math.sqrt(rate * (1.0 - rate) / replicates) for rate in rates]
    return ExperimentResult(scenario=scenario, dist=dist,
                            n_grid=tuple(int(n) for n in n_grid),
                            rates=tuple(rates), ses=tuple(ses),
                            replicates=replicates, alpha=alpha, seed=seed)


def power_curve(scenario: Scenario, dist: DistSpec, n_grid: Sequence[int],
                replicates: int, alpha: float = 0.05,
                seed: int = 0) -> ExperimentResult:
    """Rejection rate under ``dist``, per grid point: the type I error
    under ``DistSpec("normal", (0.0, 1.0))``, the power under a skewed
    alternative.  Raises ValueError on a bad argument, on a grid cell
    whose statistics are not all finite, or on one that runs out of
    memory (the sort path holds a whole sample of n)."""
    return _rejection_curve(scenario, dist, n_grid, replicates, alpha, seed)


POWER_ALTERNATIVES = (
    DistSpec("lognormal", (0.0, 1.0)),
    DistSpec("exponential", (1.0,)),
    DistSpec("beta", (1.0, 5.0)),
    DistSpec("chisquare", (1.0,)),
    DistSpec("weibull", (2.0, 1.0)),
)


@dataclass(frozen=True)
class DemoResult:
    """True vs summary-estimated effect size for one simulated pair."""

    case_dist: DistSpec
    control_dist: DistSpec
    n: int
    d_true: float
    d_estimated: float
    gap: float  # d_true - d_estimated


def skew_distortion_demo(case_dist: DistSpec, control_dist: DistSpec,
                         n: int, seed: int) -> DemoResult:
    """Show how summary-based estimation distorts a skewed effect size.

    Draws one sample per arm, computes Cohen's d once from the actual
    sample moments and once from moments estimated out of the
    min/median/max summary, and reports both with their gap.
    """
    case_rng = _generator(seed, 0)
    control_rng = _generator(seed, 1)
    case = np.sort(_draw(case_dist, case_rng, n))
    control = np.sort(_draw(control_dist, control_rng, n))

    d_true = cohen_d(n, float(case.mean()), float(case.std(ddof=1)),
                     n, float(control.mean()), float(control.std(ddof=1))).smd

    case_mean, case_sd = estimate_mean_sd(summarize(case), Scenario.S1, n)
    control_mean, control_sd = estimate_mean_sd(summarize(control),
                                                Scenario.S1, n)
    d_est = cohen_d(n, case_mean, case_sd, n, control_mean, control_sd).smd
    return DemoResult(case_dist=case_dist, control_dist=control_dist, n=n,
                      d_true=d_true, d_estimated=d_est,
                      gap=d_true - d_est)


DEMO_PAIRS = {
    "lognormal": (DistSpec("lognormal", (0.0, 1.0)),
                  DistSpec("lognormal", (1.0, 1.0)), 350),
    "chisquare": (DistSpec("chisquare", (3.0,)),
                  DistSpec("chisquare", (4.0,)), 200),
    "exponential": (DistSpec("exponential", (1.0,)),
                    DistSpec("exponential", (1.5,)), 150),
    "beta": (DistSpec("beta", (2.0, 5.0)),
             DistSpec("beta", (2.0, 7.0)), 300),
    "weibull": (DistSpec("weibull", (1.5, 1.0)),
                DistSpec("weibull", (3.0, 1.0)), 400),
    "normal": (DistSpec("normal", (0.0, 1.0)),
               DistSpec("normal", (1.0, 1.0)), 350),
}


def isotonic_fit_r2(rates: Sequence[float]) -> float:
    """R-squared of the best nondecreasing (isotonic) fit to ``rates``.

    Pool-adjacent-violators with equal weights.  A curve that is already
    nondecreasing scores exactly 1; a flat curve scores 1 by convention
    (zero total variance).
    """
    y = [float(r) for r in rates]
    if not y:
        raise ValueError("rates must be nonempty")
    blocks = []  # [mean, count] of each pooled run
    for v in y:
        blocks.append([v, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            (v1, c1), (v0, c0) = blocks.pop(), blocks[-1]
            blocks[-1] = [(v1 * c1 + v0 * c0) / (c1 + c0), c0 + c1]
    fitted = [v for v, c in blocks for _ in range(c)]
    mean_y = sum(y) / len(y)
    ss_tot = sum((v - mean_y) ** 2 for v in y)
    if ss_tot == 0.0:
        return 1.0
    ss_res = sum((v - f) ** 2 for v, f in zip(y, fitted))
    return 1.0 - ss_res / ss_tot


def write_experiment_csv(result: ExperimentResult, path: str | Path) -> None:
    """Write a curve as ``n,rate,se,replicates,scenario,family,params,seed``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "rate", "se", "replicates", "scenario",
                         "family", "params", "seed"])
        params = result.dist.param_text()
        for n, rate, se in zip(result.n_grid, result.rates, result.ses):
            writer.writerow([n, f"{rate:.6f}", f"{se:.6f}",
                             result.replicates, result.scenario.value,
                             result.dist.family, params, result.seed])
