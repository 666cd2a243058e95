"""Monte-Carlo harness: type I error, power, and the skew demo.

Replicates are drawn in fixed-size chunks, each chunk from its own
generator seeded by (seed, n, chunk index).  Results are therefore
deterministic regardless of scheduling or chunk parallelism, and the
rate at a given n does not depend on which other n values share the
grid.  The order-statistic asymptotics behind the tests are checked by
the acceptance scorecard from ``_summary_matrix``, not here.

Each replicate needs only five order statistics of a sample of n, and
the Renyi representation (Renyi 1953; Devroye 1986, *Non-Uniform Random
Variate Generation*, ch. V) draws them exactly without the other n - 5.
With ranks k_1 <= ... <= k_5 and independent standard gammas G_j of
shapes k_1, k_2 - k_1, ..., k_5 - k_4 and n + 1 - k_5, the uniform order
statistics are U_(k_i) = (G_1 + ... + G_i) / G with G the sum of all
six, and 1 - U_(k_i) is the sum of the G_j after the i-th over G.  The
family's quantile maps both to the sample scale, each tail from the one
of the two that keeps its precision.  So a row costs six gammas at any
n.  The families with a closed-form or Phi^-1-based quantile take this
path: normal, lognormal, exponential, Weibull, chi-square(1) and
beta(1, b), which covers ``POWER_ALTERNATIVES``.  Chi-square with other
degrees of freedom and beta(a != 1, b) sort whole samples instead, and
so does the demo, which needs every value.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .estimators import estimate_mean, estimate_sd
from .meta import cohen_d
from .model import QuantileSummary, Scenario
from .normal import critical_value, std_normal_quantiles
from .symmetry import DEFAULT_KAPPA_C, statistic

__all__ = [
    "DistSpec",
    "ExperimentResult",
    "DemoResult",
    "DEFAULT_N_GRID",
    "POWER_ALTERNATIVES",
    "DEMO_PAIRS",
    "summarize",
    "type1_curve",
    "power_curve",
    "skew_distortion_demo",
    "isotonic_fit_r2",
    "write_experiment_csv",
]

DEFAULT_N_GRID = (10, 25, 50, 100, 200, 300, 400, 500, 750, 1000)

# Fixed chunk height keeps memory bounded without breaking determinism.
_CHUNK_ROWS = 20000


def _log_upper(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # ln(1 - U), from U in the lower half and from 1 - U = v above it.
    return np.where(u < 0.5, np.log1p(-u), np.log(v))


# family -> (number of parameters, indices that must be > 0, sampler,
# quantile).  Parameters: normal mu, sigma; lognormal mu, sigma of the
# underlying normal; chisquare degrees of freedom; exponential rate
# lambda; beta alpha, beta; weibull shape k, scale lambda.  The quantile
# column maps the parameters to the quantile function of (U, 1 - U), or
# to None where the family has no closed form for them.
_FAMILIES: dict[str, tuple[int, tuple[int, ...], Callable, Callable]] = {
    "normal": (2, (1,), lambda rng, p, shape: rng.normal(p[0], p[1], shape),
               lambda p: lambda u, v: (
                   p[0] + p[1] * std_normal_quantiles(u, v))),
    "lognormal": (2, (1,),
                  lambda rng, p, shape: rng.lognormal(p[0], p[1], shape),
                  lambda p: lambda u, v: np.exp(
                      p[0] + p[1] * std_normal_quantiles(u, v))),
    # chi-square(1) is Z^2 with Phi(Z) = (1 - U) / 2.
    "chisquare": (1, (0,), lambda rng, p, shape: rng.chisquare(p[0], shape),
                  lambda p: None if p[0] != 1 else lambda u, v: (
                      std_normal_quantiles(v / 2, (1 + u) / 2) ** 2)),
    "exponential": (1, (0,),
                    lambda rng, p, shape: rng.exponential(1.0 / p[0], shape),
                    lambda p: lambda u, v: -_log_upper(u, v) / p[0]),
    "beta": (2, (0, 1), lambda rng, p, shape: rng.beta(p[0], p[1], shape),
             lambda p: None if p[0] != 1 else lambda u, v: (
                 -np.expm1(_log_upper(u, v) / p[1]))),
    "weibull": (2, (0, 1),
                lambda rng, p, shape: p[1] * rng.weibull(p[0], shape),
                lambda p: lambda u, v: (
                    p[1] * (-_log_upper(u, v)) ** (1 / p[0]))),
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

    def label(self) -> str:
        inner = ",".join(f"{p:g}" for p in self.params)
        return f"{self.family}({inner})"


def _draw(dist: DistSpec, rng: np.random.Generator, shape,
          gaps: np.ndarray | None = None) -> np.ndarray:
    """Every variate of this module: ``shape`` draws from ``dist``, or,
    given the rank ``gaps`` of the spacings path, standard gammas of
    those shapes broadcast to ``shape``."""
    if gaps is None:
        return _FAMILIES[dist.family][2](rng, dist.params, shape)
    return rng.standard_gamma(gaps, shape)


def _generator(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, *stream])))


def _order_columns(n: int) -> list[int]:
    # 0-based positions of the minimum, the [0.25n], [0.5n], [0.75n]
    # order statistics and the maximum.  Callers require n >= 4, so
    # every 1-based index is at least 1.
    return [0, int(0.25 * n) - 1, int(0.5 * n) - 1, int(0.75 * n) - 1, n - 1]


def summarize(sorted_sample: np.ndarray) -> QuantileSummary:
    """Five-number summary using the [np]-th order-statistic convention."""
    x = np.asarray(sorted_sample)
    n = x.shape[-1]
    if n < 4:
        raise ValueError(f"summarize needs n >= 4, got n={n}")
    a, q1, m, q3, b = (float(v) for v in x[_order_columns(n)])
    return QuantileSummary(min=a, q1=q1, median=m, q3=q3, max=b)


def _summary_matrix(dist: DistSpec, n: int, replicates: int,
                    seed: int) -> np.ndarray:
    """(replicates, 5) matrix of [min, q1, median, q3, max] rows.

    Spacings when the family has a quantile (see the module docstring),
    whole sorted samples otherwise; both on the (seed, n, chunk) streams.
    """
    columns = _order_columns(n)
    quantile = _FAMILIES[dist.family][3](dist.params)
    # Gamma shapes: the gaps between 0, the 1-based ranks and n + 1.  A
    # gap is 0 where ranks tie (n = 4..7); that gamma is exactly 0.
    gaps = np.diff([0, *(k + 1 for k in columns), n + 1])
    blocks = []
    for chunk_index, done in enumerate(range(0, replicates, _CHUNK_ROWS)):
        rng = _generator(seed, n, chunk_index)
        rows = min(_CHUNK_ROWS, replicates - done)
        if quantile is None:
            x = _draw(dist, rng, (rows, n))
            x.sort(axis=1)
            blocks.append(x[:, columns])
            continue
        # One row per gap, so every sum runs along contiguous memory.
        g = _draw(dist, rng, (len(gaps), rows), gaps[:, None])
        total = g.sum(axis=0)
        below = np.cumsum(g[:-1], axis=0)
        above = np.cumsum(g[:0:-1], axis=0)[::-1]
        blocks.append(quantile(below / total, above / total).T)
    return np.concatenate(blocks)


def _statistics(scenario: Scenario, summaries: np.ndarray, n: int,
                kappa_c: float) -> np.ndarray:
    return statistic(scenario, *summaries.T, n, kappa_c)


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
    kappa_c: float = DEFAULT_KAPPA_C


def _rejection_curve(scenario: Scenario, dist: DistSpec,
                     n_grid: Sequence[int], replicates: int, alpha: float,
                     seed: int, kappa_c: float) -> ExperimentResult:
    if replicates < 1:
        raise ValueError("replicates must be positive")
    for n in n_grid:
        if n < 4:  # every scenario is drawn from a five-number summary
            raise ValueError(f"n={n} is below the scenario minimum 4")
    crit = critical_value(alpha)
    rates = []
    ses = []
    for n in n_grid:
        # Draws that overflow, or round to a zero spread, give inf or nan
        # statistics; a nan would count as "retain", so the cell is refused.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            summaries = _summary_matrix(dist, n, replicates, seed)
            stats = _statistics(scenario, summaries, n, kappa_c)
        bad = int(np.count_nonzero(~np.isfinite(stats)))
        if bad:
            raise ValueError(
                f"{dist.label()} at n={n}: {bad} of {replicates} statistics "
                f"are not finite; the draws overflow the float range or "
                f"round to a zero spread")
        rate = float(np.mean(np.abs(stats) > crit))
        rates.append(rate)
        ses.append(math.sqrt(rate * (1.0 - rate) / replicates))
    return ExperimentResult(scenario=scenario, dist=dist,
                            n_grid=tuple(int(n) for n in n_grid),
                            rates=tuple(rates), ses=tuple(ses),
                            replicates=replicates, alpha=alpha, seed=seed,
                            kappa_c=kappa_c)


def type1_curve(scenario: Scenario, n_grid: Sequence[int] = DEFAULT_N_GRID,
                replicates: int = 100_000, alpha: float = 0.05,
                seed: int = 0,
                kappa_c: float = DEFAULT_KAPPA_C) -> ExperimentResult:
    """Rejection rate under the standard-normal null, per grid point."""
    return _rejection_curve(scenario, DistSpec("normal", (0.0, 1.0)),
                            n_grid, replicates, alpha, seed, kappa_c)


def power_curve(scenario: Scenario, dist: DistSpec,
                n_grid: Sequence[int] = DEFAULT_N_GRID,
                replicates: int = 10_000, alpha: float = 0.05,
                seed: int = 0,
                kappa_c: float = DEFAULT_KAPPA_C) -> ExperimentResult:
    """Rejection rate under a (typically skewed) alternative."""
    return _rejection_curve(scenario, dist, n_grid, replicates, alpha,
                            seed, kappa_c)


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

    def s1_moments(x: np.ndarray) -> tuple[float, float]:
        summary = summarize(x)
        return (estimate_mean(summary, Scenario.S1, n),
                estimate_sd(summary, Scenario.S1, n))

    case_mean, case_sd = s1_moments(case)
    control_mean, control_sd = s1_moments(control)
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
    y = list(float(r) for r in rates)
    if not y:
        raise ValueError("rates must be nonempty")
    values = []
    counts = []
    for v in y:
        values.append(v)
        counts.append(1)
        while len(values) > 1 and values[-2] > values[-1]:
            merged = (values[-1] * counts[-1] + values[-2] * counts[-2]) \
                / (counts[-1] + counts[-2])
            counts[-2] += counts[-1]
            values[-2] = merged
            values.pop()
            counts.pop()
    fitted = []
    for v, c in zip(values, counts):
        fitted.extend([v] * c)
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
        params = ",".join(f"{p:g}" for p in result.dist.params)
        for n, rate, se in zip(result.n_grid, result.rates, result.ses):
            writer.writerow([n, f"{rate:.6f}", f"{se:.6f}",
                             result.replicates, result.scenario.value,
                             result.dist.family, params, result.seed])
