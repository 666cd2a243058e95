"""Acceptance scorecard.

Each test here checks one numbered acceptance criterion and prints a
single ``CRITERION n (...): PASS|FAIL`` line straight to the terminal,
so a run of this file yields a nine-line scorecard.  Reference numbers
for criteria 1-3, 7, and 8 are the per-group symmetry statistics,
pooled effects, and screening decisions published for the bundled
datasets (sources cited in ``src/sumnorm/data/README.md``).  Criteria
4-6 gate the Monte Carlo machinery at full replicate counts; criterion
9 checks numerical invariants and byte-level CLI determinism.

One printed cell cannot be reproduced from its own printed inputs: the
leptin source table prints 3.189 (p 0.001) for the guler2004 asthma
group, but its printed quartiles 2.06/3.53/7.24 at n = 102 give 3.165
(p 0.002).  Criterion 1 checks that cell against the value derived
from the printed inputs, confirms it with a scipy recomputation from
the CSV row, and keeps the printed value as a recorded discrepancy
that must stay a discrepancy; see "Known discrepancies" in the data
README.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import ndtr
from scipy.stats import norm

import sumnorm
from sumnorm.meta import EffectSize, pool, run_pipeline
from sumnorm.model import Scenario, parse_studies
from sumnorm.normal import std_normal_quantile
from sumnorm.simulate import (
    DEFAULT_N_GRID,
    POWER_ALTERNATIVES,
    DistSpec,
    _statistics,
    _summary_matrix,
    isotonic_fit_r2,
    power_curve,
    type1_curve,
)
from sumnorm.symmetry import (DEFAULT_KAPPA_C, _null_variance, critical_value,
                              run_test, statistic)

_DATA = Path(sumnorm.__file__).parent / "data"
_NORMAL = DistSpec("normal", (0.0, 1.0))
_SCENARIOS = (Scenario.S1, Scenario.S2, Scenario.S3)

# Printed tables round statistics to 3 decimals and p to 3 decimals,
# so the stated tolerances (0.01 / 0.005) absorb the rounding.
_STAT_TOL = 0.01 + 1e-9
_P_TOL = 0.005 + 1e-9


def _verdict(capsys, num: int, title: str, ok: bool, detail: str = "") -> None:
    # Leading newline: under pytest -v the verdict would otherwise be
    # glued to the in-progress test id on the same terminal line.
    with capsys.disabled():
        print(f"\nCRITERION {num} ({title}): {'PASS' if ok else 'FAIL'}"
              f"{' -- ' + detail if detail else ''}")


def _say(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def _tested_cells(filename: str) -> dict:
    """(outcome, study, group) -> TestResult for every testable group."""
    cells = {}
    for study in parse_studies(_DATA / filename):
        for group in study.groups:
            result = run_test(group)
            if result is not None:
                cells[(study.outcome_label, study.study_id,
                       group.group_label)] = result
    return cells


def _check_cells(cells: dict, expected: list) -> tuple[int, list[str]]:
    """Compare computed results against printed reference cells.

    A reference statistic of "zero" means the table printed an exact
    zero (or a float artifact like 5.73e-15): the computed statistic
    must vanish below 1e-6.  A reference p of "<0.001" is a bound, not
    a value.
    """
    failures = []
    for key, ref_stat, ref_p in expected:
        where = "/".join(key)
        result = cells.get(key)
        if result is None:
            failures.append(f"{where}: no computed test for this cell")
            continue
        if ref_stat == "zero":
            if not abs(result.statistic) < 1e-6:
                failures.append(f"{where}: statistic {result.statistic:.3e} "
                                f"not below 1e-6")
        elif abs(result.statistic - ref_stat) > _STAT_TOL:
            failures.append(
                f"{where}: statistic {result.statistic:.4f} vs printed "
                f"{ref_stat} (diff {abs(result.statistic - ref_stat):.4f} "
                f"> 0.01)")
        if ref_p == "<0.001":
            if not result.p_value < 0.001:
                failures.append(f"{where}: p {result.p_value:.4f} not < 0.001")
        elif abs(result.p_value - ref_p) > _P_TOL:
            failures.append(
                f"{where}: p {result.p_value:.4f} vs printed {ref_p} "
                f"(diff {abs(result.p_value - ref_p):.4f} > 0.005)")
    return len(expected), failures


# ---------------------------------------------------------------------------
# Reference cells.  Signs follow the printed tables; every statistic is the
# published value, except guler2004/asthma, whose published value does not
# follow from its printed inputs.  That cell holds the value the printed
# inputs give, and the published value is kept in _GULER_PRINTED below.

_LEPTIN_CELLS = [
    (("leptin", "cobanoglu2013", "asthma"), 3.022, 0.003),
    (("leptin", "cobanoglu2013", "healthy"), 2.935, 0.003),
    (("leptin", "dasilva2012", "asthma"), 1.653, 0.098),
    (("leptin", "dasilva2012", "healthy"), -0.606, 0.545),
    (("leptin", "giouleka2011", "asthma"), 3.895, "<0.001"),
    (("leptin", "giouleka2011", "healthy"), 0.488, 0.626),
    (("leptin", "leivo2011", "asthma"), 4.171, "<0.001"),
    (("leptin", "leivo2011", "healthy"), "zero", 1.0),
    (("leptin", "kim2008", "atopic asthma"), 2.313, 0.021),
    (("leptin", "kim2008", "non-atopic asthma"), -0.351, 0.726),
    (("leptin", "kim2008", "healthy"), 1.391, 0.164),
    (("leptin", "guler2004", "asthma"), 3.165, 0.002),  # derived; see below
    (("leptin", "guler2004", "control"), 1.697, 0.090),
]

# The source prints statistic 3.189 (p 0.001) for this cell.  No nearby
# n or single-digit change to the printed inputs gives that value; the
# screening decision (reject at 5%) is the same either way.
_GULER_KEY = ("leptin", "guler2004", "asthma")
_GULER_PRINTED = (3.189, 0.001)

_ADIPONECTIN_CELLS = [
    (("adiponectin", "dasilva2012", "asthma"), 2.126, 0.034),
    (("adiponectin", "dasilva2012", "healthy"), 2.945, 0.003),
    (("adiponectin", "giouleka2011", "asthma"), 1.144, 0.253),
    (("adiponectin", "giouleka2011", "healthy"), 2.093, 0.036),
]

_LIPID_CELLS = [
    (("total cholesterol", "bonnet2007", "case"), -0.450, 0.653),
    (("total cholesterol", "bonnet2007", "control"), 1.168, 0.243),
    (("total cholesterol", "calmy2010", "case"), -0.316, 0.752),
    (("total cholesterol", "calmy2010", "control"), -0.563, 0.574),
    (("total cholesterol", "ganesan2011", "case"), -2.254, 0.024),
    (("total cholesterol", "ganesan2011", "control"), -2.254, 0.024),
    (("total cholesterol", "hurlimann2006", "case"), 1.613, 0.107),
    (("total cholesterol", "hurlimann2006", "control"), 1.613, 0.107),
    (("total cholesterol", "moyle2001", "case"), "zero", 1.0),
    (("total cholesterol", "moyle2001", "control"), -0.215, 0.830),
    (("LDL-C", "bonnet2007", "case"), 0.250, 0.802),
    (("LDL-C", "bonnet2007", "control"), 1.190, 0.234),
    (("LDL-C", "calmy2010", "case"), 0.223, 0.824),
    (("LDL-C", "calmy2010", "control"), -0.563, 0.574),
    (("LDL-C", "eckard2014", "case"), -1.672, 0.095),
    (("LDL-C", "eckard2014", "control"), 0.629, 0.529),
    (("LDL-C", "ganesan2011", "case"), 0.396, 0.692),
    (("LDL-C", "ganesan2011", "control"), 0.396, 0.692),
    (("LDL-C", "hurlimann2006", "case"), -1.075, 0.282),
    (("LDL-C", "hurlimann2006", "control"), -1.075, 0.282),
    (("LDL-C", "nakanjako2015", "case"), 0.860, 0.390),
    (("LDL-C", "nakanjako2015", "control"), -0.420, 0.674),
    (("LDL-C", "montoya2012", "case"), 1.039, 0.299),
    (("LDL-C", "montoya2012", "control"), 2.213, 0.027),
    (("LDL-C", "moyle2001", "case"), "zero", 1.0),
    (("LDL-C", "moyle2001", "control"), 2.366, 0.018),
    (("HDL-C", "bonnet2007", "case"), 0.750, 0.453),
    (("HDL-C", "bonnet2007", "control"), -0.623, 0.533),
    (("HDL-C", "calmy2010", "case"), 1.002, 0.316),
    (("HDL-C", "calmy2010", "control"), -1.097, 0.273),
    (("HDL-C", "funderburg2015", "case"), 0.599, 0.549),
    (("HDL-C", "funderburg2015", "control"), 0.612, 0.540),
    (("HDL-C", "hurlimann2006", "case"), 2.258, 0.024),
    (("HDL-C", "hurlimann2006", "control"), 2.258, 0.024),
    (("HDL-C", "nakanjako2015", "case"), "zero", 1.0),
    (("HDL-C", "nakanjako2015", "control"), 0.516, 0.606),
    (("HDL-C", "moyle2001", "case"), -0.085, 0.932),
    (("HDL-C", "moyle2001", "control"), "zero", 1.0),
    (("triglycerides", "bonnet2007", "case"), 0.409, 0.682),
    (("triglycerides", "bonnet2007", "control"), 0.081, 0.935),
    (("triglycerides", "calmy2010", "case"), 0.191, 0.849),
    (("triglycerides", "calmy2010", "control"), 0.450, 0.653),
    (("triglycerides", "hurlimann2006", "case"), 0.198, 0.843),
    (("triglycerides", "hurlimann2006", "control"), 0.198, 0.843),
    (("triglycerides", "lo2015", "case"), 1.585, 0.113),
    (("triglycerides", "lo2015", "control"), 0.062, 0.950),
    (("triglycerides", "nakanjako2015", "case"), 0.596, 0.551),
    (("triglycerides", "nakanjako2015", "control"), 0.860, 0.390),
    (("triglycerides", "moyle2001", "case"), 0.969, 0.333),
    (("triglycerides", "moyle2001", "control"), 0.031, 0.975),
]

_MMP_CELLS = [
    (("MMP-9", "koh2002", "case"), -0.795, 0.427),
    (("MMP-9", "koh2002", "control"), 0.976, 0.329),
    (("MMP-9", "broch2014", "case"), -0.211, 0.833),
    (("MMP-9", "broch2014", "control"), -1.080, 0.280),
    (("MMP-9", "nilsson2011", "case"), 1.677, 0.094),
    (("MMP-9", "nilsson2011", "control"), 1.115, 0.265),
    (("MMP-3", "nilsson2011", "case"), 0.716, 0.474),
    (("MMP-3", "nilsson2011", "control"), -0.884, 0.376),
    (("TIMP-I", "nilsson2011", "case"), 0.971, 0.332),
    (("TIMP-I", "nilsson2011", "control"), 0.428, 0.669),
]

_EXPECTED_EXCLUSIONS = {
    ("zhang2017.csv", "leptin"): {"cobanoglu2013", "giouleka2011",
                                  "leivo2011", "kim2008", "guler2004"},
    ("zhang2017.csv", "adiponectin"): {"dasilva2012", "giouleka2011"},
    ("banach2016.csv", "total cholesterol"): {"ganesan2011"},
    ("banach2016.csv", "LDL-C"): {"montoya2012", "moyle2001"},
    ("banach2016.csv", "HDL-C"): {"hurlimann2006"},
    ("banach2016.csv", "triglycerides"): set(),
    ("ferretti2017.csv", "MMP-9"): set(),
    ("ferretti2017.csv", "MMP-3"): set(),
    ("ferretti2017.csv", "TIMP-I"): set(),
}


def _reports_by_outcome(filename: str) -> dict:
    reports = run_pipeline(parse_studies(_DATA / filename))
    return {r.outcome_label: r for r in reports}


# ---------------------------------------------------------------------------
# Criteria 1-3: published per-group symmetry statistics reproduce.


def _oracle_t2(filename: str, key: tuple) -> tuple[float, float]:
    """T2 and its two-sided p for one CSV row, computed with scipy only."""
    with open(_DATA / filename, newline="") as fh:
        (row,) = [r for r in csv.DictReader(fh)
                  if (r["outcome"], r["study_id"], r["group_label"]) == key]
    q1, m, q3 = (float(row[c]) for c in ("q1", "median", "q3"))
    n = int(row["n"])
    phi = 1.09 * math.sqrt(n) * norm.ppf((0.75 * n - 0.125) / (n + 0.25))
    statistic = phi * (q1 + q3 - 2.0 * m) / (q3 - q1)
    return statistic, 2.0 * norm.sf(abs(statistic))


def _guler_discrepancy_failures(cells: dict) -> list[str]:
    """The derived guler2004 cell is right and the printed one is not."""
    result = cells.get(_GULER_KEY)
    if result is None:
        return []  # the missing cell is already reported by _check_cells
    oracle_stat, oracle_p = _oracle_t2("zhang2017.csv", _GULER_KEY)
    printed_stat, printed_p = _GULER_PRINTED
    failures = []
    if (abs(result.statistic - oracle_stat) > 1e-9
            or abs(result.p_value - oracle_p) > 1e-9):
        failures.append(f"guler2004/asthma: {result.statistic:.6f} "
                        f"(p {result.p_value:.6f}) vs scipy oracle "
                        f"{oracle_stat:.6f} (p {oracle_p:.6f})")
    if not abs(printed_stat - oracle_stat) > 0.01:
        failures.append(f"guler2004/asthma: printed {printed_stat} now within "
                        f"0.01 of {oracle_stat:.4f}; the recorded discrepancy "
                        f"is stale")
    if result.reject != (printed_p < result.alpha):
        failures.append(f"guler2004/asthma: reject={result.reject} differs "
                        f"from the source's decision at p {printed_p}")
    return failures


def test_criterion_1_leptin_table(capsys):
    cells = _tested_cells("zhang2017.csv")
    leptin_keys = {k for k in cells if k[0] == "leptin"}
    checked, failures = _check_cells(cells, _LEPTIN_CELLS)
    if leptin_keys != {k for k, *_ in _LEPTIN_CELLS}:
        failures.append("set of tested leptin cells differs from the table")
    failures += _guler_discrepancy_failures(cells)
    ok = not failures
    if ok:
        guler = cells[_GULER_KEY]
        detail = (f"all {checked} tested cells within 0.01/0.005; known "
                  f"source discrepancy guler2004/asthma: printed "
                  f"{_GULER_PRINTED[0]} (p {_GULER_PRINTED[1]}) vs derived "
                  f"{guler.statistic:.3f} (p {guler.p_value:.3f}, scipy "
                  f"oracle within 1e-9), reject either way")
    else:
        detail = "; ".join(failures)
    _verdict(capsys, 1, "leptin symmetry statistics match source table",
             ok, detail)
    assert ok, "\n".join(failures)


def test_criterion_2_lipid_and_adiponectin_tables(capsys):
    lipid_cells = _tested_cells("banach2016.csv")
    checked_l, failures = _check_cells(lipid_cells, _LIPID_CELLS)
    if set(lipid_cells) != {k for k, *_ in _LIPID_CELLS}:
        failures.append("set of tested lipid cells differs from the table")
    adipo = {k: v for k, v in _tested_cells("zhang2017.csv").items()
             if k[0] == "adiponectin"}
    checked_a, more = _check_cells(adipo, _ADIPONECTIN_CELLS)
    failures += more
    if set(adipo) != {k for k, *_ in _ADIPONECTIN_CELLS}:
        failures.append("set of tested adiponectin cells differs")
    ok = not failures
    detail = (f"all {checked_l} lipid and {checked_a} adiponectin cells "
              f"within 0.01/0.005" if ok else "; ".join(failures))
    _verdict(capsys, 2, "lipid and adiponectin statistics match source "
             "tables", ok, detail)
    assert ok, "\n".join(failures)


def test_criterion_3_mmp_table(capsys):
    cells = _tested_cells("ferretti2017.csv")
    checked, failures = _check_cells(cells, _MMP_CELLS)
    if set(cells) != {k for k, *_ in _MMP_CELLS}:
        failures.append("set of tested MMP/TIMP cells differs from the table")
    ok = not failures
    detail = (f"all {checked} tested cells within 0.01/0.005"
              if ok else "; ".join(failures))
    _verdict(capsys, 3, "MMP/TIMP symmetry statistics match source table",
             ok, detail)
    assert ok, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criteria 4-6: Monte Carlo behavior at full replicate counts.


def test_criterion_4_type1_error_bands(capsys):
    t0 = time.monotonic()
    # The shared-matrix shortcut below must agree with the public curve
    # API exactly; prove it once at a cheap size.
    probe = type1_curve(Scenario.S2, (50,), replicates=2000, seed=0)
    matrix = _summary_matrix(_NORMAL, 50, 2000, 0)
    stats = _statistics(Scenario.S2, matrix, 50, DEFAULT_KAPPA_C)
    manual = float(np.mean(np.abs(stats) > critical_value(0.05)))
    assert probe.rates[0] == manual

    crit = critical_value(0.05)
    failures = []
    lines = []
    for n in (200, 300, 500, 1000):
        matrix = _summary_matrix(_NORMAL, n, 100_000, 0)
        per_n = []
        for scenario in _SCENARIOS:
            stats = _statistics(scenario, matrix, n, DEFAULT_KAPPA_C)
            rate = float(np.mean(np.abs(stats) > crit))
            per_n.append(f"{scenario.name}={rate:.4f}")
            if not 0.04 <= rate <= 0.06:
                failures.append(f"{scenario.name} at n={n}: rate {rate:.4f} "
                                f"outside [0.04, 0.06]")
        lines.append(f"n={n}: " + " ".join(per_n))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    _verdict(capsys, 4, "type I error in [0.04, 0.06] at R=100000", ok,
             "; ".join(lines) + f"; {elapsed:.0f}s")
    assert not failures, "\n".join(failures)
    assert elapsed < 300.0


def test_criterion_5_power_thresholds_and_monotonicity(capsys):
    t0 = time.monotonic()
    probe = power_curve(Scenario.S1, DistSpec("lognormal", (0.0, 1.0)),
                        (50,), replicates=500, seed=0)
    matrix = _summary_matrix(DistSpec("lognormal", (0.0, 1.0)), 50, 500, 0)
    stats = _statistics(Scenario.S1, matrix, 50, DEFAULT_KAPPA_C)
    manual = float(np.mean(np.abs(stats) > critical_value(0.05)))
    assert probe.rates[0] == manual

    crit = critical_value(0.05)
    rates: dict[tuple, float] = {}
    for dist in POWER_ALTERNATIVES:
        for n in DEFAULT_N_GRID:
            matrix = _summary_matrix(dist, n, 10_000, 0)
            for scenario in _SCENARIOS:
                stats = _statistics(scenario, matrix, n, DEFAULT_KAPPA_C)
                rates[(scenario, dist.label(), n)] = float(
                    np.mean(np.abs(stats) > crit))

    skewed = ("lognormal(0,1)", "chisquare(1)", "exponential(1)")
    thresholds = [(Scenario.S1, lab, 100, 0.95) for lab in skewed]
    thresholds += [(Scenario.S2, lab, 400, 0.90) for lab in skewed]
    thresholds.append((Scenario.S3, "lognormal(0,1)", 100, 0.95))

    failures = []
    lines = []
    for scenario, label, n, floor in thresholds:
        rate = rates[(scenario, label, n)]
        lines.append(f"{scenario.name}@{n} {label}: {rate:.3f}")
        if rate < floor:
            failures.append(f"{scenario.name} against {label} at n={n}: "
                            f"power {rate:.4f} < {floor}")
    worst_r2 = 1.0
    for dist in POWER_ALTERNATIVES:
        for scenario in _SCENARIOS:
            curve = [rates[(scenario, dist.label(), n)]
                     for n in DEFAULT_N_GRID]
            r2 = isotonic_fit_r2(curve)
            worst_r2 = min(worst_r2, r2)
            if r2 < 0.95:
                failures.append(f"{scenario.name} against {dist.label()}: "
                                f"isotonic R2 {r2:.4f} < 0.95")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    _verdict(capsys, 5, "power floors and isotonic R2 >= 0.95 at R=10000",
             ok, "; ".join(lines) + f"; worst R2 {worst_r2:.4f}; "
             f"{elapsed:.0f}s")
    assert not failures, "\n".join(failures)
    assert elapsed < 600.0


def test_criterion_6_order_statistic_asymptotics(capsys):
    t0 = time.monotonic()
    n = 1000
    a, q1, m, _, b = _summary_matrix(_NORMAL, n, 100_000, 0).T
    ab = a + b
    checks = [
        ("Var(a+b-2m) vs asymptote",
         float(np.var(ab - 2.0 * m)) / _null_variance(n, math.pi), 0.9, 1.1),
        ("n Var(m) vs pi/2", float(n * np.var(m)) / (math.pi / 2.0),
         0.95, 1.05),
        ("Cov(a+b,m)/Var(m)",
         float(np.cov(ab, m)[0, 1]) / float(np.var(m, ddof=1)), 0.4, 0.6),
        ("Cov(a+b,q1)/Var(q1)",
         float(np.cov(ab, q1)[0, 1]) / float(np.var(q1, ddof=1)), 0.35, 0.55),
    ]
    failures = [f"{name}: {value:.4f} outside [{lo}, {hi}]"
                for name, value, lo, hi in checks
                if not lo <= value <= hi]
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 180.0
    detail = "; ".join(f"{name} {value:.4f}" for name, value, *_ in checks)
    _verdict(capsys, 6, "order-statistic asymptotics at n=1000, R=100000",
             ok, detail + f"; {elapsed:.0f}s")
    assert not failures, "\n".join(failures)
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# Criteria 7-8: the full screening + pooling pipeline on the bundled data.


def test_criterion_7_pooled_effects_with_trace(capsys):
    reports = {}
    for filename in ("zhang2017.csv", "banach2016.csv", "ferretti2017.csv"):
        for outcome, report in _reports_by_outcome(filename).items():
            reports[outcome] = (filename, report)

    _say(capsys, "\nCRITERION 7 pooled-effect trace (random-effects):")
    for outcome, (filename, report) in reports.items():
        pooled = report.pooled
        _say(capsys, f"  {outcome} [{filename}]: "
             f"k={len(report.included_ids)} included, "
             f"excluded={sorted(report.excluded_ids)}")
        _say(capsys, f"    SMD {pooled.smd:.3f} "
             f"[{pooled.ci_low:.3f}, {pooled.ci_high:.3f}], "
             f"Q {pooled.q_stat:.2f} (p {pooled.q_p:.3f}), "
             f"I2 {pooled.i_squared:.1f}%, tau2 {pooled.tau_squared:.4f}")

    # Advisory bands around the source publications' pooled values.
    bands = [
        ("leptin", "smd", 1.43, 0.15),
        ("leptin", "i2", 93.0, 4.0),
        ("adiponectin", "smd", -0.50, 0.15),
        ("LDL-C", "smd", -0.13, 0.10),
        ("HDL-C", "smd", 0.04, 0.10),
        ("MMP-9", "smd", 0.15, 0.15),
        ("MMP-9", "q", 35.4, 5.0),
    ]
    failures = []
    for outcome, what, center, width in bands:
        pooled = reports[outcome][1].pooled
        value = {"smd": pooled.smd, "i2": pooled.i_squared,
                 "q": pooled.q_stat}[what]
        if not center - width <= value <= center + width:
            failures.append(f"{outcome} {what} {value:.3f} outside "
                            f"{center}+-{width}")

    # Known out-of-band residual: the source's pooled total cholesterol
    # (0.43) does not follow from its printed inputs.  Logged with the
    # full per-study trace; see the data README.
    tc = reports["total cholesterol"][1]
    _say(capsys, "  discrepancy report, total cholesterol (source prints "
         "SMD 0.43 [-0.32, 1.17]):")
    for entry in tc.studies:
        if entry.included:
            effect = entry.effect
            _say(capsys, f"    {entry.study_id}: case n={effect.n_case} "
                 f"mean={entry.case_moments.mean:.3f} "
                 f"sd={entry.case_moments.sd:.3f}; control "
                 f"n={effect.n_control} "
                 f"mean={entry.control_moments.mean:.3f} "
                 f"sd={entry.control_moments.sd:.3f}; SMD {effect.smd:.3f} "
                 f"(se {effect.se:.3f})")
        else:
            _say(capsys, f"    {entry.study_id}: excluded "
                 f"({'; '.join(entry.exclusion_reasons)})")
    _say(capsys, f"    computed pooled SMD {tc.pooled.smd:.3f} "
         f"[{tc.pooled.ci_low:.3f}, {tc.pooled.ci_high:.3f}]; screening "
         f"decisions verified under criterion 8")

    screening_ok = all(
        set(_reports_by_outcome(filename)[outcome].excluded_ids) == expected
        for (filename, outcome), expected in _EXPECTED_EXCLUSIONS.items())
    ok = not failures and screening_ok
    detail = ("all advisory bands met, trace above"
              if ok else "; ".join(failures) or "screening mismatch")
    _verdict(capsys, 7, "pooled effects within advisory bands", ok, detail)
    assert screening_ok
    assert not failures, "\n".join(failures)


def test_criterion_8_exclusion_sets_exact(capsys):
    failures = []
    for (filename, outcome), expected in _EXPECTED_EXCLUSIONS.items():
        report = _reports_by_outcome(filename)[outcome]
        got = set(report.excluded_ids)
        if got != expected:
            failures.append(f"{filename} {outcome}: excluded {sorted(got)} "
                            f"!= expected {sorted(expected)}")
    ok = not failures
    detail = ("screening decisions exact for all 9 outcome groups"
              if ok else "; ".join(failures))
    _verdict(capsys, 8, "symmetry-screen exclusion sets exact", ok, detail)
    assert ok, "\n".join(failures)


# ---------------------------------------------------------------------------
# Criterion 9: numerical invariants and CLI determinism.


def _invariance_worst_error() -> float:
    """Worst |T(x) - T(cx + d)| over 10000 random summaries.

    Spreads are kept >= 1 and n <= 1000 so the bound measures the
    invariance of the formulas, not cancellation in ill-conditioned
    inputs the estimators reject in practice anyway.
    """
    rng = np.random.default_rng(90210)
    checked = 0
    worst = 0.0
    while checked < 10_000:
        values = np.sort(rng.uniform(-10.0, 10.0, size=5))
        a, q1, m, q3, b = (float(v) for v in values)
        if b - a < 1.0 or q3 - q1 < 1.0:
            continue
        n = int(rng.integers(4, 1001))
        c = float(rng.uniform(0.5, 2.0))
        d = float(rng.uniform(-5.0, 5.0))
        base = [statistic(s, a, q1, m, q3, b, n) for s in _SCENARIOS]
        moved = [statistic(s, c * a + d, c * q1 + d, c * m + d, c * q3 + d,
                           c * b + d, n) for s in _SCENARIOS]
        worst = max(worst, max(abs(x - y) for x, y in zip(base, moved)))
        checked += 1
    return worst


def _quantile_roundtrip_worst() -> float:
    rng = np.random.default_rng(4181)
    p = rng.uniform(1e-12, 1.0 - 1e-12, size=10_000)
    return max(abs(float(ndtr(std_normal_quantile(float(v)))) - float(v))
               for v in p)


def _pooling_properties_hold() -> tuple[int, list[str]]:
    rng = np.random.default_rng(777)
    failures = []
    for i in range(1000):
        k = int(rng.integers(2, 13))
        smds = rng.normal(0.0, 1.2, size=k)
        ses = rng.uniform(0.05, 1.0, size=k)
        effects = [EffectSize(smd=float(d), se=float(s),
                              ci_low=float(d - 1.96 * s),
                              ci_high=float(d + 1.96 * s),
                              n_case=10, n_control=10)
                   for d, s in zip(smds, ses)]
        fixed = pool(effects, model="fixed")
        random_ = pool(effects, model="random")
        for result in (fixed, random_):
            if not result.ci_low <= result.smd <= result.ci_high:
                failures.append(f"meta {i}: CI fails to contain the "
                                f"pooled SMD ({result.model})")
        fixed_width = fixed.ci_high - fixed.ci_low
        random_width = random_.ci_high - random_.ci_low
        if random_width < fixed_width - 1e-12:
            failures.append(f"meta {i}: random-effects CI narrower than "
                            f"fixed ({random_width} < {fixed_width})")
    return 1000, failures


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SUMNORM_")}
    return subprocess.run([sys.executable, "-m", "sumnorm.cli", *args],
                          capture_output=True, env=env)


def _cli_determinism_failures(tmp_path: Path) -> list[str]:
    leptin = str(_DATA / "zhang2017_leptin.csv")
    zhang = str(_DATA / "zhang2017.csv")
    failures = []

    for args in (["test", leptin], ["estimate", leptin], ["demo", "--seed",
                                                          "7"]):
        first = _run_cli(args)
        second = _run_cli(args)
        if first.returncode != 0 or second.returncode != 0:
            failures.append(f"{args[0]}: nonzero exit")
        elif first.stdout != second.stdout:
            failures.append(f"{args[0]}: stdout differs between reruns")

    artifact_runs = [
        ("meta", ["meta", zhang, "--out"],
         ["report.json", "forest_leptin.svg", "forest_adiponectin.svg"]),
        ("simulate", ["simulate", "--type1", "--scenario", "s1", "--grid",
                      "50,100", "--replicates", "400", "--seed", "7",
                      "--out"], ["type1_s1.csv", "type1_s1.svg"]),
    ]
    for name, args, artifacts in artifact_runs:
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        first = _run_cli(args + [str(out_a)])
        second = _run_cli(args + [str(out_b)])
        if first.returncode != 0 or second.returncode != 0:
            failures.append(f"{name}: nonzero exit")
            continue
        norm_a = first.stdout.replace(str(out_a).encode(), b"OUT")
        norm_b = second.stdout.replace(str(out_b).encode(), b"OUT")
        if norm_a != norm_b:
            failures.append(f"{name}: stdout differs between reruns")
        for artifact in artifacts:
            if ((out_a / artifact).read_bytes()
                    != (out_b / artifact).read_bytes()):
                failures.append(f"{name}: {artifact} differs between reruns")
    return failures


def test_criterion_9_invariants_and_determinism(capsys, tmp_path):
    worst_inv = _invariance_worst_error()
    worst_rt = _quantile_roundtrip_worst()
    n_metas, failures = _pooling_properties_hold()
    failures += _cli_determinism_failures(tmp_path)
    if worst_inv > 1e-12:
        failures.append(f"location-scale invariance worst error "
                        f"{worst_inv:.2e} > 1e-12")
    if worst_rt > 1e-9:
        failures.append(f"quantile round-trip worst error "
                        f"{worst_rt:.2e} > 1e-9")
    ok = not failures
    detail = (f"invariance {worst_inv:.1e} <= 1e-12 over 10000 summaries; "
              f"quantile round-trip {worst_rt:.1e} <= 1e-9; {n_metas} "
              f"pooled CIs contain their SMD and random-effects is never "
              f"narrower; CLI stdout and artifacts byte-identical")
    _verdict(capsys, 9, "numerical invariants and CLI determinism", ok,
             detail if ok else "; ".join(failures))
    assert ok, "\n".join(failures)
