"""Inputs of the three benchmark workloads and the checks on their outputs.

Every input is a pure function of the workload seed.  Each operation is
the argument list of one ``sumnorm`` command line; the benchmark runs it
in process through ``sumnorm.cli.main`` and then checks what it wrote.
A check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("mc_type1_large_n", "mc_power_small_n", "meta_pipeline")

REPLICATES = 20_000
SCENARIOS = ("s1", "s2", "s3")
TYPE1_GRID = (200, 500, 1000)
POWER_GRID = (10, 25, 50, 100)
# The alternatives are fixed here, not read from the package, so that a
# change to the package's own list cannot change the workload.
POWER_DISTS = ("lognormal:0,1", "exponential:1", "beta:1,5", "chisquare:1",
               "weibull:2,1")

# The CLI's advisory band for type I error at n >= 200.
TYPE1_BAND = (0.03, 0.07)
TYPE1_BAND_MIN_N = 200
# Acceptance criterion 5: S1 power against lognormal(0,1) at n = 100.
POWER_FLOOR = ("s1", "lognormal:0,1", 100, 0.95)

BUNDLED = ("zhang2017", "zhang2017_leptin", "ferretti2017",
           "ferretti2017_mmp9", "banach2016", "hawkins2017_bnp")
SYNTHETIC_COUNT = 54
SYNTHETIC_ROWS = (10, 70)

# Pooled results of the bundled zhang2017 run as printed in the README:
# outcome -> (smd, ci_low, ci_high) at three decimals, excluded studies.
ZHANG2017_GOLDEN = {
    "leptin": (("1.420", "0.619", "2.221"),
               {"cobanoglu2013", "giouleka2011", "leivo2011", "kim2008",
                "guler2004"}),
    "adiponectin": (("-0.490", "-0.931", "-0.049"),
                    {"dasilva2012", "giouleka2011"}),
}

CSV_HEADER = ("study_id", "outcome", "arm", "group_label", "n", "mean", "sd",
              "min", "q1", "median", "q3", "max")


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    label: str
    argv: list[str]          # without the output directory flag
    summaries: int           # five-number summaries the op screens
    mode: str                # "type1", "power" or "meta"
    scenario: str = ""
    dist: str = ""
    grid: tuple[int, ...] = ()
    seed: int = 0
    expected: dict[str, set[str]] = field(default_factory=dict)
    golden: dict | None = None


def simulate_pass(workload: str, rng: random.Random) -> list[Op]:
    """One pass of a Monte Carlo workload, each op with a fresh seed."""
    ops = []
    if workload == "mc_type1_large_n":
        cases = [("type1", s, "normal:0,1", TYPE1_GRID) for s in SCENARIOS]
    else:
        cases = [("power", s, d, POWER_GRID)
                 for d in POWER_DISTS for s in SCENARIOS]
    for mode, scenario, dist, grid in cases:
        seed = rng.randrange(2 ** 31)
        argv = ["simulate", f"--{mode}", "--scenario", scenario,
                "--grid", ",".join(map(str, grid)),
                "--replicates", str(REPLICATES), "--seed", str(seed)]
        if mode == "power":
            argv[2:2] = ["--dist", dist]
        ops.append(Op(label=f"{mode}-{scenario}-{dist}", argv=argv,
                      summaries=REPLICATES * len(grid), mode=mode,
                      scenario=scenario, dist=dist, grid=grid, seed=seed))
    return ops


def simulate_csv_name(op: Op) -> str:
    if op.mode == "type1":
        return f"type1_{op.scenario}.csv"
    family, _, params = op.dist.partition(":")
    slug = re.sub(r"[^a-z0-9]+", "-", f"{family}({params})").strip("-")
    return f"power_{op.scenario}_{slug}.csv"


def check_simulate_csv(op: Op, text: str) -> list[str]:
    """The CSV parses, covers the grid and every rate lies in [0, 1]."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"csv does not parse: {exc}"]
    problems = []
    if [r.get("n") for r in rows] != [str(n) for n in op.grid]:
        problems.append(f"grid {[r.get('n') for r in rows]} != {op.grid}")
    for r in rows:
        try:
            n, rate = int(r["n"]), float(r["rate"])
            replicates, seed = int(r["replicates"]), int(r["seed"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"malformed row {r}")
            continue
        if not 0.0 <= rate <= 1.0:
            problems.append(f"rate {rate} at n={n} outside [0, 1]")
        if replicates != REPLICATES or seed != op.seed:
            problems.append(f"row n={n} reports R={replicates} seed={seed}")
        if op.mode == "type1" and n >= TYPE1_BAND_MIN_N:
            lo, hi = TYPE1_BAND
            if not lo <= rate <= hi:
                problems.append(
                    f"type I rate {rate} at n={n} outside [{lo}, {hi}]")
        scenario, dist, floor_n, floor = POWER_FLOOR
        if (op.mode == "power" and op.scenario == scenario
                and op.dist == dist and n == floor_n and rate < floor):
            problems.append(f"power {rate} at n={n} below {floor}")
    return problems


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def check_meta_report(text: str, expected: dict[str, set[str]],
                      golden: dict | None = None) -> list[str]:
    """report.json is strict JSON and accounts for every input study."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report.json is not strict JSON: {exc}"]
    outcomes = {o.get("outcome"): o for o in payload.get("outcomes", [])}
    problems = []
    if set(outcomes) != set(expected):
        problems.append(f"outcomes {sorted(map(str, outcomes))} != "
                        f"{sorted(expected)}")
    for label, studies in expected.items():
        report = outcomes.get(label)
        if report is None:
            continue
        entries = report.get("studies", [])
        included = {s["study_id"] for s in entries if s["included"]}
        excluded = {s["study_id"] for s in entries if not s["included"]}
        if len(entries) != len(studies) or included | excluded != studies:
            problems.append(f"{label}: included {len(included)} + excluded "
                            f"{len(excluded)} != {len(studies)} studies")
        pooled = report.get("pooled")
        if included and pooled is None:
            problems.append(f"{label}: studies included but nothing pooled")
        if pooled is not None and not (
                pooled["ci_low"] <= pooled["smd"] <= pooled["ci_high"]
                and abs(sum(pooled["weights"]) - 1.0) < 1e-9):
            problems.append(f"{label}: inconsistent pooled result {pooled}")
        if golden and label in golden:
            values, golden_excluded = golden[label]
            got = tuple(f"{pooled[k]:.3f}" for k in ("smd", "ci_low", "ci_high")) \
                if pooled else None
            if got != values:
                problems.append(f"{label}: pooled {got} != README {values}")
            if excluded != golden_excluded:
                problems.append(f"{label}: excluded {sorted(excluded)} != "
                                f"README {sorted(golden_excluded)}")
    return problems


def expected_studies(csv_text: str) -> tuple[dict[str, set[str]], int]:
    """Studies per outcome and the number of quantile-summarized groups."""
    expected: dict[str, set[str]] = {}
    summaries = 0
    for row in csv.DictReader(io.StringIO(csv_text)):
        expected.setdefault(row["outcome"].strip(), set()).add(
            row["study_id"].strip())
        summaries += bool(row["median"].strip())
    return expected, summaries


def meta_op(name: str, path: Path, csv_text: str) -> Op:
    expected, summaries = expected_studies(csv_text)
    return Op(label=name, argv=["meta", str(path)], summaries=summaries,
              mode="meta", expected=expected,
              golden=ZHANG2017_GOLDEN if name == "zhang2017" else None)


# --- synthetic datasets -------------------------------------------------

_KINDS = ("direct", "S1", "S2", "S3")


def _order_stat(values: list[float], q: float) -> float:
    # The [qn]-th order statistic, 1-based index clamped to at least 1.
    return values[max(1, int(q * len(values))) - 1]


def _group_row(rng: random.Random, kind: str, skewed: bool, center: float,
               spread: float) -> tuple[int, list[str]]:
    n = rng.randint(40, 120) if skewed else rng.randint(10, 120)
    if skewed:
        values = [center * math.exp(0.9 * rng.gauss(0.0, 1.0))
                  for _ in range(n)]
    else:
        values = [rng.gauss(center, spread) for _ in range(n)]
    values.sort()
    if kind == "direct":
        mean = sum(values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        return n, [f"{mean:.6g}", f"{sd:.6g}", "", "", "", "", ""]
    five = [values[0], _order_stat(values, 0.25), _order_stat(values, 0.5),
            _order_stat(values, 0.75), values[-1]]
    keep = {"S1": (0, 2, 4), "S2": (1, 2, 3), "S3": (0, 1, 2, 3, 4)}[kind]
    return n, ["", ""] + [f"{v:.6g}" if i in keep else ""
                          for i, v in enumerate(five)]


def _deck(rng: random.Random, cards, length: int) -> list:
    deck = list(cards) * (length // len(cards) + 1)
    rng.shuffle(deck)
    return deck[:length]


def synthetic_dataset(rng: random.Random, rows: int, outcomes: int) -> str:
    """CSV text of one dataset with exactly ``rows`` group rows.

    Studies hold one control and one case group, a quarter of them two
    or three case subgroups.  Reporting kinds cycle through a shuffled
    deck so every dataset mixes direct, S1, S2 and S3 studies, and one
    study in five draws its case groups from a lognormal, which the
    symmetry screen usually rejects.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    budgets = [rows // outcomes + (j < rows % outcomes) for j in range(outcomes)]
    kinds = _deck(rng, _KINDS, rows)
    skews = _deck(rng, (True, False, False, False, False), rows)
    study = 0
    for j, budget in enumerate(budgets):
        outcome = f"outcome {j + 1}"
        left = budget
        k = 0
        while left >= 2:
            size = 3 if left >= 3 and rng.random() < 0.25 else 2
            if left - size == 1:
                size += 1
            left -= size
            kind, skewed = kinds[study % rows], skews[study % rows]
            study += 1
            k += 1
            center = rng.uniform(5.0, 50.0)
            spread = center * rng.uniform(0.1, 0.3)
            case_center = center + rng.uniform(-1.0, 1.5) * spread
            labels = ["case"] + [f"case {i}" for i in range(2, size)]
            for label in labels:
                n, cells = _group_row(rng, kind, skewed, case_center, spread)
                writer.writerow([f"st{k:02d}", outcome, "case", label, n, *cells])
            n, cells = _group_row(rng, kind, False, center, spread)
            writer.writerow([f"st{k:02d}", outcome, "control", "control", n,
                             *cells])
    return out.getvalue()


def synthetic_datasets(seed: int, count: int = SYNTHETIC_COUNT) -> list[str]:
    """``count`` datasets whose sizes are stratified, their content seeded.

    Row counts step evenly across ``SYNTHETIC_ROWS`` and outcome counts
    cycle through 1-4, so the amount of work per pass is the same for
    every seed; the seed decides the values, kinds, skew and order.
    """
    rng = random.Random(seed)
    lo, hi = SYNTHETIC_ROWS
    shapes = [(lo + (hi - lo) * i // (count - 1), 1 + i % 4)
              for i in range(count)]
    rng.shuffle(shapes)
    return [synthetic_dataset(rng, rows, outcomes) for rows, outcomes in shapes]
