"""Command-line front end.

Every subcommand is a pure function of its input files, flags, and
seed: identical invocations write byte-identical tables and artifacts.
Configuration precedence is flags, then SUMNORM_* environment
variables, then built-in defaults.  Exit code 0 covers all successful
runs (statistical rejections included); 2 means the input or the
configuration was unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from .estimators import estimate_moments
from .meta import run_pipeline, report_to_dict
from .model import Scenario, SummaryDataError, parse_studies
from .plots import curve_svg, forest_svg
from .symmetry import (DEFAULT_KAPPA_C, KAPPA_C_CHOICES, format_p_value,
                       format_statistic, run_test)
from . import simulate as sim

__all__ = ["main"]

_ENV_ALPHA = "SUMNORM_ALPHA"
_ENV_SEED = "SUMNORM_SEED"
_ENV_KAPPA = "SUMNORM_KAPPA_C"

# Advisory band echoed next to large-n type I error rates.
_TYPE1_BAND = (0.03, 0.07)
_TYPE1_BAND_MIN_N = 200


class _ConfigError(Exception):
    """Unusable flag/environment combination; maps to exit code 2."""


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# setting -> (env var, default, type, label, check, rule the check states)
_SETTINGS = {
    "alpha": (_ENV_ALPHA, 0.05, float, "alpha",
              lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "kappa_c": (_ENV_KAPPA, DEFAULT_KAPPA_C, float, "kappa constant",
                lambda v: v in KAPPA_C_CHOICES,
                f"be one of {KAPPA_C_CHOICES}"),
    "seed": (_ENV_SEED, None, int, "seed", lambda v: v >= 0, "be nonnegative"),
}
_TYPE_NOUN = {float: "a number", int: "an integer"}


def _resolve(args, name: str):
    """The flag, else the SUMNORM_* environment variable, else the default."""
    env, default, kind, label, check, rule = _SETTINGS[name]
    raw = getattr(args, name)
    if raw is None:
        raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        value = kind(raw)
    except ValueError:
        raise _ConfigError(
            f"{label} must be {_TYPE_NOUN[kind]}, got {raw!r}") from None
    if not check(value):
        raise _ConfigError(f"{label} must {rule}, got {value}")
    return value


def _require_seed(args) -> int:
    seed = _resolve(args, "seed")
    if seed is None:
        raise _ConfigError(f"a seed is required (--seed or {_ENV_SEED})")
    return seed


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-") or "outcome"


def _group_table(args, headers: Sequence[str], cells) -> int:
    """Print one row per group; a refused or failing group prints its error."""
    rows = []
    for study in parse_studies(args.input, format=args.format):
        for group in study.groups:
            base = [study.study_id, group.group_label, str(group.n)]
            try:
                rows.append(base + cells(group))
            except ValueError as exc:  # refused, degenerate or unsupported
                rows.append(base + ["-", "-", "-", f"error: {exc}"])
    print(_render_table(["study", "group", "n", *headers], rows))
    return 0


def cmd_test(args) -> int:
    alpha = _resolve(args, "alpha")
    kappa_c = _resolve(args, "kappa_c")

    def cells(group):
        result = run_test(group, alpha=alpha, kappa_c=kappa_c)
        if result is None:
            # Mean and SD reported directly; nothing to test.
            return ["direct", "NS", "NS", "-"]
        return [result.scenario.value, format_statistic(result.statistic),
                format_p_value(result.p_value),
                "reject" if result.reject else "retain"]

    return _group_table(args, ["scenario", "statistic", "p", "decision"],
                        cells)


def cmd_estimate(args) -> int:
    def cells(group):
        moments = estimate_moments(group)
        scenario = moments.scenario.value if moments.scenario else "direct"
        return [scenario, f"{moments.mean:.3f}", f"{moments.sd:.3f}",
                moments.source]

    return _group_table(args, ["scenario", "mean", "sd", "source"], cells)


def cmd_meta(args) -> int:
    alpha = _resolve(args, "alpha")
    kappa_c = _resolve(args, "kappa_c")
    studies = parse_studies(args.input, format=args.format)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = run_pipeline(studies, alpha=alpha, model=args.model,
                           kappa_c=kappa_c, hedges=args.hedges)
    payload = {"alpha": alpha, "model": args.model,
               "outcomes": [report_to_dict(r) for r in reports]}
    report_path = out_dir / "report.json"
    report_path.write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")
    taken: set[str] = set()
    for report in reports:
        pooled = report.pooled
        if pooled is None:
            print(f"warning: {report.outcome_label}: "
                  f"{report.pooled_omitted_reason}")
            continue
        # Distinct outcomes can share a slug; a later one gets -2, -3, ...
        slug = stem = _slug(report.outcome_label)
        suffix = 1
        while slug in taken:
            suffix += 1
            slug = f"{stem}-{suffix}"
        taken.add(slug)
        svg_path = out_dir / f"forest_{slug}.svg"
        svg_path.write_text(forest_svg(report), encoding="utf-8")
        included = len(report.included_ids)
        print(f"{report.outcome_label}: SMD {pooled.smd:.3f} "
              f"[{pooled.ci_low:.3f}, {pooled.ci_high:.3f}]  "
              f"Q {pooled.q_stat:.2f}  p {format_p_value(pooled.q_p)}  "
              f"I2 {pooled.i_squared:.1f}%  tau2 {pooled.tau_squared:.4f}  "
              f"included {included}/{len(report.studies)}")
        excluded = report.excluded_ids
        if excluded:
            print(f"  excluded: {', '.join(excluded)}")
    print(f"report: {report_path}")
    return 0


def _parse_grid(text: str | None) -> tuple[int, ...]:
    if text is None:
        return sim.DEFAULT_N_GRID
    try:
        grid = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _ConfigError(f"grid must be comma-separated integers, "
                           f"got {text!r}") from None
    if not grid or any(n < 4 for n in grid):
        raise _ConfigError(f"grid entries must be >= 4, got {text!r}")
    return grid


def _parse_scenario(text: str) -> Scenario:
    scenario = {"s1": Scenario.S1, "s2": Scenario.S2,
                "s3": Scenario.S3}.get(text.strip().lower())
    if scenario is None:
        raise _ConfigError(f"scenario must be s1, s2, or s3, got {text!r}")
    return scenario


def cmd_simulate(args) -> int:
    alpha = _resolve(args, "alpha")
    kappa_c = _resolve(args, "kappa_c")
    seed = _require_seed(args)
    scenario = _parse_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    if args.replicates is not None and args.replicates < 1:
        raise _ConfigError(
            f"replicates must be positive, got {args.replicates}")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.power:
        if args.dist is None:
            raise _ConfigError("--power needs --dist family:p1[,p2]")
        try:
            dist = sim.DistSpec.parse(args.dist)
        except ValueError as exc:
            raise _ConfigError(str(exc)) from None
        replicates = args.replicates or 10_000
        try:
            result = sim.power_curve(scenario, dist, grid, replicates, alpha,
                                     seed, kappa_c)
        except ValueError as exc:  # non-finite statistics
            raise _ConfigError(str(exc)) from None
        # Drop the "+" of an exponent, so 1e+308 and 1e-308 slug apart.
        label = dist.label().replace("e+", "e")
        stem = f"power_{scenario.value.lower()}_{_slug(label)}"
        title = (f"power, {scenario.value}, {dist.label()}, "
                 f"R={replicates}, seed={seed}")
        reference = None
    else:
        replicates = args.replicates or 100_000
        result = sim.type1_curve(scenario, grid, replicates, alpha, seed,
                                 kappa_c)
        stem = f"type1_{scenario.value.lower()}"
        title = (f"type I error, {scenario.value}, normal(0,1), "
                 f"R={replicates}, seed={seed}")
        reference = alpha

    csv_path = out_dir / f"{stem}.csv"
    svg_path = out_dir / f"{stem}.svg"
    sim.write_experiment_csv(result, csv_path)
    svg_path.write_text(curve_svg(result.n_grid, result.rates, title,
                                  reference=reference), encoding="utf-8")

    rows = []
    for n, rate, se in zip(result.n_grid, result.rates, result.ses):
        if args.power:
            verdict = "-"
        elif n >= _TYPE1_BAND_MIN_N:
            lo, hi = _TYPE1_BAND
            verdict = "ok" if lo <= rate <= hi else f"outside [{lo}, {hi}]"
        else:
            verdict = "-"
        rows.append([str(n), f"{rate:.4f}", f"{se:.4f}", verdict])
    print(_render_table(["n", "rate", "se", "verdict"], rows))
    if args.power:
        r2 = sim.isotonic_fit_r2(result.rates)
        print(f"isotonic fit R2 {r2:.4f}")
    print(f"csv: {csv_path}")
    print(f"svg: {svg_path}")
    return 0


def cmd_demo(args) -> int:
    seed = _require_seed(args)
    names = [tok.strip() for tok in args.pairs.split(",") if tok.strip()]
    if not names:
        raise _ConfigError("--pairs must name at least one pair")
    for name in names:
        if name not in sim.DEMO_PAIRS:
            raise _ConfigError(
                f"unknown pair {name!r}; choose from "
                f"{', '.join(sorted(sim.DEMO_PAIRS))}")
    rows = []
    for offset, name in enumerate(names):
        case_dist, control_dist, n = sim.DEMO_PAIRS[name]
        # Each pair runs on its own stream so rows are not draw-coupled.
        demo = sim.skew_distortion_demo(case_dist, control_dist, n,
                                        seed + offset)
        rows.append([name, case_dist.label(), control_dist.label(), str(n),
                     f"{demo.d_true:.3f}", f"{demo.d_estimated:.3f}",
                     f"{demo.gap:.3f}"])
    print(_render_table(
        ["pair", "case", "control", "n", "d_true", "d_est", "gap"], rows))
    return 0


def _add_input_flags(sub) -> None:
    sub.add_argument("input", help="CSV or JSON file of study summaries")
    sub.add_argument("--format", choices=["csv", "json"], default=None,
                     help="input format (default: by file extension)")


def _add_alpha_flag(sub) -> None:
    sub.add_argument("--alpha", default=None,
                     help=f"significance level in (0, 1) "
                          f"(default 0.05; env {_ENV_ALPHA})")


def _add_kappa_flag(sub) -> None:
    sub.add_argument("--kappa-c", default=None,
                     help=f"finite-sample constant for the five-number "
                          f"statistic, one of {KAPPA_C_CHOICES} "
                          f"(default {DEFAULT_KAPPA_C}; env {_ENV_KAPPA})")


def _add_seed_flag(sub) -> None:
    sub.add_argument("--seed", default=None,
                     help=f"nonnegative integer seed (env {_ENV_SEED})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumnorm",
        description="Symmetry screening, moment estimation, and "
                    "meta-analysis for quantile-summarized studies.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_test = subs.add_parser(
        "test", help="run the symmetry test on every summarized group")
    _add_input_flags(p_test)
    _add_alpha_flag(p_test)
    _add_kappa_flag(p_test)
    p_test.set_defaults(func=cmd_test)

    p_est = subs.add_parser(
        "estimate", help="estimate mean and SD for every group")
    _add_input_flags(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_meta = subs.add_parser(
        "meta", help="screen, estimate, pool, and draw forest plots")
    _add_input_flags(p_meta)
    _add_alpha_flag(p_meta)
    _add_kappa_flag(p_meta)
    p_meta.add_argument("--model", choices=["fixed", "random"],
                        default="random", help="pooling model")
    p_meta.add_argument("--hedges", action="store_true",
                        help="apply the small-sample correction to d")
    p_meta.add_argument("--output-dir", "--out", default=".",
                        help="directory for report.json and forest SVGs")
    p_meta.set_defaults(func=cmd_meta)

    p_sim = subs.add_parser(
        "simulate", help="Monte-Carlo rejection-rate curves")
    mode = p_sim.add_mutually_exclusive_group(required=True)
    mode.add_argument("--type1", action="store_true",
                      help="rejection rate under the normal null")
    mode.add_argument("--power", action="store_true",
                      help="rejection rate under --dist")
    p_sim.add_argument("--scenario", required=True,
                       help="s1 (min/median/max), s2 (quartiles), or s3 (both)")
    p_sim.add_argument("--dist", default=None,
                       help="alternative, e.g. lognormal:0,1 or chisquare:1")
    p_sim.add_argument("--grid", default=None,
                       help="comma-separated sample sizes "
                            f"(default {','.join(map(str, sim.DEFAULT_N_GRID))})")
    p_sim.add_argument("--replicates", type=int, default=None,
                       help="replicates per grid point "
                            "(default 100000 type1, 10000 power)")
    p_sim.add_argument("--output-dir", "--out", default=".",
                       help="directory for the CSV and SVG")
    _add_alpha_flag(p_sim)
    _add_kappa_flag(p_sim)
    _add_seed_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_demo = subs.add_parser(
        "demo", help="true vs summary-estimated effect sizes on skewed pairs")
    p_demo.add_argument("--pairs",
                        default="lognormal,chisquare,exponential,beta,weibull",
                        help="comma-separated pair names; 'normal' is a "
                             "symmetric control pair")
    _add_seed_flag(p_demo)
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_ConfigError, SummaryDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
