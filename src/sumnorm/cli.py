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
import functools
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from .estimators import estimate_moments
from .meta import run_pipeline, report_to_dict
from .model import (Scenario, SummaryDataError, classify_scenario,
                    parse_studies)
from .plots import curve_svg, forest_svg
from .symmetry import format_p_value, format_statistic, run_test

__all__ = ["main"]

# simulate's sample sizes, and its replicates per size under H0 and H1.
DEFAULT_N_GRID = (10, 25, 50, 100, 200, 300, 400, 500, 750, 1000)
DEFAULT_TYPE1_REPLICATES = 100_000
DEFAULT_POWER_REPLICATES = 10_000

# Advisory band alpha +- 40% echoed next to large-n type I error rates;
# alpha - 0.4 * alpha and alpha + 0.4 * alpha are 0.03 and 0.07 exactly
# at alpha = 0.05, where 1.4 * alpha is one ulp below 0.07.
_TYPE1_BAND_HALF_WIDTH = 0.4
_TYPE1_BAND_MIN_N = 200


class _ConfigError(Exception):
    """Unusable flag/environment combination; maps to exit code 2."""


# A label may hold a tab, line feed or carriage return (XML allows
# them); printed raw, they would split or shift a line of output.
_ESCAPED_WHITESPACE = str.maketrans({"\t": "\\t", "\n": "\\n",
                                     "\r": "\\r"})


def _printable(text: str) -> str:
    """``text`` with each tab, line feed and carriage return as the
    two characters of its escape, ``\\t``, ``\\n`` or ``\\r``."""
    return text.translate(_ESCAPED_WHITESPACE)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    rows = [[_printable(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# setting -> (env var, default, type, check, rule the check states, flag
# help); the name is the flag, and a setting without a default is required.
_SETTINGS = {
    "alpha": ("SUMNORM_ALPHA", 0.05, float,
              lambda v: v / 2.0 > 0.0 and v < 1.0,
              "lie in (0, 1) with alpha/2 > 0",
              "significance level in (0, 1)"),
    "seed": ("SUMNORM_SEED", None, int, lambda v: v >= 0,
             "be nonnegative", "nonnegative integer seed"),
}
_TYPE_NOUN = {float: "a number", int: "an integer"}


def _resolve(args, name: str):
    """The flag, else the SUMNORM_* environment variable, else the default."""
    env, default, kind, check, rule, _ = _SETTINGS[name]
    raw = getattr(args, name)
    if raw is None:
        raw = os.environ.get(env)
    if raw is None:
        if default is None:
            raise _ConfigError(f"a {name} is required (--{name} or {env})")
        return default
    try:
        value = kind(raw)
    except ValueError:
        raise _ConfigError(
            f"{name} must be {_TYPE_NOUN[kind]}, got {raw!r}") from None
    if not check(value):
        raise _ConfigError(f"{name} must {rule}, got {value}")
    return value


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-") or "outcome"


def _dist_stem(dist) -> str:
    """``family-p1-p2``, one per spec: ``dist.param_text()`` less an
    exponent's "+", with "m" for a leading "-" and "p" for ".", so
    normal(-1.5,2) gives normal-m1p5-2 and 1e300 is not 1e-300."""
    text = re.sub(r"(^|,)-", r"\1m", dist.param_text())
    return f"{dist.family}-" + text.replace("e+", "e").replace(
        ".", "p").replace(",", "-")


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


def cmd_test(args, alpha: float) -> int:
    def cells(group):
        result = run_test(group, alpha=alpha)
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
        moments = estimate_moments(group, classify_scenario(group))
        scenario = moments.scenario.value if moments.scenario else "direct"
        return [scenario, f"{moments.mean:.3f}", f"{moments.sd:.3f}",
                moments.source]

    return _group_table(args, ["scenario", "mean", "sd", "source"], cells)


def _indented_json(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte.

    ``indent`` makes ``json`` fall back to its pure-Python encoder, which
    took more time than the pipeline whose report it wrote.  This writes
    the same text: strings through the C escaper, floats by ``repr``
    (NaN and infinities raise ``ValueError``), and dicts with str keys
    and lists nested at two spaces a level.  Any other type, a tuple
    included, raises ``TypeError``.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON "
                             f"compliant: {obj!r}")
        return float.__repr__(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        # The C escaper raises TypeError on a key that is not a str.
        items = [encode_basestring_ascii(key) + ": "
                 + _indented_json(value, inner) for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not obj:
            return "[]"
        items = [_indented_json(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON "
                    f"serializable")


def cmd_meta(args, alpha: float) -> int:
    studies = parse_studies(args.input, format=args.format)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = run_pipeline(studies, alpha=alpha, model=args.model,
                           hedges=args.hedges)
    payload = {"alpha": alpha, "model": args.model,
               "outcomes": [report_to_dict(r) for r in reports]}
    report_path = out_dir / "report.json"
    report_path.write_text(_indented_json(payload) + "\n", encoding="utf-8")
    taken: set[str] = set()
    for report in reports:
        pooled = report.pooled
        if pooled is None:
            print(f"warning: {_printable(report.outcome_label)}: "
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
        print(f"{_printable(report.outcome_label)}: SMD {pooled.smd:.3f} "
              f"[{pooled.ci_low:.3f}, {pooled.ci_high:.3f}]  "
              f"Q {pooled.q_stat:.2f}  p {format_p_value(pooled.q_p)}  "
              f"I2 {pooled.i_squared:.1f}%  tau2 {pooled.tau_squared:.4f}  "
              f"included {included}/{len(report.studies)}")
        excluded = report.excluded_ids
        if excluded:
            print(f"  excluded: {_printable(', '.join(excluded))}")
    print(f"report: {report_path}")
    return 0


def _parse_grid(text: str | None) -> tuple[int, ...]:
    if text is None:
        return DEFAULT_N_GRID
    try:
        grid = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _ConfigError(f"grid must be comma-separated integers, "
                           f"got {text!r}") from None
    return grid


def _parse_scenario(text: str) -> Scenario:
    scenario = {"s1": Scenario.S1, "s2": Scenario.S2,
                "s3": Scenario.S3}.get(text.strip().lower())
    if scenario is None:
        raise _ConfigError(f"scenario must be s1, s2, or s3, got {text!r}")
    return scenario


def cmd_simulate(args, alpha: float, seed: int) -> int:
    from . import simulate as sim  # numpy: loaded for this command only
    scenario = _parse_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    if args.power and args.dist is None:
        raise _ConfigError("--power needs --dist family:p1[,p2]")
    if args.type1 and args.dist is not None:
        raise _ConfigError("--type1 runs the normal null; --dist goes with "
                           "--power only")
    replicates = args.replicates
    if replicates is None:
        replicates = (DEFAULT_POWER_REPLICATES if args.power
                      else DEFAULT_TYPE1_REPLICATES)
    try:
        dist = (sim.DistSpec.parse(args.dist) if args.power
                else sim.DistSpec("normal", (0.0, 1.0)))
        result = sim.power_curve(scenario, dist, grid, replicates, alpha, seed)
    except ValueError as exc:  # a refused argument or non-finite statistics
        raise _ConfigError(str(exc)) from None
    out_dir = Path(args.output_dir)  # made once nothing is refused
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.power:
        stem = f"power_{scenario.value.lower()}_{_dist_stem(dist)}"
        curve, reference = "power", None
    else:
        stem = f"type1_{scenario.value.lower()}"
        curve, reference = "type I error", alpha
    title = (f"{curve}, {scenario.value}, {dist.label()}, "
             f"R={replicates}, seed={seed}")

    csv_path = out_dir / f"{stem}.csv"
    svg_path = out_dir / f"{stem}.svg"
    sim.write_experiment_csv(result, csv_path)
    svg_path.write_text(curve_svg(result.n_grid, result.rates, title,
                                  reference=reference), encoding="utf-8")

    lo = alpha - _TYPE1_BAND_HALF_WIDTH * alpha
    hi = alpha + _TYPE1_BAND_HALF_WIDTH * alpha
    rows = []
    for n, rate, se in zip(result.n_grid, result.rates, result.ses):
        verdict = "-"
        if not args.power and n >= _TYPE1_BAND_MIN_N:
            verdict = ("ok" if lo <= rate <= hi
                       else f"outside [{lo:g}, {hi:g}]")
        rows.append([str(n), f"{rate:.4f}", f"{se:.4f}", verdict])
    print(_render_table(["n", "rate", "se", "verdict"], rows))
    if args.power:
        r2 = sim.isotonic_fit_r2(result.rates)
        print(f"isotonic fit R2 {r2:.4f}")
    print(f"csv: {csv_path}")
    print(f"svg: {svg_path}")
    return 0


def cmd_demo(args, seed: int) -> int:
    from . import simulate as sim  # numpy: loaded for this command only
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


def _add_settings(sub, func, *names: str) -> None:
    """Add the flags of the ``_SETTINGS`` ``names`` to ``sub``; ``main``
    resolves them in this order and calls ``func(args, *values)``."""
    for name in names:
        env, default, *_, text = _SETTINGS[name]
        shown = "" if default is None else f"default {default}; "
        sub.add_argument(f"--{name}", default=None,
                         help=f"{text} ({shown}env {env})")
    sub.set_defaults(func=func, settings=names)


# Built on the first main() call, not at import, and then kept: parsing
# leaves the parser as it was, and building it anew for every call took
# 1.2-1.8 ms, against 1.6-7.6 ms for a whole in-process meta run on one
# bundled file (2-vCPU x86 guest).
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumnorm",
        description="Symmetry screening, moment estimation, and "
                    "meta-analysis for quantile-summarized studies.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_test = subs.add_parser(
        "test", help="run the symmetry test on every summarized group")
    _add_input_flags(p_test)
    _add_settings(p_test, cmd_test, "alpha")

    p_est = subs.add_parser(
        "estimate", help="estimate mean and SD for every group")
    _add_input_flags(p_est)
    _add_settings(p_est, cmd_estimate)

    p_meta = subs.add_parser(
        "meta", help="screen, estimate, pool, and draw forest plots")
    _add_input_flags(p_meta)
    _add_settings(p_meta, cmd_meta, "alpha")
    p_meta.add_argument("--model", choices=["fixed", "random"],
                        default="random", help="pooling model")
    p_meta.add_argument("--hedges", action="store_true",
                        help="apply the small-sample correction to d")
    p_meta.add_argument("--output-dir", "--out", default=".",
                        help="directory for report.json and forest SVGs")

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
                       help="alternative for --power, e.g. lognormal:0,1 or "
                            "chisquare:1")
    p_sim.add_argument("--grid", default=None,
                       help="comma-separated sample sizes "
                            f"(default {','.join(map(str, DEFAULT_N_GRID))})")
    p_sim.add_argument("--replicates", type=int, default=None,
                       help="replicates per grid point "
                            f"(default {DEFAULT_TYPE1_REPLICATES} type1, "
                            f"{DEFAULT_POWER_REPLICATES} power)")
    p_sim.add_argument("--output-dir", "--out", default=".",
                       help="directory for the CSV and SVG")
    _add_settings(p_sim, cmd_simulate, "alpha", "seed")

    p_demo = subs.add_parser(
        "demo", help="true vs summary-estimated effect sizes on skewed pairs")
    p_demo.add_argument("--pairs",
                        default="lognormal,chisquare,exponential,beta,weibull",
                        help="comma-separated pair names; 'normal' is a "
                             "symmetric control pair")
    _add_settings(p_demo, cmd_demo, "seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Each setting the command declares, in order, before it runs.
        return args.func(args, *[_resolve(args, name)
                                 for name in args.settings])
    except (_ConfigError, SummaryDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
