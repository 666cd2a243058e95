#!/usr/bin/env python3
"""sumnorm benchmark: one closed-loop client calling ``sumnorm.cli.main``.

    python3 bench/run.py --workload mc_type1_large_n --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's operations back to back, in
whole passes, until ``--seconds`` have elapsed, and checks every output.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs each op
once plain and once traced and reports the per-layer metrics.  The last
line of standard output is the result as one JSON object; the line
before it is the run's provenance.  Both, and the spans of a traced
run, are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl
from reference import Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# Never used while the benchmark was tuned; kept for confirming claims.
HELD_OUT_SEED = 90173


def measure_setup(reference: Reference) -> float:
    """Median wall time of a fresh interpreter importing ``sumnorm.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        reference.sample()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import sumnorm.cli"], cwd=ROOT,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def provenance(args) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"l{level}_cache"] = _read(f"{base}/size")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumnorm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "l2_cache": caches.get("l2_cache"), "l3_cache": caches.get("l3_cache"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Executes ops in process and checks each one's output."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.op_s: list[float] = []
        self.op_labels: list[str] = []
        self.summaries = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _out_dir(self, op: wl.Op) -> Path:
        # One directory per op label, emptied before each run of the op.
        out = self.work / "out" / op.label
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        return out

    def execute(self, op: wl.Op, tracer: tracing.Tracer | None = None) -> float:
        """Run ``op`` once; return its wall time in seconds."""
        out = self._out_dir(op)
        argv = op.argv + ["--output-dir", str(out)]
        sink = io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracing.installed(tracer), tracer.span(tracing.OP_SPAN):
                        rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
        self.attempted += 1
        try:
            problems = [error] if error else self.check(op, out, rc)
        except Exception as exc:
            # Any output the checks cannot read is a failed op, not a crash.
            problems = [f"malformed output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{op.label}: {'; '.join(problems)}")
        return elapsed

    def check(self, op: wl.Op, out: Path, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if op.mode == "meta":
            report = out / "report.json"
            if not report.is_file():
                return ["no report.json"]
            return wl.check_meta_report(report.read_text(encoding="utf-8"),
                                        op.expected, op.golden)
        path = out / wl.simulate_csv_name(op)
        if not path.is_file() or not path.with_suffix(".svg").is_file():
            return [f"missing {path.name} or its svg"]
        return wl.check_simulate_csv(op, path.read_text(encoding="utf-8"))

    def record(self, op: wl.Op, seconds: float) -> None:
        self.op_s.append(seconds)
        self.op_labels.append(op.label)
        self.summaries += op.summaries


def make_passes(workload: str, seed: int, work: Path):
    """Return a function that yields the ops of the next pass."""
    rng = random.Random(seed)
    if workload != "meta_pipeline":
        return lambda: wl.simulate_pass(workload, rng)
    ops = []
    for name in wl.BUNDLED:
        path = SRC / "sumnorm" / "data" / f"{name}.csv"
        ops.append(wl.meta_op(name, path, path.read_text(encoding="utf-8")))
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for i, text in enumerate(wl.synthetic_datasets(seed)):
        path = inputs / f"synthetic_{i:02d}.csv"
        path.write_text(text, encoding="utf-8")
        ops.append(wl.meta_op(path.stem, path, text))
    return lambda: ops


def warm_up(runner: Runner, workload: str, next_pass) -> None:
    """Load every code path once so the first timed op pays no import."""
    if workload == "meta_pipeline":
        for op in next_pass()[:len(wl.BUNDLED)]:
            runner.execute(op)
    else:
        op = next_pass()[0]
        argv = list(op.argv)
        argv[argv.index("--replicates") + 1] = "200"
        runner.execute(wl.Op(label="warm-up", argv=argv, summaries=0,
                             mode="warm-up"))
    runner.attempted = runner.failed = 0
    runner.problems.clear()


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(args) -> tuple[dict, dict]:
    from sumnorm import cli

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        reference = Reference(
            "python" if args.workload == "meta_pipeline" else "numpy", work)
        setup_s = None if args.trace else measure_setup(reference)
        runner = Runner(cli, work)
        next_pass = make_passes(args.workload, args.seed, work)
        warm_up(runner, args.workload, next_pass)
        tracer = tracing.Tracer() if args.trace else None
        traced_s: list[float] = []
        passes = 0
        start = last = perf_counter()
        # Whole passes keep the op mix fixed; stop where the run ends
        # closest to --seconds, judging by the last pass's length.
        while passes == 0 or (last - start) + pass_s / 2 < args.seconds:
            for op in next_pass():
                if tracer is None:
                    runner.record(op, runner.execute(op))
                    reference.maybe_sample()
                    continue
                # Alternate which run of the pair goes first.
                tracer.op_id += 1
                plain_first = tracer.op_id % 2 == 0
                if plain_first:
                    runner.record(op, runner.execute(op))
                traced_s.append(runner.execute(op, tracer))
                if not plain_first:
                    runner.record(op, runner.execute(op))
            passes += 1
            pass_s = perf_counter() - last
            last += pass_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    busy = sum(runner.op_s)
    info = {"passes": passes, "ops_timed": len(runner.op_s),
            "problems": runner.problems[:20]}
    if tracer is None:
        op_ms = [s * 1e3 for s in runner.op_s]
        raw = {
            "summaries_per_s": runner.summaries / busy,
            "ops_per_s": len(runner.op_s) / busy,
            "op_ms_p50": statistics.median(op_ms),
            "setup_s": setup_s,
        }
        scale = reference.scale()
        metrics = {
            "summaries_per_s": (raw["summaries_per_s"] / scale, "1/s"),
            "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
            "op_ms_p50": (raw["op_ms_p50"] * scale, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_rate": ((runner.attempted - runner.failed) / runner.attempted,
                        "ratio"),
            "setup_s": (setup_s * scale, "s"),
        }
        info.update(unscaled=raw, reference_kernel=reference.kind,
                    reference_samples=len(reference.samples),
                    reference_ms_median=1e3 * statistics.median(reference.samples))
    else:
        metrics = tracing.layer_metrics(tracer, len(traced_s),
                                        sum(traced_s) / busy)
        metrics["cli.op_ms_p99"] = (percentile(runner.op_s, 99) * 1e3, "ms")
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    info["op_times"] = list(zip(runner.op_labels, runner.op_s))
    if tracer is not None:
        info["absent_layers"] = sorted(tracer.absent)
        op_total = metrics["cli.op_s"][0]
        own_total = sum(tracing.self_time_by_name(tracer.spans).values())
        info["self_time_sum_over_op_time"] = \
            own_total / (op_total * len(traced_s)) if op_total else None
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sumnorm" / "cli.py").is_file():
        print(f"error: no sumnorm sources at {SRC / 'sumnorm'}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("SUMNORM_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    result, info = run(args)
    prov = dict(provenance(args), **info)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"provenance": prov, "result": result},
                               indent=2) + "\n", encoding="utf-8")
    print_info = {k: v for k, v in prov.items() if k != "op_times"}
    for problem in info["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(print_info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
