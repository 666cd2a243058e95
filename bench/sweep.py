#!/usr/bin/env python3
"""Repeat the benchmark over seeds and write ``bench/BENCH_<label>.json``.

    python3 bench/sweep.py --label seed --seeds 1-10 --sets 2

Runs ``bench/run.py`` once per (set, workload, seed), one run at a time
and one set after the other, plus one traced run per (set, workload) on
the first seed.  For each
end-to-end metric it reports every value, the median, the quartiles and
the spread (quartile distance over median) of each set and whether it is
within the metric's bound in ``BENCHMARK.json``, and the share by which
the last set's median is worse than the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The provenance fields that describe the machine and code, not one run.
MACHINE_KEYS = ("held_out_seed", "nproc", "cpus_usable", "cpu_model",
                "l2_cache", "l3_cache", "python", "numpy", "git_commit",
                "src_sha256")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return {"provenance": json.loads(lines[-2].partition(" ")[2]),
            "result": json.loads(lines[-1])}


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "within_bound": spread <= bound}


def worse_by(first: float, last: float, better: str) -> float:
    """Share by which ``last`` is worse than ``first`` (negative: better)."""
    if not first:
        return 0.0
    return (last - first) / first if better == "lower" else (first - last) / first


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else \
        [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report: dict = {"label": args.label, "seeds": args.seeds,
                    "run_seconds": seconds, "workloads": {}}
    names = wl.WORKLOADS
    sets: dict[str, list] = {w: [] for w in names}
    layers: dict[str, list] = {w: [] for w in names}
    for index in range(args.sets):
        for workload in names:
            runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
            traced = run_once(workload, args.seeds[0], seconds, 1)
            layers[workload].append({k: v["value"] for k, v in
                                     traced["result"]["metrics"].items()})
            failed = sum(r["result"]["failed"] for r in runs)
            sets[workload].append({
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": failed,
                "metrics": {name: summarize(
                    [r["result"]["metrics"][name]["value"] for r in runs],
                    m["bound"]) for name, m in metrics.items()},
            })
            report["provenance"] = runs[0]["provenance"]
            print(f"{workload} set {index + 1}: failed {failed}", flush=True)
            for name, s in sets[workload][-1]["metrics"].items():
                print(f"  {name:16s} median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} "
                      f"(bound {metrics[name]['bound']})", flush=True)
    for workload in names:
        first, last = sets[workload][0], sets[workload][-1]
        drift = {name: worse_by(first["metrics"][name]["median"],
                                last["metrics"][name]["median"], m["better"])
                 for name, m in metrics.items()}
        report["workloads"][workload] = {
            "sets": sets[workload],
            "per_layer_traced_first_seed": layers[workload],
            "last_set_worse_than_first_by": drift,
        }
    report["provenance"] = {k: v for k, v in report["provenance"].items()
                            if k in MACHINE_KEYS}
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
