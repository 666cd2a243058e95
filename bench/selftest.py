#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a source checkout.  Kept out of the package's
pytest suite on purpose: they test the benchmark, not sumnorm.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from sumnorm import cli, simulate  # noqa: E402

DATA = BENCH.parent / "src" / "sumnorm" / "data"


def run_cli(argv: list[str], tracer: tracing.Tracer | None = None) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        with tracing.installed(tracer), tracer.span(tracing.OP_SPAN):
            return cli.main(argv)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [["op", 0.0, 10.0, -1, 0],
                 ["a", 1.0, 4.0, 0, 0],
                 ["b", 2.0, 3.0, 1, 0],
                 ["c", 5.0, 9.0, 0, 0]]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(sum(tracing.self_times(spans)), 10.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [["op", 0.0, 10.0, -1, 0],
                 ["a", 1.0, 5.0, 0, 0],
                 ["b", 3.0, 7.0, 0, 0],
                 ["c", 8.0, 12.0, 0, 0]]
        # Covered: [1, 7] and [8, 10], so 8 of the op's 10 seconds.
        self.assertEqual(tracing.self_times(spans)[0], 2.0)

    def test_self_times_of_a_real_trace_sum_to_the_root(self):
        tracer = tracing.Tracer()
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("child"):
                    with tracer.span("grandchild"):
                        sum(range(1000))
        root = tracer.spans[0]
        own = tracing.self_time_by_name(tracer.spans)
        self.assertAlmostEqual(sum(own.values()),
                               root[tracing.END] - root[tracing.START], places=12)
        self.assertEqual([s[tracing.PARENT] for s in tracer.spans],
                         [-1, 0, 1, 0, 3, 0, 5])


class LayerTest(unittest.TestCase):
    def test_values_drawn_is_replicates_times_n_summed(self):
        # 20001 replicates need two chunks per grid point.
        grid, replicates = (4, 10, 33), 20_001
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory() as out:
            rc = run_cli(["simulate", "--type1", "--scenario", "s3",
                          "--grid", ",".join(map(str, grid)),
                          "--replicates", str(replicates), "--seed", "5",
                          "--output-dir", out], tracer)
        self.assertEqual(rc, 0)
        metrics = tracing.layer_metrics(tracer, 1, 1.0)
        values = replicates * sum(grid)
        self.assertEqual(metrics["simulate.values_drawn"][0], values)
        self.assertEqual(metrics["simulate.bytes_drawn_computed"][0], 8 * values)
        self.assertEqual(metrics["simulate.draw_calls"][0], 2 * len(grid))
        self.assertGreater(metrics["simulate.draw_s"][0], 0.0)
        self.assertEqual(metrics["model.parse_s"][0], 0.0)

    def test_meta_layers_are_counted(self):
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory() as out:
            rc = run_cli(["meta", str(DATA / "zhang2017.csv"),
                          "--output-dir", out], tracer)
        self.assertEqual(rc, 0)
        metrics = tracing.layer_metrics(tracer, 1, 1.0)
        self.assertEqual(metrics["model.studies"][0], 23)
        self.assertEqual(metrics["meta.included_ratio"][0], 16 / 23)
        self.assertEqual(metrics["simulate.values_drawn"][0], 0)
        self.assertGreater(metrics["plots.svg_bytes"][0], 0)

    def test_originals_restored_and_missing_layer_reported_absent(self):
        layers = tracing.LAYERS + (
            ("sumnorm.simulate", "_renamed_helper", "simulate.gone", None),)
        draw = simulate._draw
        tracer = tracing.Tracer()
        with tracing.installed(tracer, layers):
            self.assertIsNot(simulate._draw, draw)
        self.assertIs(simulate._draw, draw)
        self.assertEqual(tracer.absent, {"sumnorm.simulate._renamed_helper"})


class ReferenceTest(unittest.TestCase):
    def test_scale_maps_the_median_kernel_time_to_nominal(self):
        with tempfile.TemporaryDirectory() as work:
            ref = reference.Reference("python", Path(work))
            ref.samples = [0.004, 0.001, 0.002]
            self.assertEqual(ref.scale(), reference.NOMINAL_S["python"] / 0.002)
            ref.sample()
            self.assertEqual(len(ref.samples), 4)
            self.assertEqual(sorted(p.name for p in Path(work).iterdir()),
                             ["reference.json", "reference.svg"])


class SyntheticDataTest(unittest.TestCase):
    def test_deterministic_in_seed(self):
        self.assertEqual(wl.synthetic_datasets(7), wl.synthetic_datasets(7))
        self.assertNotEqual(wl.synthetic_datasets(7), wl.synthetic_datasets(8))

    def test_shapes_are_stratified_and_mixed(self):
        def shape(text):
            rows = list(csv.DictReader(io.StringIO(text)))
            return len(rows), len({r["outcome"] for r in rows})

        a, b = wl.synthetic_datasets(1), wl.synthetic_datasets(2)
        self.assertEqual(sorted(map(shape, a)), sorted(map(shape, b)))
        rows = [r for text in a for r in csv.DictReader(io.StringIO(text))]
        self.assertTrue(all(10 <= shape(t)[0] <= 70 for t in a))
        kinds = {("direct" if r["mean"] else
                  "S3" if r["min"] and r["q1"] else
                  "S1" if r["min"] else "S2") for r in rows}
        self.assertEqual(kinds, {"direct", "S1", "S2", "S3"})
        self.assertTrue(any(r["group_label"] == "case 2" for r in rows))

    def test_every_dataset_passes_the_checks_and_some_are_rejected(self):
        rejected = 0
        with tempfile.TemporaryDirectory() as out:
            for i, text in enumerate(wl.synthetic_datasets(3)):
                path = Path(out) / f"d{i}.csv"
                path.write_text(text, encoding="utf-8")
                op = wl.meta_op(path.stem, path, text)
                self.assertEqual(run_cli(op.argv + ["--output-dir", out]), 0)
                report = (Path(out) / "report.json").read_text(encoding="utf-8")
                self.assertEqual(
                    wl.check_meta_report(report, op.expected), [], path.stem)
                rejected += sum(not s["included"]
                                for o in json.loads(report)["outcomes"]
                                for s in o["studies"])
        self.assertGreater(rejected, 0)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        path = DATA / "zhang2017.csv"
        cls.op = wl.meta_op("zhang2017", path, path.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory() as out:
            run_cli(cls.op.argv + ["--output-dir", out])
            cls.report = (Path(out) / "report.json").read_text(encoding="utf-8")

    def problems(self, text):
        return wl.check_meta_report(text, self.op.expected, self.op.golden)

    def corrupt(self, edit):
        payload = json.loads(self.report)
        edit(payload)
        return json.dumps(payload)

    def test_bundled_zhang2017_matches_the_readme(self):
        self.assertEqual(self.problems(self.report), [])

    def test_nan_and_infinity_tokens_are_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            text = self.corrupt(
                lambda p: p["outcomes"][0]["pooled"].update(q_stat=bad))
            self.assertTrue(self.problems(text), bad)

    def test_lost_study_and_wrong_pooled_value_are_rejected(self):
        text = self.corrupt(lambda p: p["outcomes"][0]["studies"].pop())
        self.assertTrue(self.problems(text))
        text = self.corrupt(
            lambda p: p["outcomes"][0]["pooled"].update(smd=1.43))
        self.assertTrue(self.problems(text))

    def simulate_csv(self, op, rates):
        lines = ["n,rate,se,replicates,scenario,family,params,seed"]
        lines += [f"{n},{r},0.001,{wl.REPLICATES},S1,normal,\"0,1\",{op.seed}"
                  for n, r in zip(op.grid, rates)]
        return "\n".join(lines) + "\n"

    def test_type1_rates_outside_the_band_are_rejected(self):
        op = wl.simulate_pass("mc_type1_large_n", random.Random(0))[0]
        self.assertEqual(wl.check_simulate_csv(
            op, self.simulate_csv(op, (0.05, 0.049, 0.051))), [])
        self.assertTrue(wl.check_simulate_csv(
            op, self.simulate_csv(op, (0.05, 0.09, 0.051))))
        self.assertTrue(wl.check_simulate_csv(
            op, self.simulate_csv(op, (0.05, 0.05))))

    def test_power_rates_outside_unit_interval_or_below_floor_are_rejected(self):
        ops = wl.simulate_pass("mc_power_small_n", random.Random(0))
        floor_op = next(o for o in ops
                        if (o.scenario, o.dist) == wl.POWER_FLOOR[:2])
        good = (0.2, 0.6, 0.9, 0.99)
        self.assertEqual(wl.check_simulate_csv(
            floor_op, self.simulate_csv(floor_op, good)), [])
        self.assertTrue(wl.check_simulate_csv(
            floor_op, self.simulate_csv(floor_op, (0.2, 0.6, 0.9, 0.94))))
        self.assertTrue(wl.check_simulate_csv(
            floor_op, self.simulate_csv(floor_op, (0.2, 1.2, 0.9, 0.99))))

    def test_non_numeric_n_is_rejected(self):
        op = wl.simulate_pass("mc_type1_large_n", random.Random(0))[0]
        text = self.simulate_csv(op, (0.05, 0.05, 0.05)).replace("\n500,", "\nabc,")
        self.assertTrue(wl.check_simulate_csv(op, text))


class FakeCli:
    """Stands in for ``sumnorm.cli``: writes fixed files into --output-dir."""

    def __init__(self, files: dict[str, str]):
        self.files = files

    def main(self, argv):
        out = Path(argv[argv.index("--output-dir") + 1])
        for name, text in self.files.items():
            (out / name).write_text(text, encoding="utf-8")
        return 0


class MalformedOutputTest(unittest.TestCase):
    """An output the checks cannot read counts as a failed op."""

    def execute(self, op, files):
        with tempfile.TemporaryDirectory() as work:
            runner = run.Runner(FakeCli(files), Path(work))
            runner.execute(op)
        self.assertEqual((runner.attempted, runner.failed), (1, 1))
        self.assertTrue(runner.problems[0].startswith(op.label))

    def test_simulate_csv_with_non_numeric_n(self):
        op = wl.simulate_pass("mc_type1_large_n", random.Random(0))[0]
        rows = [f"{n},0.05,0.001,{wl.REPLICATES},S1,normal,\"0,1\",{op.seed}"
                for n in ("200", "abc", "1000")]
        text = "\n".join(["n,rate,se,replicates,scenario,family,params,seed"]
                         + rows) + "\n"
        name = wl.simulate_csv_name(op)
        self.execute(op, {name: text, name[:-4] + ".svg": "<svg/>"})

    def test_meta_report_with_string_pooled_values(self):
        path = DATA / "zhang2017.csv"
        op = wl.meta_op("zhang2017", path, path.read_text(encoding="utf-8"))
        with tempfile.TemporaryDirectory() as out:
            run_cli(op.argv + ["--output-dir", out])
            payload = json.loads(
                (Path(out) / "report.json").read_text(encoding="utf-8"))
        for outcome in payload["outcomes"]:
            pooled = outcome["pooled"]
            for key in ("smd", "ci_low", "ci_high"):
                pooled[key] = str(pooled[key])
        self.execute(op, {"report.json": json.dumps(payload)})


if __name__ == "__main__":
    unittest.main()
