"""In-memory span tracer and the layer wrappers of the traced run.

The traced run replaces module attributes that sumnorm looks up at call
time (``sumnorm.simulate._draw``, ``sumnorm.cli.parse_studies``, ...) with
wrappers that record a span and the layer's counts, then puts the
originals back.  Nothing in the package itself is edited.  A layer whose
attribute no longer exists is reported as absent instead of failing the
run, so a later rename of a private helper only blanks that layer.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter
from time import perf_counter

# A span is [name, start, end, parent index or -1, op id].
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Spans and counts of the traced ops of one run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.op_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = perf_counter()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, start, start, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[END] = perf_counter()

    def write(self, path) -> None:
        """Write every span as one JSON line, then the counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "absent": sorted(self.absent)}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[k][START], spans[k][END]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: list[list]) -> Counter:
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] += own
    return totals


def _count_draw(counts, result, exc):
    if exc is None:
        counts["simulate.values_drawn"] += result.size
        counts["simulate.bytes_drawn_computed"] += result.nbytes
        counts["simulate.draw_calls"] += 1


def _count_parse(counts, result, exc):
    if exc is None:
        counts["model.studies"] += len(result)
        counts["model.rows"] += sum(len(study.groups) for study in result)


def _count_test(counts, result, exc):
    if type(exc).__name__ == "DegenerateSummaryError":
        counts["symmetry.degenerate"] += 1
    elif exc is None and result is not None:
        counts["symmetry.tests"] += 1
        counts["symmetry.rejections"] += bool(result.reject)


def _count_estimate(counts, result, exc):
    counts["estimators.calls"] += 1


def _count_pipeline(counts, result, exc):
    if exc is None:
        for report in result:
            counts["meta.studies"] += len(report.studies)
            counts["meta.included"] += len(report.included_ids)


def _count_svg(counts, result, exc):
    if exc is None:
        counts["plots.svg_bytes"] += len(result.encode("utf-8"))


# (module, attribute looked up at call time, span name, counter)
LAYERS = (
    ("sumnorm.simulate", "_rejection_curve", "simulate.reduce", None),
    ("sumnorm.simulate", "_summary_matrix", "simulate.select", None),
    ("sumnorm.simulate", "_draw", "simulate.draw", _count_draw),
    ("sumnorm.simulate", "_statistics", "simulate.statistic", None),
    ("sumnorm.simulate", "write_experiment_csv", "simulate.write_csv", None),
    ("sumnorm.cli", "curve_svg", "plots.curve_svg", None),
    ("sumnorm.cli", "parse_studies", "model.parse", _count_parse),
    ("sumnorm.cli", "run_pipeline", "meta.run_pipeline", _count_pipeline),
    ("sumnorm.meta", "run_test", "symmetry.run_test", _count_test),
    ("sumnorm.meta", "estimate_moments", "estimators.estimate", _count_estimate),
    ("sumnorm.meta", "cohen_d", "meta.cohen_d", None),
    ("sumnorm.meta", "pool", "meta.pool", None),
    ("sumnorm.cli", "report_to_dict", "meta.report_to_dict", None),
    ("sumnorm.cli", "forest_svg", "plots.forest_svg", _count_svg),
)

# The span the benchmark opens around each ``sumnorm.cli.main`` call.
OP_SPAN = "cli.op"


def _wrap(tracer: Tracer, name: str, fn, count):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count is not None:
                    count(tracer.counts, None, exc)
                raise
            if count is not None:
                count(tracer.counts, result, None)
            return result
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Wrap every layer present for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, count in layers:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.absent.add(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, count))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, traced_ops: int,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-op means of every layer's self time and counts.

    An idle or absent layer reads 0; ``tracer.absent`` says which.
    """
    own = self_time_by_name(tracer.spans)
    op_total = sum(s[END] - s[START] for s in tracer.spans if s[NAME] == OP_SPAN)
    c = tracer.counts
    per_op = 1.0 / max(traced_ops, 1)
    draw_select = own["simulate.draw"] + own["simulate.select"]
    values = c["simulate.values_drawn"]
    out = {
        "simulate.draw_s": (own["simulate.draw"] * per_op, "s"),
        "simulate.select_s": (own["simulate.select"] * per_op, "s"),
        "simulate.statistic_s": (own["simulate.statistic"] * per_op, "s"),
        "simulate.reduce_s": (own["simulate.reduce"] * per_op, "s"),
        "simulate.write_csv_s": (own["simulate.write_csv"] * per_op, "s"),
        "simulate.values_drawn": (values * per_op, "count"),
        "simulate.bytes_drawn_computed":
            (c["simulate.bytes_drawn_computed"] * per_op, "bytes"),
        "simulate.draw_calls": (c["simulate.draw_calls"] * per_op, "count"),
        "simulate.ns_per_value":
            (draw_select / values * 1e9 if values else 0.0, "ns"),
        "plots.curve_svg_s": (own["plots.curve_svg"] * per_op, "s"),
        "model.parse_s": (own["model.parse"] * per_op, "s"),
        "model.rows": (c["model.rows"] * per_op, "count"),
        "model.studies": (c["model.studies"] * per_op, "count"),
        "symmetry.run_test_s": (own["symmetry.run_test"] * per_op, "s"),
        "symmetry.tests": (c["symmetry.tests"] * per_op, "count"),
        "symmetry.rejections": (c["symmetry.rejections"] * per_op, "count"),
        "symmetry.degenerate": (c["symmetry.degenerate"] * per_op, "count"),
        "estimators.estimate_s": (own["estimators.estimate"] * per_op, "s"),
        "estimators.calls": (c["estimators.calls"] * per_op, "count"),
        "meta.cohen_d_s": (own["meta.cohen_d"] * per_op, "s"),
        "meta.pool_s": (own["meta.pool"] * per_op, "s"),
        "meta.run_pipeline_self_s": (own["meta.run_pipeline"] * per_op, "s"),
        "meta.report_to_dict_s": (own["meta.report_to_dict"] * per_op, "s"),
        "meta.included_ratio":
            (c["meta.included"] / c["meta.studies"] if c["meta.studies"] else 0.0,
             "ratio"),
        "plots.forest_svg_s": (own["plots.forest_svg"] * per_op, "s"),
        "plots.svg_bytes": (c["plots.svg_bytes"] * per_op, "bytes"),
        "cli.op_s": (op_total * per_op, "s"),
        "cli.self_s": (own[OP_SPAN] * per_op, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return out
