"""Reference kernels that track the machine's speed during a run.

Other tenants of the host take a share of its CPUs that shifts by 25% to
2x within minutes, which moves every wall time by the same factor.  A
run therefore times a fixed kernel now and then between its ops and
scales its times by nominal / median kernel time.  The kernels share no
code with sumnorm, so a change to sumnorm cannot move them; each mimics
the work of the workloads it scales.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

# Median kernel times on the 2-vCPU Xeon guest the baseline was measured
# on; they only set the scale of the normalised times.
NOMINAL_S = {"numpy": 0.017, "python": 0.0023}
EVERY_S = {"numpy": 1.0, "python": 0.25}

_CSV = "\n".join(
    ["id,arm,n,a,b,c,d,e"]
    + [f"s{i},{'case' if i % 2 else 'control'},{20 + i},{i * 0.37:.4f},"
       f"{i * 0.51:.4f},{i * 0.77:.4f},{i * 1.13:.4f},{i * 1.41:.4f}"
       for i in range(60)])


def numpy_kernel(_work: Path) -> None:
    """Draw a 500x500 normal matrix and select five order statistics."""
    import numpy as np
    x = np.random.Generator(np.random.PCG64(12345)).normal(size=(500, 500))
    np.partition(x, [0, 124, 249, 374, 499], axis=1)


def python_kernel(work: Path) -> None:
    """Parse a CSV, do scalar math, write indented JSON and an SVG."""
    rows = list(csv.DictReader(io.StringIO(_CSV)))
    out = []
    for row in rows:
        v = [float(row[k]) for k in "abcde"]
        mean = sum(v) / len(v)
        sd = math.sqrt(sum((x - mean) ** 2 for x in v) / (len(v) - 1))
        out.append({"id": row["id"], "arm": row["arm"], "n": int(row["n"]),
                    "mean": mean, "sd": sd, "z": math.erf(mean / (sd + 1))})
    (work / "reference.json").write_text(json.dumps(out, indent=2),
                                         encoding="utf-8")
    svg = "".join(f'<rect x="{r["mean"]:.2f}" width="{r["sd"]:.2f}"/>\n'
                  for r in out)
    (work / "reference.svg").write_text(svg, encoding="utf-8")


KERNELS = {"numpy": numpy_kernel, "python": python_kernel}


class Reference:
    """Samples one kernel through a run."""

    def __init__(self, kind: str, work: Path):
        self.kind = kind
        self.work = work
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        KERNELS[self.kind](self.work)
        self.last = perf_counter()
        self.samples.append(self.last - start)

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= EVERY_S[self.kind]:
            self.sample()

    def scale(self) -> float:
        """Factor that maps this run's times to the nominal speed."""
        return NOMINAL_S[self.kind] / statistics.median(self.samples)
