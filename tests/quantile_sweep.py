"""Sweep every float32 input of the Phi^-1 port through both precisions.

The float32 screen of ``sumnorm.simulate`` allows the port's own float32
evaluation an error of 41 u (1 + |z|), u = 2^-24 (``_error_bound``).
``test_simulate.py::TestFloat32Quantile`` checks that on a fixed sample
of 2^18 inputs; this script checks it on every float32 input the screen
reads.  ``_quantile_row`` in float32 is compared with itself in float64
at the same float32 input, p or 1 - p:

* every p from 2^-126, float32's smallest normal number, to 0.5, with
  ``upper`` its float32 complement: the central branch and the lower
  tail, which reads p;
* every ``upper`` in the same range, with p its float32 complement: the
  central branch again, at the p above 0.5, and the upper tail, which
  reads ``upper``.

Each input is filed under the branch the port takes for it: central
where |p - 0.5| <= 0.425 in float32, else the lower or upper tail, near
(s = sqrt(-ln(min(p, 1 - p))) <= 5) or far.  Subnormal inputs lie past
every family's far-tail guard, Phi(-12), so the screen never trusts them
and they are not swept.  The script prints the worst error per branch in
units of u (1 + |z|), the input that reached it, and the numpy version
and CPU features that chose the float32 log and sqrt kernels.  It makes
about 2.1e9 comparisons in blocks of 2^20 inputs (under 100 MB at once),
a few minutes on one core.  Run it with

    PYTHONPATH=src python tests/quantile_sweep.py

pytest does not collect it: its name does not start with ``test_``.
"""

from __future__ import annotations

import platform
import sys
import time

import numpy as np

from sumnorm.simulate import _U32, _quantile_row

_BLOCK = 1 << 20
_ALLOWED = 41  # in u (1 + |z|), the port's share of ``_error_bound``
_BRANCHES = ("central", "lower near", "lower far", "upper near", "upper far")


def _cpu_features() -> str:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [name for name, on in umath.__cpu_features__.items() if on]
    return (f"baseline {' '.join(umath.__cpu_baseline__)}; dispatch "
            f"{' '.join(umath.__cpu_dispatch__)}; found {' '.join(found)}")


def _complement(x: np.ndarray) -> np.ndarray:
    return (1.0 - x.astype(np.float64)).astype(np.float32)


def _sweep_block(x: np.ndarray, upper_half: bool, worst: dict) -> None:
    # x is the input the port reads in the tail of this half: p in the
    # lower half, 1 - p in the upper one.
    if upper_half:
        p, upper = _complement(x), x
    else:
        p, upper = x, _complement(x)
    z32 = _quantile_row(p, upper)
    z64 = _quantile_row(p.astype(np.float64), upper.astype(np.float64))
    error = np.abs(z32 - z64)
    error /= 1.0 + np.abs(z64)
    error /= _U32
    central = np.abs(p - np.float32(0.5)) <= np.float32(0.425)
    near = np.sqrt(-np.log(x.astype(np.float64))) <= 5.0
    side = "upper" if upper_half else "lower"
    for name, mask in (("central", central),
                       (f"{side} near", ~central & near),
                       (f"{side} far", ~central & ~near)):
        if not mask.any():
            continue
        i = np.flatnonzero(mask)[np.argmax(error[mask])]
        worst[name][1] += int(np.count_nonzero(mask))
        if error[i] > worst[name][0]:
            worst[name][0] = float(error[i])
            worst[name][2] = (float(p[i]), float(upper[i]))


def main() -> int:
    first, last = np.array([2.0 ** -126, 0.5], np.float32).view(np.int32)
    worst = {name: [0.0, 0, None] for name in _BRANCHES}
    start = time.monotonic()
    with np.errstate(all="ignore"):
        for upper_half in (False, True):
            for lo in range(int(first), int(last) + 1, _BLOCK):
                bits = np.arange(lo, min(lo + _BLOCK, int(last) + 1),
                                 dtype=np.int32)
                _sweep_block(bits.view(np.float32), upper_half, worst)
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}")
    print(f"cpu: {_cpu_features()}")
    print(f"{'branch':<11} {'inputs':>11} {'worst':>7}  at (p, 1 - p)")
    failed = False
    for name in _BRANCHES:
        error, count, at = worst[name]
        print(f"{name:<11} {count:>11} {error:>7.3f}  {at}")
        failed |= error > _ALLOWED
    print(f"worst error in u (1 + |z|), against the {_ALLOWED} allowed; "
          f"{time.monotonic() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
