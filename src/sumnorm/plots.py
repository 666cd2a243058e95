"""Deterministic SVG emission: forest plots and simulation curves.

All geometry is formatted with fixed precision so that identical inputs
produce byte-identical documents; no plotting library is involved.
"""

from __future__ import annotations

import math
from typing import Sequence

from .meta import PipelineReport
from .symmetry import format_p_value

__all__ = ["forest_svg", "curve_svg"]

_FONT = "font-family=\"DejaVu Sans, Helvetica, sans-serif\""
_TICKS = 5  # how many ticks an axis aims for


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi]; deterministic."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw_step = span / (_TICKS - 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if step >= raw_step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _tick_label(t: float) -> str:
    if t == int(t):
        return str(int(t))
    return f"{t:g}"


def _svg_start(width: int, height: int) -> list[str]:
    # The XML declaration, the root element and its white background.
    return ['<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']


def forest_svg(report: PipelineReport) -> str:
    """Forest plot of one outcome's included studies plus pooled diamond.

    One row per included study: a square whose side scales with the
    pooling weight, a 95% CI whisker, and the numeric SMD [CI] column.
    The pooled effect is drawn as a diamond spanning its CI, with Q,
    I-squared, and the Q-test p-value annotated underneath.

    Raises
    ------
    ValueError
        If the report contains no included studies; the exclusion
        reasons in the report say why each study was dropped.
    """
    included = [s for s in report.studies if s.included]
    if not included or report.pooled is None:
        raise ValueError(
            f"no included studies for outcome {report.outcome_label!r}; "
            f"inspect the report's exclusion reasons")
    pooled = report.pooled

    row_h = 26
    top = 56
    plot_left, plot_right = 300.0, 640.0
    width = 820
    n_rows = len(included)
    diamond_y = top + n_rows * row_h + 14
    axis_y = diamond_y + 26
    height = axis_y + 58

    lo = min(min(s.effect.ci_low for s in included), pooled.ci_low, 0.0)
    hi = max(max(s.effect.ci_high for s in included), pooled.ci_high, 0.0)
    pad = 0.05 * (hi - lo) or 1.0
    lo -= pad
    hi += pad

    def x_of(v: float) -> float:
        return plot_left + (v - lo) / (hi - lo) * (plot_right - plot_left)

    out = _svg_start(width, height)
    out.append(f'<text x="10" y="24" {_FONT} font-size="15" font-weight="bold">'
               f'{_esc(report.outcome_label)}</text>')
    out.append(f'<text x="10" y="{top - 10}" {_FONT} font-size="12" '
               f'font-weight="bold">Study</text>')
    out.append(f'<text x="650" y="{top - 10}" {_FONT} font-size="12" '
               f'font-weight="bold">SMD [95% CI]</text>')

    zero_x = _fmt(x_of(0.0))
    out.append(f'<line x1="{zero_x}" y1="{top - 4}" x2="{zero_x}" '
               f'y2="{_fmt(axis_y)}" stroke="#888888" '
               f'stroke-dasharray="4,3" stroke-width="1"/>')

    max_w = max(pooled.weights) if pooled.weights else 1.0
    for i, entry in enumerate(included):
        e = entry.effect
        y = top + i * row_h + row_h / 2
        side = 5.0 + 9.0 * (pooled.weights[i] / max_w)
        out.append(f'<text x="10" y="{_fmt(y + 4)}" {_FONT} font-size="12">'
                   f'{_esc(entry.study_id)}</text>')
        out.append(f'<line x1="{_fmt(x_of(e.ci_low))}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(x_of(e.ci_high))}" y2="{_fmt(y)}" '
                   f'stroke="black" stroke-width="1.2"/>')
        out.append(f'<rect x="{_fmt(x_of(e.smd) - side / 2)}" '
                   f'y="{_fmt(y - side / 2)}" width="{_fmt(side)}" '
                   f'height="{_fmt(side)}" fill="#444444"/>')
        out.append(f'<text x="650" y="{_fmt(y + 4)}" {_FONT} font-size="12">'
                   f'{e.smd:.2f} [{e.ci_low:.2f}, {e.ci_high:.2f}]</text>')

    dy = diamond_y
    out.append(f'<polygon points="{_fmt(x_of(pooled.ci_low))},{_fmt(dy)} '
               f'{_fmt(x_of(pooled.smd))},{_fmt(dy - 8)} '
               f'{_fmt(x_of(pooled.ci_high))},{_fmt(dy)} '
               f'{_fmt(x_of(pooled.smd))},{_fmt(dy + 8)}" '
               f'fill="#1f4e79"/>')
    out.append(f'<text x="10" y="{_fmt(dy + 4)}" {_FONT} font-size="12" '
               f'font-weight="bold">Pooled ({_esc(pooled.model)})</text>')
    out.append(f'<text x="650" y="{_fmt(dy + 4)}" {_FONT} font-size="12" '
               f'font-weight="bold">{pooled.smd:.2f} [{pooled.ci_low:.2f}, '
               f'{pooled.ci_high:.2f}]</text>')

    out.append(f'<line x1="{_fmt(plot_left)}" y1="{_fmt(axis_y)}" '
               f'x2="{_fmt(plot_right)}" y2="{_fmt(axis_y)}" '
               f'stroke="black" stroke-width="1"/>')
    for t in _nice_ticks(lo, hi):
        tx = _fmt(x_of(t))
        out.append(f'<line x1="{tx}" y1="{_fmt(axis_y)}" x2="{tx}" '
                   f'y2="{_fmt(axis_y + 5)}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{tx}" y="{_fmt(axis_y + 18)}" {_FONT} '
                   f'font-size="11" text-anchor="middle">{_tick_label(t)}</text>')
    out.append(f'<text x="{_fmt((plot_left + plot_right) / 2)}" '
               f'y="{_fmt(axis_y + 34)}" {_FONT} font-size="12" '
               f'text-anchor="middle">Standardized mean difference</text>')
    out.append(f'<text x="10" y="{_fmt(axis_y + 34)}" {_FONT} font-size="12">'
               f'Q={pooled.q_stat:.2f}, I²={pooled.i_squared:.0f}%, '
               f'p={_esc(format_p_value(pooled.q_p))}</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def curve_svg(ns: Sequence[int], rates: Sequence[float], title: str,
              reference: float | None = None) -> str:
    """Line plot of a rejection-rate curve over sample sizes.

    ``reference`` draws a dashed horizontal guide (the nominal level for
    type I error curves); pass None for power curves.
    """
    if len(ns) != len(rates) or not ns:
        raise ValueError("ns and rates must be equal-length and nonempty")
    width, height = 640, 420
    left, right, top, bottom = 70.0, 600.0, 50.0, 360.0
    x_lo, x_hi = 0.0, max(ns) * 1.05

    def x_of(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def y_of(r: float) -> float:
        return bottom - r * (bottom - top)

    out = _svg_start(width, height)
    out.append(f'<text x="{_fmt(width / 2)}" y="26" {_FONT} font-size="14" '
               f'text-anchor="middle" font-weight="bold">{_esc(title)}</text>')
    out.append(f'<line x1="{_fmt(left)}" y1="{_fmt(bottom)}" '
               f'x2="{_fmt(right)}" y2="{_fmt(bottom)}" stroke="black"/>')
    out.append(f'<line x1="{_fmt(left)}" y1="{_fmt(top)}" '
               f'x2="{_fmt(left)}" y2="{_fmt(bottom)}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _fmt(y_of(frac))
        out.append(f'<line x1="{_fmt(left - 4)}" y1="{y}" x2="{_fmt(left)}" '
                   f'y2="{y}" stroke="black"/>')
        out.append(f'<text x="{_fmt(left - 8)}" y="{_fmt(y_of(frac) + 4)}" '
                   f'{_FONT} font-size="11" text-anchor="end">{frac:g}</text>')
    for t in _nice_ticks(0.0, float(max(ns))):
        tx = _fmt(x_of(t))
        out.append(f'<line x1="{tx}" y1="{_fmt(bottom)}" x2="{tx}" '
                   f'y2="{_fmt(bottom + 4)}" stroke="black"/>')
        out.append(f'<text x="{tx}" y="{_fmt(bottom + 18)}" {_FONT} '
                   f'font-size="11" text-anchor="middle">{_tick_label(t)}</text>')
    out.append(f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(bottom + 38)}" '
               f'{_FONT} font-size="12" text-anchor="middle">Sample size n</text>')
    out.append(f'<text x="20" y="{_fmt((top + bottom) / 2)}" {_FONT} '
               f'font-size="12" text-anchor="middle" '
               f'transform="rotate(-90 20 {_fmt((top + bottom) / 2)})">'
               f'Rejection rate</text>')
    if reference is not None:
        ry = _fmt(y_of(reference))
        out.append(f'<line x1="{_fmt(left)}" y1="{ry}" x2="{_fmt(right)}" '
                   f'y2="{ry}" stroke="#cc0000" stroke-dasharray="5,4" '
                   f'stroke-width="1"/>')
    points = " ".join(f"{_fmt(x_of(n))},{_fmt(y_of(r))}"
                      for n, r in zip(ns, rates))
    out.append(f'<polyline points="{points}" fill="none" stroke="#1f4e79" '
               f'stroke-width="1.8"/>')
    for n, r in zip(ns, rates):
        out.append(f'<circle cx="{_fmt(x_of(n))}" cy="{_fmt(y_of(r))}" '
                   f'r="3" fill="#1f4e79"/>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
