"""Minimal self-contained SVG line charts (no plotting dependency)."""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

__all__ = ["svg_line_chart"]

_COLOR = "#1f6fb2"


def _nice_step(span: float, target: int) -> float:
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:.6g}"


def svg_line_chart(label: str, xs, ys, vlines=()) -> str:
    """Render the curve ``ys`` against ``xs``, titled and keyed ``label``, as SVG text.

    The axes read ``level`` and ``value``.  Non-finite points are dropped.
    ``vlines`` is a sequence of ``(x, text)`` pairs drawn as dashed
    vertical markers.
    """
    pts = [p for p in zip(map(float, xs), map(float, ys)) if all(map(math.isfinite, p))]
    if not pts:
        raise ValueError("nothing to plot: no finite points")
    xs_all, ys_all = zip(*pts)
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad_y = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad_y, y1 + pad_y

    width, height = 720, 480
    left, right, top, bottom = 64, 16, 36, 48
    pw, ph = width - left - right, height - top - bottom

    def px(x: float) -> float:
        return left + (x - x0) / (x1 - x0) * pw

    def py(y: float) -> float:
        return top + (y1 - y) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{escape(label)}</text>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x0, x1):
        out += [
            f'<line x1="{px(t):.1f}" y1="{top + ph}" x2="{px(t):.1f}" '
            f'y2="{top + ph + 4}" stroke="#333"/>',
            f'<text x="{px(t):.1f}" y="{top + ph + 16}" text-anchor="middle">{_fmt(t)}</text>',
        ]
    for t in _ticks(y0, y1):
        out += [
            f'<line x1="{left - 4}" y1="{py(t):.1f}" x2="{left}" y2="{py(t):.1f}" stroke="#333"/>',
            f'<text x="{left - 6}" y="{py(t) + 4:.1f}" text-anchor="end">{_fmt(t)}</text>',
        ]
    out += [
        f'<text x="{left + pw / 2:.1f}" y="{height - 8}" text-anchor="middle">level</text>',
        f'<text x="14" y="{top + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {top + ph / 2:.1f})">value</text>',
    ]
    for x, text in vlines:
        x = float(x)
        if not math.isfinite(x) or not (x0 <= x <= x1):
            continue
        out.append(
            f'<line x1="{px(x):.1f}" y1="{top}" x2="{px(x):.1f}" '
            f'y2="{top + ph}" stroke="#888" stroke-dasharray="4 3"/>'
        )
        if text:
            out.append(
                f'<text x="{px(x) + 3:.1f}" y="{top + 12}" fill="#555">{escape(text)}</text>'
            )
    coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
    ly = top + 10  # the legend's one entry
    out += [
        f'<polyline points="{coords}" fill="none" stroke="{_COLOR}" stroke-width="1.5"/>',
        f'<line x1="{left + pw - 130}" y1="{ly}" x2="{left + pw - 110}" '
        f'y2="{ly}" stroke="{_COLOR}" stroke-width="2"/>',
        f'<text x="{left + pw - 104}" y="{ly + 4}">{escape(label)}</text>',
        "</svg>",
    ]
    return "\n".join(out)
