"""Tiny static SVG line plots; no plotting dependency.

Enough for density figures: one polyline, axis ticks, optional shaded
well regions with text annotations.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["line_plot"]

_WIDTH, _HEIGHT = 720.0, 440.0
_MARGIN = {"left": 62.0, "right": 18.0, "top": 34.0, "bottom": 46.0}
_TICKS = 6  # ticks _ticks aims for on each axis
_REGION_FILLS = ("#dbe9f6", "#fdeacc", "#dff0da", "#f6dbe9")


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0.0 or not math.isfinite(span):
        return [lo]
    raw = span / (_TICKS - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(xs: Sequence[float], ys: Sequence[float], *,
              title: str = "", xlabel: str = "", ylabel: str = "",
              regions: Iterable[tuple[float, float, str]] | None = None) -> str:
    """Render one curve as a standalone _WIDTH x _HEIGHT SVG document.

    regions: optional (lo, hi, label) bands shaded behind the curve; the
    label is drawn near the top of the band.  Infinite band edges are
    clipped to the data range.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two or more (x, y) samples")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    box_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    box_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def px(x: float) -> float:
        return _MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * box_w

    def py(y: float) -> float:
        return _MARGIN["top"] + (y_hi - y) / (y_hi - y_lo) * box_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
    ]
    if regions:
        for i, (lo, hi, label) in enumerate(regions):
            lo_c = max(lo, x_lo)
            hi_c = min(hi, x_hi)
            if hi_c <= lo_c:
                continue
            fill = _REGION_FILLS[i % len(_REGION_FILLS)]
            parts.append(
                f'<rect x="{px(lo_c):.2f}" y="{_MARGIN["top"]:.2f}" '
                f'width="{px(hi_c) - px(lo_c):.2f}" height="{box_h:.2f}" '
                f'fill="{fill}"/>')
            if label:
                parts.append(
                    f'<text x="{0.5 * (px(lo_c) + px(hi_c)):.2f}" '
                    f'y="{_MARGIN["top"] + 16.0:.2f}" font-size="12" '
                    f'text-anchor="middle" fill="#333">{label}</text>')
    parts.append(
        f'<rect x="{_MARGIN["left"]:.2f}" y="{_MARGIN["top"]:.2f}" '
        f'width="{box_w:.2f}" height="{box_h:.2f}" fill="none" '
        f'stroke="#222" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(t):.2f}" y1="{py(y_lo):.2f}" '
                     f'x2="{px(t):.2f}" y2="{py(y_lo) + 5:.2f}" stroke="#222"/>')
        parts.append(f'<text x="{px(t):.2f}" y="{py(y_lo) + 18:.2f}" '
                     f'font-size="11" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_MARGIN["left"] - 5:.2f}" y1="{py(t):.2f}" '
                     f'x2="{_MARGIN["left"]:.2f}" y2="{py(t):.2f}" stroke="#222"/>')
        parts.append(f'<text x="{_MARGIN["left"] - 8:.2f}" y="{py(t) + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{_fmt(t)}</text>')
    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" '
                 f'stroke="#1f5fa8" stroke-width="1.6"/>')
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.2f}" y="20" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_MARGIN["left"] + box_w / 2:.2f}" '
                     f'y="{_HEIGHT - 10:.2f}" font-size="12" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        cx, cy = 16.0, _MARGIN["top"] + box_h / 2
        parts.append(f'<text x="{cx:.2f}" y="{cy:.2f}" font-size="12" '
                     f'text-anchor="middle" '
                     f'transform="rotate(-90 {cx:.2f} {cy:.2f})">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
