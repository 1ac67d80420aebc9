"""Minimal hand-rolled SVG scatter/line plots.

CSV exports are the canonical outputs; these renderings are a dependency
free convenience for eyeballing summary plots, bands, and CDFs.
"""

from __future__ import annotations

import math

import numpy as np

from ._fileio import atomic_open

__all__ = ["SvgPlot"]

_W, _H = 640, 440
_MARGIN = 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def _limits(arrays) -> tuple[float, float]:
    values = np.concatenate([np.empty(0), *arrays])
    if values.size == 0:
        values = np.array([0.0, 1.0])
    return float(values.min()), float(values.max())


class SvgPlot:
    """Accumulates scatter/line layers (float64 arrays), then writes one SVG."""

    def __init__(self, xlabel: str = "", ylabel: str = "", title: str = ""):
        self.xlabel, self.ylabel, self.title = xlabel, ylabel, title
        self._layers: list[tuple] = []

    def scatter(self, xs, ys, radius: float = 3.0, color: str = "#222222",
                opacity: float = 1.0):
        self._layers.append(("scatter", np.asarray(xs, dtype=float),
                             np.asarray(ys, dtype=float), radius, color, opacity))

    def line(self, xs, ys, color: str = "#1166cc", width: float = 1.5,
             dashed: bool = False):
        self._layers.append(("line", np.asarray(xs, dtype=float),
                             np.asarray(ys, dtype=float), color, width, dashed))

    def hline(self, y: float, color: str = "#aa3333", dashed: bool = True):
        self._layers.append(("hline", np.empty(0), np.array([float(y)]),
                             color, dashed))

    def save(self, path) -> None:
        x0, x1 = _limits([layer[1] for layer in self._layers])
        y0, y1 = _limits([layer[2] for layer in self._layers])
        if x1 == x0:
            x0, x1 = x0 - 1, x1 + 1
        if y1 == y0:
            y0, y1 = y0 - 1, y1 + 1
        padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
        x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

        # Scalars (ticks) and whole layers go through the same operations.
        def px(v):
            return _MARGIN + (v - x0) / (x1 - x0) * (_W - 2 * _MARGIN)

        def py(v):
            return _H - _MARGIN - (v - y0) / (y1 - y0) * (_H - 2 * _MARGIN)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
            f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#444" stroke-width="1"/>',
        ]
        for t in _ticks(x0, x1):
            parts.append(
                f'<line x1="{px(t):.2f}" y1="{_H - _MARGIN}" x2="{px(t):.2f}" '
                f'y2="{_H - _MARGIN + 5}" stroke="#444"/>'
                f'<text x="{px(t):.2f}" y="{_H - _MARGIN + 18}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{t:g}</text>'
            )
        for t in _ticks(y0, y1):
            parts.append(
                f'<line x1="{_MARGIN - 5}" y1="{py(t):.2f}" x2="{_MARGIN}" '
                f'y2="{py(t):.2f}" stroke="#444"/>'
                f'<text x="{_MARGIN - 8}" y="{py(t):.2f}" font-size="11" '
                f'text-anchor="end" dominant-baseline="middle" '
                f'font-family="sans-serif">{t:g}</text>'
            )
        if self.title:
            parts.append(
                f'<text x="{_W / 2}" y="{_MARGIN - 16}" font-size="14" '
                f'text-anchor="middle" font-family="sans-serif">{self.title}</text>'
            )
        if self.xlabel:
            parts.append(
                f'<text x="{_W / 2}" y="{_H - 12}" font-size="12" '
                f'text-anchor="middle" font-family="sans-serif">{self.xlabel}</text>'
            )
        if self.ylabel:
            parts.append(
                f'<text x="14" y="{_H / 2}" font-size="12" text-anchor="middle" '
                f'font-family="sans-serif" transform="rotate(-90 14 {_H / 2})">'
                f'{self.ylabel}</text>'
            )

        for kind, lx, ly, *style in self._layers:
            cx, cy = px(lx).tolist(), py(ly).tolist()
            if kind == "scatter":
                r, color, opacity = style
                attrs = f' r="{r}" fill="{color}" fill-opacity="{opacity}"/>'
                parts.extend('<circle cx="%.2f" cy="%.2f"%s' % (vx, vy, attrs)
                             for vx, vy in zip(cx, cy))
            elif kind == "line":
                color, width, dashed = style
                pts = " ".join("%.2f,%.2f" % p for p in zip(cx, cy))
                dash = ' stroke-dasharray="6 4"' if dashed else ""
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="{width}"{dash}/>'
                )
            elif kind == "hline":
                color, dashed = style
                dash = ' stroke-dasharray="6 4"' if dashed else ""
                parts.append(
                    f'<line x1="{_MARGIN}" y1="{cy[0]:.2f}" x2="{_W - _MARGIN}" '
                    f'y2="{cy[0]:.2f}" stroke="{color}" stroke-width="1.2"{dash}/>'
                )
        parts.append("</svg>")
        with atomic_open(path) as fh:
            fh.write("\n".join(parts) + "\n")
