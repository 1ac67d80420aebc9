"""Minimal hand-rolled SVG scatter/line plots.

CSV exports are the canonical outputs; these renderings are a dependency
free convenience for eyeballing summary plots, bands, and CDFs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._fileio import atomic_open

__all__ = ["SvgPlot"]

_W, _H = 640, 440
_MARGIN = 56
_BIG = sys.float_info.max


def _ticks(lo: float, hi: float) -> list[float]:
    """Multiples k * step of a 1-2-5 step within 1e-12 steps of lo < hi,
    each rounded to the step's decade, clamped into the limits, made +0.0
    if zero, and kept once where several k round to one float."""
    raw = (hi - lo) / 5
    # 10**-323 is the least power of ten that is a float (subnormal).
    mag = 10.0 ** max(math.floor(math.log10(max(raw, 5e-324))), -323)
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    digits = -math.floor(math.log10(step))
    ks = range(math.ceil(lo / step - 1e-12), math.floor(hi / step + 1e-12) + 1)
    ticks = (min(max(round(k * step, digits), lo), hi) + 0.0 for k in ks)
    return list(dict.fromkeys(ticks))


def _separate(lo: float, hi: float) -> tuple[float, float]:
    """Equal limits v, v widened by 1 each way, or by 2**10 ulps of v.

    A pad of 1 renders for -2**52 <= v < 2**52 - 1. Beyond, floats are 1
    or more apart: the pad is absorbed, or the ticks' half steps round
    back to where they started. The pad stops at the largest float.
    """
    if hi != lo:
        return lo, hi
    pad = 1.0 if -2.0 ** 52 <= lo < 2.0 ** 52 - 1 else 1024 * math.ulp(lo)
    return max(lo - pad, -_BIG), min(hi + pad, _BIG)


def _frame(lo: float, hi: float, frac: float) -> tuple[float, float, float]:
    """An axis for data limits lo <= hi: (a, b, s), drawn at scale s.

    The limits are separated, scaled by s and padded by frac of their
    span each way, up to the largest float. s is 1, or 1/2 where the
    padded span overflows, so that a finite b - a maps values to pixels.
    """
    lo, hi = _separate(lo, hi)
    for s in (1.0, 0.5):  # halved, the padded limits span at most _BIG
        a, b = lo * s, hi * s
        pad = frac * (b - a)
        a, b = max(a - pad, -_BIG * s), min(b + pad, _BIG * s)
        if b - a < math.inf:
            break
    return a, b, s


def _limits(arrays) -> tuple[float, float]:
    # Per-array extrema, so no concatenated copy of every layer is made.
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return 0.0, 1.0
    return (float(np.min([a.min() for a in arrays])),
            float(np.max([a.max() for a in arrays])))


def _circles(xs, ys, px, py, radius, color, opacity):
    """Yield a scatter layer's circle lines, one row of xs a string.

    xs is (rows, C), drawn row by row against the C ys every row shares.
    The ys' pixels are formatted once into one %-template for a row, which
    each row's x pixels fill in one call, so one row is held at a time.
    """
    # The style goes into the template verbatim, its % escaped for the
    # second formatting.
    tail = (f' r="{radius}" fill="{color}" fill-opacity="{opacity}"/>\n'
            .replace("%", "%%"))
    template = "".join(['<circle cx="%%.2f" cy="%.2f"%s' % (vy, tail)
                        for vy in py(ys).tolist()])
    for row in xs:
        yield template % tuple(px(row).tolist())


class SvgPlot:
    """Accumulates scatter/line layers (float64 arrays), then writes one SVG."""

    def __init__(self, xlabel: str = "", ylabel: str = "", title: str = ""):
        self.xlabel, self.ylabel, self.title = xlabel, ylabel, title
        self._layers: list[tuple] = []

    def scatter(self, xs, ys, radius: float = 3.0, color: str = "#222222",
                opacity: float = 1.0):
        """Add points (xs, ys), taken in C order.

        ys has the shape of xs, or of its last axis, shared by every row:
        an (N, M) cloud against M ys is drawn as against the ys broadcast
        to (N, M), but each y is formatted once, not N times.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if ys.shape != xs.shape[-1:]:
            xs, ys = (a.ravel() for a in np.broadcast_arrays(xs, ys))
        xs = xs.reshape(xs.size // max(ys.size, 1), ys.size)
        self._layers.append(("scatter", xs, ys, radius, color, opacity))

    def line(self, xs, ys, color: str = "#1166cc", dashed: bool = False):
        self._layers.append(("line", np.asarray(xs, dtype=float),
                             np.asarray(ys, dtype=float), color, dashed))

    def hline(self, y: float, color: str = "#aa3333", dashed: bool = True):
        self._layers.append(("hline", np.empty(0), np.array([float(y)]),
                             color, dashed))

    def save(self, path) -> None:
        """Write the SVG piece by piece; no copy of the whole text is held."""
        with atomic_open(path) as fh:
            fh.writelines(self._chunks())

    def _chunks(self):
        """Yield the SVG text in order, each piece ending in a newline."""
        x0, x1, sx = _frame(*_limits([layer[1] for layer in self._layers]),
                            0.04)
        y0, y1, sy = _frame(*_limits([layer[2] for layer in self._layers]),
                            0.06)

        # Scalars (ticks), whole layers and slices of them go through the
        # same elementwise operations, so each pixel is the same.
        def px(v):
            return _MARGIN + (v * sx - x0) / (x1 - x0) * (_W - 2 * _MARGIN)

        def py(v):
            return (_H - _MARGIN
                    - (v * sy - y0) / (y1 - y0) * (_H - 2 * _MARGIN))

        yield (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n'
            f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
            f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#444" '
            f'stroke-width="1"/>\n'
        )
        for t in [t / sx for t in _ticks(x0, x1)]:
            yield (
                f'<line x1="{px(t):.2f}" y1="{_H - _MARGIN}" x2="{px(t):.2f}" '
                f'y2="{_H - _MARGIN + 5}" stroke="#444"/>'
                f'<text x="{px(t):.2f}" y="{_H - _MARGIN + 18}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{t:g}</text>\n'
            )
        for t in [t / sy for t in _ticks(y0, y1)]:
            yield (
                f'<line x1="{_MARGIN - 5}" y1="{py(t):.2f}" x2="{_MARGIN}" '
                f'y2="{py(t):.2f}" stroke="#444"/>'
                f'<text x="{_MARGIN - 8}" y="{py(t):.2f}" font-size="11" '
                f'text-anchor="end" dominant-baseline="middle" '
                f'font-family="sans-serif">{t:g}</text>\n'
            )
        if self.title:
            yield (
                f'<text x="{_W / 2}" y="{_MARGIN - 16}" font-size="14" '
                f'text-anchor="middle" font-family="sans-serif">{self.title}</text>\n'
            )
        if self.xlabel:
            yield (
                f'<text x="{_W / 2}" y="{_H - 12}" font-size="12" '
                f'text-anchor="middle" font-family="sans-serif">{self.xlabel}</text>\n'
            )
        if self.ylabel:
            yield (
                f'<text x="14" y="{_H / 2}" font-size="12" text-anchor="middle" '
                f'font-family="sans-serif" transform="rotate(-90 14 {_H / 2})">'
                f'{self.ylabel}</text>\n'
            )

        for kind, lx, ly, *style in self._layers:
            if kind == "scatter":
                yield from _circles(lx, ly, px, py, *style)
            elif kind == "line":
                color, dashed = style
                pts = " ".join("%.2f,%.2f" % p for p in
                               zip(px(lx).tolist(), py(ly).tolist()))
                dash = ' stroke-dasharray="6 4"' if dashed else ""
                yield (
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"{dash}/>\n'
                )
            elif kind == "hline":
                color, dashed = style
                y = float(py(ly[0]))
                dash = ' stroke-dasharray="6 4"' if dashed else ""
                yield (
                    f'<line x1="{_MARGIN}" y1="{y:.2f}" x2="{_W - _MARGIN}" '
                    f'y2="{y:.2f}" stroke="{color}" stroke-width="1.2"{dash}/>\n'
                )
        yield "</svg>\n"
