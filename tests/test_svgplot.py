"""Byte pins of the SVG writer on the edge cases the CLI plots do not reach.

The golden pipeline pins ``summary.svg`` and ``cdf.svg``; these add a
plot with no layers, a single point (degenerate x and y ranges, padded by
one unit each way), a plot with only horizontal lines (x range falls back
to [0, 1]) and a 10^4-point scatter under a dashed line. The streamed
writer is also compared with the whole-text writer it replaced, on
scatters of rows of several thousand points and on rows of edge floats,
and a 2-D scatter with the raveled one it stands for.
"""

import hashlib
import math
import re
import signal
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asuq.svgplot import _H, _MARGIN, _W, SvgPlot, _limits, _separate, _ticks


def empty_plot():
    return SvgPlot()


def single_point():
    plot = SvgPlot(xlabel="x", ylabel="y", title="one point")
    plot.scatter([0.25], [-3.5])
    return plot


def hlines_only():
    plot = SvgPlot(title="thresholds")
    plot.hline(1.0)
    plot.hline(-0.75, color="#3333aa", dashed=False)
    return plot


def dense_scatter():
    rng = np.random.default_rng(2024)
    xs = rng.normal(size=10_000)
    ys = 0.5 * xs ** 3 + rng.normal(scale=0.3, size=10_000)
    plot = SvgPlot(xlabel="active variable", ylabel="qoi", title="cloud")
    plot.scatter(xs, ys, radius=1.5, color="#999999", opacity=0.35)
    grid = np.linspace(xs.min(), xs.max(), 200)
    plot.line(grid, 0.5 * grid ** 3, color="#1166cc", dashed=True)
    return plot


PINNED = {
    empty_plot:
        "14877622cabd0509d301479b751405fd88e4bf4a9622c0aef5dce5d590405b54",
    single_point:
        "ab3fe9208639a713be5a8d87f39d90a7481a895966da7834ac6378e8c75af3fc",
    hlines_only:
        "2c98c504b85744f0dd5b8685db32412527d5a96a7dd3df6b5e883ab0392d8ed3",
    dense_scatter:
        "a08f456029ae6e928bd81323b7f631e62544b1519083ee4e4ce89253fc2f2795",
}


def digest(build, tmp_path) -> str:
    path = tmp_path / "plot.svg"
    build().save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("build", list(PINNED), ids=lambda f: f.__name__)
def test_svg_bytes_pinned(build, tmp_path):
    assert digest(build, tmp_path) == PINNED[build]


def reference_svg(plot: SvgPlot) -> bytes:
    """Test-only reference: every line in one list, joined once."""
    x0, x1 = _limits([layer[1] for layer in plot._layers])
    y0, y1 = _limits([layer[2] for layer in plot._layers])
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1
    padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

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
    if plot.title:
        parts.append(
            f'<text x="{_W / 2}" y="{_MARGIN - 16}" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{plot.title}</text>'
        )
    if plot.xlabel:
        parts.append(
            f'<text x="{_W / 2}" y="{_H - 12}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{plot.xlabel}</text>'
        )
    if plot.ylabel:
        parts.append(
            f'<text x="14" y="{_H / 2}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 14 {_H / 2})">'
            f'{plot.ylabel}</text>'
        )
    for kind, lx, ly, *style in plot._layers:
        if kind == "scatter":
            # Each row of xs against the ys every row shares.
            lx, ly = (a.ravel() for a in np.broadcast_arrays(lx, ly))
        cx, cy = px(lx).tolist(), py(ly).tolist()
        if kind == "scatter":
            r, color, opacity = style
            attrs = f' r="{r}" fill="{color}" fill-opacity="{opacity}"/>'
            parts.extend('<circle cx="%.2f" cy="%.2f"%s' % (vx, vy, attrs)
                         for vx, vy in zip(cx, cy))
        elif kind == "line":
            color, dashed = style
            pts = " ".join("%.2f,%.2f" % p for p in zip(cx, cy))
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>'
            )
        elif kind == "hline":
            color, dashed = style
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<line x1="{_MARGIN}" y1="{cy[0]:.2f}" x2="{_W - _MARGIN}" '
                f'y2="{cy[0]:.2f}" stroke="{color}" stroke-width="1.2"{dash}/>'
            )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()


def two_clouds():
    """Two scatter layers of different styles, each one long row.

    Each layer must keep its own style: a writer that bound a layer's
    style late would draw the first cloud in the second one's.
    """
    rng = np.random.default_rng(7)
    n = 12_305
    plot = SvgPlot(xlabel="y", ylabel="f", title="clouds")
    plot.scatter(rng.normal(size=n), rng.normal(size=n), radius=1.5,
                 color="#999999", opacity=0.35)
    grid = np.linspace(-3.0, 3.0, 200)
    plot.line(grid, grid ** 3 / 9, color="#1166cc")
    plot.scatter(rng.uniform(-2, 2, n + 5), rng.uniform(-1, 1, n + 5))
    plot.hline(0.25)
    return plot


@pytest.mark.parametrize("build", [*PINNED, two_clouds],
                         ids=lambda f: f.__name__)
def test_streamed_writer_equals_the_joined_text(build, tmp_path):
    plot = build()
    plot.save(tmp_path / "plot.svg")
    assert (tmp_path / "plot.svg").read_bytes() == reference_svg(plot)


def test_peak_memory_of_a_long_row(tmp_path):
    # One row of 200 000 points is formatted in one call: its pixels as
    # Python floats, its template and its text, 43 MiB here. The joined
    # writer that held every circle string, their join and its encoded
    # copy took 65 MiB. The layer arrays exist before tracing.
    rng = np.random.default_rng(3)
    plot = SvgPlot()
    plot.scatter(rng.normal(size=200_000), rng.normal(size=200_000),
                 radius=1.5, color="#999999", opacity=0.35)
    tracemalloc.start()
    try:
        plot.save(tmp_path / "cloud.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2 ** 20


def test_two_dimensional_scatter_equals_its_raveled_form(tmp_path):
    # summary.svg draws the (N, M) bootstrap cloud, one replicate a row,
    # against f broadcast to (N, M): the points go replicate by replicate,
    # as in the raveled cloud against np.tile(f, N). The cloud is the
    # transpose of an (M, N) product, so its memory order is the other one.
    rng = np.random.default_rng(11)
    N, M = 40, 250
    cloud, f = rng.normal(size=(M, N)).T, rng.normal(size=M)
    svgs = []
    for xs, ys in ((cloud, np.broadcast_to(f, cloud.shape)),
                   (cloud.ravel(), np.tile(f, N))):
        plot = SvgPlot()
        plot.scatter(xs, ys, radius=1.5, color="#999999", opacity=0.35)
        plot.scatter(cloud[0], f)
        plot.save(tmp_path / "plot.svg")
        svgs.append((tmp_path / "plot.svg").read_bytes())
    assert svgs[0] == svgs[1]


@pytest.mark.parametrize("N, M", [(40, 250), (3, 4103)])
def test_shared_ys_equal_the_broadcast_and_raveled_forms(tmp_path, N, M):
    # The cloud against its M ys, against them broadcast to (N, M) and
    # as the raveled pair, on short rows and on rows of thousands of
    # points; each row fills the one template made from the ys.
    rng = np.random.default_rng(12)
    cloud, f = rng.normal(size=(M, N)).T, rng.normal(size=M)
    svgs = []
    for xs, ys in ((cloud, f), (cloud, np.broadcast_to(f, cloud.shape)),
                   (cloud.ravel(), np.tile(f, N))):
        plot = SvgPlot()
        plot.scatter(xs, ys, radius=1.5, color="#999999", opacity=0.35)
        plot.scatter(cloud[0], f)
        plot.save(tmp_path / "plot.svg")
        svgs.append((tmp_path / "plot.svg").read_bytes())
    assert svgs[0] == svgs[1] == svgs[2] == reference_svg(plot)


def test_shared_ys_peak_memory_is_a_row(tmp_path):
    # A (1000, 200) cloud against its 200 ys, as summary.svg draws it: one
    # row's template and circles at a time, against about 5 MiB more for
    # the whole cloud's pixels as Python floats.
    rng = np.random.default_rng(5)
    plot = SvgPlot()
    plot.scatter(rng.normal(size=(200, 1000)).T, rng.normal(size=200),
                 radius=1.5, color="#999999", opacity=0.35)
    tracemalloc.start()
    try:
        plot.save(tmp_path / "cloud.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 18


def test_percent_in_the_style_is_written_verbatim(tmp_path):
    # The circle templates are %-formatted twice; the style text must
    # come through both untouched.
    plot = SvgPlot()
    style = "url(#g%25) %s %.2f %% %"
    plot.scatter(np.arange(6.0).reshape(2, 3), np.arange(3.0), color=style)
    plot.scatter(np.arange(3.0), np.arange(3.0), radius="1%")
    plot.save(tmp_path / "plot.svg")
    text = (tmp_path / "plot.svg").read_bytes()
    assert text == reference_svg(plot)
    assert text.decode().count(f'fill="{style}"') == 6
    assert text.decode().count(' r="1%"') == 3


# A signed zero, the least subnormal, reprs in exponent form at 1e-05 and
# 1e16, an even integer beyond 2**53 and a 17-digit fraction.
EDGE_ROW = [-0.0, 5e-324, 1e-05, 1e16, 2.0 ** 53 + 2, 1 / 3]


@settings(max_examples=200, deadline=None)
@given(cloud=st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.floats(-1e300, 1e300), min_size=m, max_size=m),
    min_size=2, max_size=4)))
@example(cloud=[EDGE_ROW, EDGE_ROW[::-1], EDGE_ROW])
def test_rows_of_edge_floats_equal_the_joined_text(tmp_path_factory, cloud):
    # Each row fills the template made from the ys in one call; the
    # reference formats point by point. Limits at most 2e300 apart, equal
    # only below 2**52, are framed as the reference frames them.
    ys, rows = cloud[0], cloud[1:]
    for axis in (ys, [v for row in rows for v in row]):
        assume(min(axis) < max(axis) or -2.0 ** 52 <= axis[0] < 2.0 ** 52 - 1)
    plot = SvgPlot()
    plot.scatter(rows, ys, radius=1.5, color="#999999", opacity=0.35)
    path = tmp_path_factory.getbasetemp() / "edge_rows.svg"
    plot.save(path)
    assert path.read_bytes() == reference_svg(plot)


# From 1e16 on, v - 1 == v + 1 divided by zero; just beyond +-2**52 the
# tick loop's half steps stalled. Each now renders.
WIDE = [1e16, 1e17, -1e17, 1e300, 2.0 ** 52 - 1, -2.0 ** 52 - 1]


@pytest.mark.parametrize("v", WIDE)
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("kind", ["line", "scatter"])
def test_equal_limits_separate_at_any_magnitude(tmp_path, kind, axis, v):
    flat, span = [v] * 3, [0.0, 0.5, 1.0]
    plot = SvgPlot()
    getattr(plot, kind)(*((flat, span) if axis == "x" else (span, flat)))
    plot.save(tmp_path / "plot.svg")
    text = (tmp_path / "plot.svg").read_text()
    # The constant coordinate sits mid-axis, to rounding where the padded
    # limits are floats 1 apart, between at least two ticks.
    if kind == "line":
        (points,) = re.findall(r'points="([^"]*)"', text)
        pixels = [pt.split(",")[axis == "y"] for pt in points.split()]
    else:
        pixels = re.findall(rf'c{axis}="([^"]*)"', text)
    mid = _W / 2 if axis == "x" else _H / 2
    assert len(pixels) == 3
    assert all(abs(float(px) - mid) < 0.1 for px in pixels)
    lo, hi = _separate(v, v)
    assert hi - lo == 2048 * np.spacing(abs(v))
    label = f'y="{_H - _MARGIN + 18}"' if axis == "x" else 'text-anchor="end"'
    assert text.count(label) >= 2


@pytest.mark.parametrize("v", [-2.0 ** 52, 2.0 ** 52 - 2, 1e15, 0.0])
def test_equal_limits_below_2_52_keep_the_unit_pad(tmp_path, v):
    plot = SvgPlot()
    plot.line([v, v], [v, v])
    plot.save(tmp_path / "plot.svg")
    assert _separate(v, v) == (v - 1, v + 1)
    assert (tmp_path / "plot.svg").read_bytes() == reference_svg(plot)


def test_a_zero_tick_reads_0(tmp_path):
    # Stepping from -0.6 by 0.2 ends a tiny negative residue short of 0,
    # which round(v, 12) kept as -0.0.
    plot = SvgPlot()
    plot.line([-0.66, 0.26], [0, 1])
    plot.save(tmp_path / "plot.svg")
    labels = re.findall(rf'y="{_H - _MARGIN + 18}"[^>]*>([^<]*)</text>',
                        (tmp_path / "plot.svg").read_text())
    assert labels == ["-0.6", "-0.4", "-0.2", "0", "0.2"]


@contextmanager
def deadline(seconds):
    """Fail a block that runs past ``seconds`` of wall-clock time."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_renders_in_frame(plot, path):
    """Save within a deadline; every point and tick is inside the frame."""
    with deadline(2.0):
        plot.save(path)
    text = path.read_text()
    line = [pt.split(",") for pt in
            re.search(r'points="([^"]*)"', text)[1].split()]
    for top, pixels in (
            (_W, re.findall(r'cx="([^"]*)"', text)),
            (_H, re.findall(r'cy="([^"]*)"', text)),
            (_W, [x for x, _ in line]),
            (_H, [y for _, y in line]),
            (_W, re.findall(rf'<line x1="([^"]*)" y1="{_H - _MARGIN}"', text)),
            (_H, re.findall(rf'<line x1="{_MARGIN - 5}" y1="([^"]*)"', text))):
        assert pixels and all(_MARGIN <= float(v) <= top - _MARGIN
                              for v in pixels)


# Limits a few floats apart stalled the tick loop, a span of one
# subnormal had no decade for its step, and near the largest float the
# pads, the span or the ticks' end overflowed.
BIG = sys.float_info.max
EXTREME = [[1.0, 1.0 + 2 ** -52], [1e17, 1e17 + 16], [0.0, 5e-324],
           [BIG, BIG], [-BIG, BIG], [BIG / 2, BIG]]


@pytest.mark.parametrize("v", EXTREME, ids=repr)
@pytest.mark.parametrize("axis", ["x", "y"])
def test_extreme_finite_limits_render(tmp_path, axis, v):
    span = [0.0, 1.0]
    plot = SvgPlot()
    plot.line(*((v, span) if axis == "x" else (span, v)))
    plot.scatter(*((v, span) if axis == "x" else (span, v)))
    assert_renders_in_frame(plot, tmp_path / "plot.svg")


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(finite, finite), min_size=1, max_size=3))
# A step of 1e-13: rounding to 12 decimals put a tick at 1e-12.
@example(points=[(0.0, 0.0), (0.0, 6.140759858944655e-13)])
def test_every_finite_pair_of_limits_renders(tmp_path_factory, points):
    plot = SvgPlot()
    plot.scatter(*zip(*points))
    plot.line(*zip(*points))
    assert_renders_in_frame(plot,
                            tmp_path_factory.getbasetemp() / "any_limits.svg")


def scan_ticks(lo, hi, n=5):
    """Test-only reference: the tick scan _ticks replaced, stepping from the
    first multiple by repeated addition and rounding to 12 decimals."""
    raw = (hi - lo) / n
    mag = 10.0 ** max(math.floor(math.log10(max(raw, 5e-324))), -323)
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    out, v = [], math.ceil(lo / step) * step
    while v <= min(hi + 1e-12 * step, sys.float_info.max):
        out.append(min(max(round(v, 12), lo), hi) + 0.0)
        v = max(v + step, math.nextafter(v, math.inf))
    return out, step


def test_ticks_equal_the_scan_to_its_rounding():
    # Where the step is at least 1e-9, the scan's ticks carry at most the
    # rounding of its additions, a few ulps of the limits, and the 5e-13
    # of round(v, 12); the closed form's ticks are the decimal multiples.
    # Over 890 000 such pairs the count always agreed and the largest
    # difference was 4 ulps of max(|lo|, |hi|) plus 2.5e-13.
    rng = np.random.default_rng(33)
    scale = 10.0 ** rng.uniform(-8, 300, 20_000)
    lows = rng.uniform(-1, 1, scale.size) * scale
    highs = lows + (rng.uniform(0, 1, scale.size) * scale
                    * 10.0 ** rng.uniform(-7, 0.3, scale.size))
    compared = 0
    for lo, hi in zip(lows.tolist(), highs.tolist()):
        scanned, step = scan_ticks(lo, hi)
        if not lo < hi or step < 1e-9:
            continue
        compared += 1
        ticks = _ticks(lo, hi)
        assert len(ticks) == len(scanned)
        ulp = math.ulp(max(abs(lo), abs(hi)))
        assert all(abs(t - s) <= 4 * ulp + 5e-13
                   for t, s in zip(ticks, scanned))
    assert compared > 19_000


def y_labels(plot, path):
    plot.save(path)
    return re.findall(r'text-anchor="end"[^>]*>([^<]*)</text>',
                      path.read_text())


def test_a_span_below_1e_11_gets_distinct_labels(tmp_path):
    # The scan rounded 2e-13 and 4e-13 to 12 decimals, so three ticks read
    # 0, and the last tick stood at the clamped limit, labelled 6.5084e-13.
    plot = SvgPlot()
    plot.scatter([0.0, 1.0], [0.0, 6.14e-13])
    assert y_labels(plot, tmp_path / "plot.svg") == [
        "0", "2e-13", "4e-13", "6e-13"]


def test_a_zero_tick_at_a_large_magnitude_reads_0(tmp_path):
    # Three additions of 5e157 from -1.5e158 left a residue of 1.2e142.
    plot = SvgPlot()
    plot.scatter([0.0, 1.0], [-1.6e158, 1.1e157])
    assert y_labels(plot, tmp_path / "plot.svg") == [
        "-1.5e+158", "-1e+158", "-5e+157", "0"]


@settings(max_examples=500, deadline=None)
@given(a=finite, b=finite)
@example(a=-1.6e158, b=1.1e157)
@example(a=1.0, b=1.0 + 2 ** -52)
@example(a=0.0, b=5e-324)
@example(a=-BIG, b=0.0)
def test_ticks_strictly_increase_within_the_limits(a, b):
    # Any finite limits lo < hi whose span is finite, as _frame gives.
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi and hi - lo < math.inf)
    ticks = _ticks(lo, hi)
    assert ticks and all(lo <= t <= hi for t in ticks)
    assert all(s < t for s, t in zip(ticks, ticks[1:]))


@pytest.mark.parametrize("lo, hi, ticks", [
    # 0.07 / 0.01 is 7.000000000000001: the scan started at 0.08.
    (0.07, 0.11, [0.07, 0.08, 0.09, 0.1, 0.11]),
    # 0.3 / 0.05 is 5.999999999999999: without the allowance, no 0.3.
    (0.1, 0.3, [0.1, 0.15, 0.2, 0.25, 0.3]),
])
def test_a_limit_on_a_tick_keeps_it(lo, hi, ticks):
    assert _ticks(lo, hi) == ticks
