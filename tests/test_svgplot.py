"""Byte pins of the SVG writer on the edge cases the CLI plots do not reach.

The golden pipeline pins ``summary.svg`` and ``cdf.svg``; these add a
plot with no layers, a single point (degenerate x and y ranges, padded by
one unit each way), a plot with only horizontal lines (x range falls back
to [0, 1]) and a 10^4-point scatter under a dashed line.
"""

import hashlib

import numpy as np
import pytest

from asuq.svgplot import SvgPlot


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
