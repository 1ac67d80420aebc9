"""Exploiting the one-dimensional structure for uncertainty quantification.

Three computations, all downstream of the active direction w and the
quadratic link surrogate: output-range estimation at the two hypercube
corners extremizing w . x, inversion of an output threshold into a safe
input set with independent per-parameter ranges (largest inscribed
hyperrectangle), and CDF estimation by sampling the surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .param_space import ParameterSpace, hypercube_blocks
from .surrogate import QuadraticSurrogate

__all__ = [
    "RangeEstimate",
    "SafeSetResult",
    "CdfEstimate",
    "corner_extrema",
    "estimate_range",
    "invert_safe_set",
    "inscribed_box",
    "estimate_cdf",
]


def _check_unit(w) -> np.ndarray:
    w = np.asarray(w, dtype=float).ravel()
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise DataError("w must be a unit vector")
    return w


# -- output range ------------------------------------------------------------

@dataclass(frozen=True)
class RangeEstimate:
    """Corner evaluations bracketing the output under the monotone heuristic.

    The interval [f_min, f_max] is ordered; when the trend is decreasing
    in the active variable the minimum value occurs at the corner that
    maximizes w . x, flagged by ``inverted``.
    """

    f_min: float | None
    f_max: float | None
    validated: bool
    inverted: bool


def corner_extrema(w) -> tuple[np.ndarray, np.ndarray]:
    """Hypercube corners minimizing and maximizing w . x.

    Componentwise: x_max_i = sign(w_i) with zeros sent to +1, and
    x_min = -x_max. These are the candidate extremizers of any function
    monotone in the active variable.
    """
    w = _check_unit(w)
    x_max = np.where(w >= 0.0, 1.0, -1.0)
    return -x_max, x_max


def estimate_range(f_corners, f_samples) -> RangeEstimate:
    """Bracket the output by its values at the two extremizing corners.

    ``f_corners`` holds f at the ``x_min`` and ``x_max`` of
    :func:`corner_extrema`, None for a corner whose evaluation failed.
    ``f_samples`` are the already-computed sample outputs; ``validated``
    reports whether they all fall inside [f_min, f_max].
    """
    f_samples = np.asarray(f_samples, dtype=float).ravel()
    at_min, at_max = (None if v is None else float(v) for v in f_corners)

    inverted = at_min is not None and at_max is not None and at_min > at_max
    if inverted:
        f_min, f_max = at_max, at_min
    else:
        f_min, f_max = at_min, at_max
    validated = (
        f_min is not None and f_max is not None and len(f_samples) > 0
        and bool(np.all(f_samples >= f_min) and np.all(f_samples <= f_max))
    )
    return RangeEstimate(f_min=f_min, f_max=f_max, validated=validated,
                         inverted=inverted)


# -- safe set and inscribed box ----------------------------------------------

def inscribed_box(w, y_max: float) -> np.ndarray:
    """Side lengths, each in [0, 2], of the largest axis-aligned box in
    {x : w.x <= y_max} anchored at x_min, the corner of
    :func:`corner_extrema` where w.x is smallest.

    Maximizes sum(log s_i) subject to sum(|w_i| s_i) <= y_max - w.x_min
    and 0 <= s_i <= 2. The KKT solution is water-filling,
    s_i = min(2, lam / |w_i|); zero-weight coordinates cost nothing and
    get the full side. With the k nonzero |w_i| sorted, a_1 <= ... <= a_k,
    and S_j = a_1 + ... + a_j, the level is exact: the budget B binds at
    lam = (B - 2 S_j) / (k - j) for the first j with lam <= 2 a_(j+1).
    A negative budget gives all zeros; one that covers the cube, all 2.
    """
    w = _check_unit(w)
    x_min, _ = corner_extrema(w)
    budget = float(y_max - np.dot(w, x_min))
    absw = np.abs(w)
    m = len(w)

    if budget < 0:
        return np.zeros(m)
    if 2.0 * absw.sum() <= budget:
        return np.full(m, 2.0)

    active = absw > 0.0
    a = np.sort(absw[active])
    capped = np.concatenate([[0.0], np.cumsum(a[:-1])])
    levels = (budget - 2.0 * capped) / np.arange(len(a), 0, -1)
    fits = levels <= 2.0 * a
    fits[-1] = True  # holds exactly below the full budget; guards rounding
    lam = levels[np.argmax(fits)]

    sides = np.full(m, 2.0)
    sides[active] = np.minimum(2.0, lam / absw[active])
    return sides


@dataclass(frozen=True)
class SafeSetResult:
    """Inversion of an output threshold into safe input ranges."""

    threshold: float
    level: float
    y_max: float | None
    feasible: str                       # "empty" | "partial" | "full"
    box_sides: np.ndarray
    x_anchor: np.ndarray                # corner the box grows from
    safe_ranges: list[dict]             # per-parameter physical intervals


def _box_normalized_intervals(x_min: np.ndarray, sides: np.ndarray) -> np.ndarray:
    # The box spans from the anchor corner toward the opposite corner.
    lo = np.where(x_min < 0, -1.0, 1.0 - sides)
    hi = np.where(x_min < 0, -1.0 + sides, 1.0)
    return np.column_stack([lo, hi])


def invert_safe_set(surr: QuadraticSurrogate, w, threshold: float,
                    level: float = 0.99, *, space: ParameterSpace
                    ) -> SafeSetResult:
    """Find the active-variable cap y_max and the inscribed safe box.

    The upper confidence bound ub = g + b stays <= T exactly where
    (T - g)^2 >= b^2, and b^2 is a quartic in y, so every crossing of T
    is a root of one quartic. The bound is tested at the roots' real
    parts on [-||w||_1, +||w||_1], the two ends and the midpoints
    between; y_max ends the feasible interval anchored at the left end,
    refined by bisection so that ub(y_max) <= T. The box is
    :func:`inscribed_box`'s closed form, reported both normalized and
    as the physical per-parameter intervals of ``space``.
    """
    w = _check_unit(w)
    if space.m != len(w):
        raise DataError(f"space has m={space.m}, direction has {len(w)}")
    l1 = float(np.abs(w).sum())
    if not np.isfinite(threshold):
        raise DataError(f"threshold must be finite, got {threshold}")
    x_min, _ = corner_extrema(w)

    # b^2 is fixed exactly by five samples. Two close crossings may come
    # back as a complex pair; its real part still lies between them.
    nodes = np.linspace(-l1, l1, 5)
    b2 = np.polyfit(nodes, surr.band_halfwidth(nodes, level) ** 2, 4)
    h = np.polysub([threshold], surr.coeffs[::-1])  # T - g
    roots = np.roots(np.polysub(np.polymul(h, h), b2)).real
    edges = np.sort(np.r_[-l1, l1, np.clip(roots, -l1, l1)])
    ys = np.sort(np.r_[edges, (edges[:-1] + edges[1:]) / 2])
    ub = surr.upper_confidence(ys, level)

    if ub[0] > threshold:
        feasible = "empty"
        y_max = None
        sides = np.zeros(len(w))
    else:
        crossing = np.nonzero(ub > threshold)[0]
        if len(crossing) == 0:
            feasible = "full"
            y_max = l1
            sides = np.full(len(w), 2.0)
        else:
            feasible = "partial"
            i = int(crossing[0])
            lo, hi = ys[i - 1], ys[i]
            while lo < (mid := 0.5 * (lo + hi)) < hi:  # until adjacent floats
                if surr.upper_confidence(mid, level) > threshold:
                    hi = mid
                else:
                    lo = mid
            y_max = float(lo)
            sides = inscribed_box(w, y_max)

    intervals = _box_normalized_intervals(x_min, sides)
    p_lo, p_hi = space.denormalize(intervals.T)
    safe_ranges = []
    for i, spec in enumerate(space.params):
        safe_ranges.append({
            "index": i,
            "normalized_min": float(intervals[i, 0]),
            "normalized_max": float(intervals[i, 1]),
            "restricted": bool(sides[i] < 2.0 - 1e-12),
            "name": spec.name,
            "units": spec.units,
            "min": float(p_lo[i]),
            "max": float(p_hi[i]),
        })

    return SafeSetResult(
        threshold=float(threshold), level=float(level), y_max=y_max,
        feasible=feasible, box_sides=sides, x_anchor=x_min,
        safe_ranges=safe_ranges,
    )


# -- cumulative distribution function ----------------------------------------

@dataclass(frozen=True)
class CdfEstimate:
    """Gaussian-kernel CDF of the surrogate output under uniform inputs,
    as its values ``cdf`` on the uniform ``grid``.

    A degenerate (constant-output) estimate is a step: ``cdf`` is 0, 0.5
    and 1 one margin below the constant, at it and one margin above.
    """

    grid: np.ndarray
    cdf: np.ndarray
    n_samples: int
    bandwidth: float
    degenerate: bool = False


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, from the standard library's erfc."""
    return 0.5 * _erfc(z * -math.sqrt(0.5)).astype(float)


def _binned_kernel_cdf(grid: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Kernel CDF on the uniform ``grid`` from linearly binned samples.

    With output spacing d, the samples are spread linearly over a fine
    grid of spacing delta = d / r from grid[0], r = max(1, ceil(16 d / h)),
    with one pair of bincounts. Output point i sits on fine node i r, so
    F(t_i) = sum_k c_k ndtr((i r - k) delta / h), a correlation with the
    2N - 1 kernel values on the N fine nodes. Linear interpolation of
    each sample's kernel moves F by at most max|ndtr''| (delta/h)^2 / 8
    = 0.0303 (delta/h)^2 <= 1.2e-4. The windows are views, not copies.
    """
    d = (grid[-1] - grid[0]) / (len(grid) - 1)
    r = max(1, math.ceil(16.0 * d / h))
    delta = d / r
    nodes = (len(grid) - 1) * r + 1
    pos = (g - grid[0]) / delta
    k = np.clip(np.floor(pos).astype(np.intp), 0, nodes - 2)
    frac = pos - k
    weights = (np.bincount(k, 1.0 - frac, nodes)
               + np.bincount(k + 1, frac, nodes)) / len(g)
    kernel = _ndtr(np.arange(1 - nodes, nodes) * (delta / h))
    # windows[i] = kernel[i r : i r + N]; its dot with the reversed
    # weights is sum_k c_k kernel[i r + N - 1 - k].
    windows = np.lib.stride_tricks.sliding_window_view(kernel, nodes)[::r]
    return windows @ weights[::-1]


# Bandwidths by which the CDF grid extends past the sample extremes.
_GRID_MARGIN = 4.0


def estimate_cdf(surr: QuadraticSurrogate, w, n_samples: int = 5000,
                 seed: int = 0, grid_size: int = 513) -> CdfEstimate:
    """Sample the surrogate over uniform inputs and smooth with a Gaussian KDE.

    Draws n_samples points on [-1, 1]^m, m = len(w), the rows of
    :func:`~asuq.param_space.sample_hypercube` (counter-based, so the set
    is reproducible and parallel-safe), in row blocks, each projected
    onto w and dropped before the next is drawn, so memory grows with n
    but not with n m.
    Evaluates g(w . x), and smooths with the Silverman bandwidth
    1.06 * std * n^(-1/5). The grid has ``grid_size`` points (at least 2)
    and spans _GRID_MARGIN bandwidths beyond the sample extremes. The
    samples are binned linearly onto a fine grid (Silverman, 1982; Wand,
    1994), which keeps the estimate within 0.0303 (delta/h)^2 <= 1.2e-4
    of the exact kernel sum and makes its cost independent of n past
    the binning. Constant output degenerates to a step CDF with zero
    bandwidth.
    """
    w = _check_unit(w)
    if n_samples < 2:
        raise DataError(f"n_samples must be >= 2, got {n_samples}")
    if grid_size < 2:
        raise DataError(f"grid_size must be >= 2, got {grid_size}")
    y = np.empty(n_samples)
    start = 0
    for X in hypercube_blocks(len(w), n_samples, seed):
        y[start:start + len(X)] = X @ w
        start += len(X)
        del X  # else X holds this block while the next is drawn
    g = np.asarray(surr.predict(y), dtype=float)

    std = float(np.std(g, ddof=1))
    scale = max(1.0, float(np.max(np.abs(g))))
    if std <= 1e-14 * scale:  # constant output up to float fuzz
        c = float(np.mean(g))
        margin = max(1.0, 1e-3 * abs(c))
        grid = np.array([c - margin, c, c + margin])
        return CdfEstimate(grid=grid, cdf=np.array([0.0, 0.5, 1.0]),
                           n_samples=n_samples, bandwidth=0.0, degenerate=True)

    h = 1.06 * std * n_samples ** (-0.2)
    grid = np.linspace(g.min() - _GRID_MARGIN * h, g.max() + _GRID_MARGIN * h,
                       grid_size)
    return CdfEstimate(grid=grid, cdf=_binned_kernel_cdf(grid, g, h),
                       n_samples=n_samples, bandwidth=h)
