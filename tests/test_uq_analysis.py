import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from asuq import (
    DataError,
    ParameterSpace,
    QuadraticSurrogate,
    corner_extrema,
    estimate_cdf,
    estimate_range,
    fit_quadratic,
    hyshot_space,
    inscribed_box,
    invert_safe_set,
    ridge_direction,
    unit_space,
)
from asuq import param_space, uq_analysis
from asuq.param_space import sample_hypercube


def bisection_box_sides(w, y_max, x_min):
    """Box sides at the water-filling level found by 200 bisection steps.

    Reference for the closed form in ``inscribed_box``: the budget spent
    at level lam, sum(min(2 |w_i|, lam)), is bisected until it binds.
    """
    absw = np.abs(np.asarray(w, dtype=float))
    budget = float(y_max - np.dot(w, x_min))
    m = len(absw)
    if budget < 0:
        return np.zeros(m)
    if 2.0 * absw.sum() <= budget:
        return np.full(m, 2.0)
    active = absw > 0.0

    def spent(lam):
        return float(np.dot(absw[active], np.minimum(2.0, lam / absw[active])))

    lo, hi = 0.0, 2.0 * float(absw.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spent(mid) > budget:
            hi = mid
        else:
            lo = mid
    sides = np.full(m, 2.0)
    sides[active] = np.minimum(2.0, 0.5 * (lo + hi) / absw[active])
    return sides


def scan_safe_set(surr, w, threshold, level=0.99):
    """(feasible, y_max) from a 2048-point scan of the bound and bisection.

    Reference for the root-based inversion in ``invert_safe_set``; it
    misses any infeasible gap narrower than one scan step.
    """
    l1 = float(np.abs(w).sum())
    ys = np.linspace(-l1, l1, 2048)
    ub = surr.upper_confidence(ys, level)
    if ub[0] > threshold:
        return "empty", None
    crossing = np.nonzero(ub > threshold)[0]
    if len(crossing) == 0:
        return "full", l1
    i = int(crossing[0])
    lo, hi = ys[i - 1], ys[i]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if surr.upper_confidence(mid, level) > threshold:
            hi = mid
        else:
            lo = mid
    return "partial", float(lo)


def fixed_count_y_max(surr, w, threshold, level=0.99):
    """y_max from the quartic-root bracket and exactly 100 halvings.

    The earlier form of ``invert_safe_set``'s bisection, kept as the
    reference for the loop that stops once ``lo`` and ``hi`` are adjacent
    floats. None unless the safe set is partial.
    """
    l1 = float(np.abs(w).sum())
    nodes = np.linspace(-l1, l1, 5)
    b2 = np.polyfit(nodes, surr.band_halfwidth(nodes, level) ** 2, 4)
    h = np.polysub([threshold], surr.coeffs[::-1])
    roots = np.roots(np.polysub(np.polymul(h, h), b2)).real
    edges = np.sort(np.r_[-l1, l1, np.clip(roots, -l1, l1)])
    ys = np.sort(np.r_[edges, (edges[:-1] + edges[1:]) / 2])
    ub = surr.upper_confidence(ys, level)
    crossing = np.nonzero(ub > threshold)[0]
    if ub[0] > threshold or len(crossing) == 0:
        return None
    i = int(crossing[0])
    lo, hi = ys[i - 1], ys[i]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if surr.upper_confidence(mid, level) > threshold:
            hi = mid
        else:
            lo = mid
    return float(lo)


def brute_force_corner(w):
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=len(w))))
    return corners[np.argmax(corners @ w)]


def box_product_oracle(w, y_max, x_min, step=1e-3):
    """Exhaustive product search over side-length grids.

    Only the first m-1 sides are gridded: the objective increases in every
    side, so the last one always takes its largest feasible value.
    """
    absw = np.abs(np.asarray(w, dtype=float))
    b = float(y_max - np.dot(w, x_min))
    if b < 0:
        return 0.0
    grid = np.arange(0.0, 2.0 + step, step)
    m = len(absw)
    if m == 1:
        return float(min(2.0, b / absw[0]))
    if m == 2:
        rem = b - absw[0] * grid
        s2 = np.clip(rem / absw[1], 0.0, 2.0)
        prod = np.where(rem >= 0, grid * s2, 0.0)
        return float(prod.max())
    if m == 3:
        s1 = grid[:, None]
        s2 = grid[None, :]
        rem = b - absw[0] * s1 - absw[1] * s2
        s3 = np.clip(rem / absw[2], 0.0, 2.0)
        prod = np.where(rem >= 0, s1 * s2 * s3, 0.0)
        return float(prod.max())
    raise NotImplementedError


def uniform_sum_cdf(w, y):
    """Exact P(w . x <= y) for x uniform on [-1, 1]^m, m <= 12.

    With b = 2|w|, w . x has the law of S - sum(b)/2 where S = b . u and
    u is uniform on [0, 1]^m, and by inclusion-exclusion over the 2^m
    corners eps (Bradley & Gupta, 2002)
        P(S <= s) = sum_eps (-1)^|eps| (s - eps . b)_+^m / (m! prod b).
    The law is symmetric, so s above sum(b)/2 is reflected below it; that
    keeps every term under (sum(b)/2)^m / (m! prod b), which bounds the
    cancellation when no |w_i| is small next to the others.
    """
    b = 2.0 * np.abs(np.asarray(w, dtype=float))
    m, total = len(b), float(b.sum())
    eps = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
    shifts = eps @ b
    keep = shifts <= total / 2
    shifts, signs = shifts[keep], (-1.0) ** eps[keep].sum(axis=1)
    s = np.clip(np.asarray(y, dtype=float).ravel() + total / 2, 0.0, total)
    upper = s > total / 2
    low = np.where(upper, total - s, s)
    out = np.empty(len(low))
    for i in range(0, len(low), 256):
        terms = np.clip(low[i:i + 256, None] - shifts[None, :], 0.0, None)
        out[i:i + 256] = terms ** m @ signs
    out /= math.factorial(m) * np.prod(b)
    return np.where(upper, 1.0 - out, out).reshape(np.shape(y))


def box_average_law(w, cells=2 ** 15):
    """Bounds on F(t) = P(w . x <= t), x uniform on [-1, 1]^m, for any m.

    y is a sum of independent uniforms on [-a_k, a_k], a_k = |w_k|, so
    F_k(t) = (I(t + a_k) - I(t - a_k)) / (2 a_k), with I the
    antiderivative of F_(k-1): m box averages. F is nondecreasing, so on
    each cell between nodes it lies between its values at the cell's
    ends; box averaging keeps order, so averaging the step functions of
    the left values (lower) and of the right values (upper) brackets F
    at every node. The recursion starts from the exact first box, the
    widest, and each box after it widens the bracket by at most one
    cell's mass. So the nodes are quantiles of the normal law with
    y's variance, merged with equal steps over the support. Returns the
    nodes and the two bounds at them, to rounding.
    """
    a = np.sort(np.abs(np.asarray(w, dtype=float)))[::-1]
    a = a[a > 0]
    l1, sd = float(a.sum()), math.sqrt(float(a @ a) / 3.0)
    levels = (np.arange(cells) + 0.5) / cells
    t = np.unique(np.r_[np.linspace(-l1, l1, cells // 4 + 1),
                        np.clip(sd * ndtri(levels), -l1, l1)])

    def average(step, half):
        """The box average of a step function: 0 below t, 1 above."""
        integral = np.r_[0.0, np.cumsum(step * np.diff(t))]

        def antiderivative(s):
            return (np.interp(np.minimum(s, l1), t, integral)
                    + np.maximum(s - l1, 0.0))

        return (antiderivative(t + half) - antiderivative(t - half)) / (2 * half)

    lower = upper = np.clip((t + a[0]) / (2 * a[0]), 0.0, 1.0)
    for half in a[1:]:
        lower, upper = average(lower[:-1], half), average(upper[1:], half)
    return t, lower, upper


def exact_law(w):
    """F_Y at y as (lower, upper) bounds that are both the exact value."""
    def law(y):
        exact = uniform_sum_cdf(w, y)
        return exact, exact
    return law


def bracketed_law(w):
    """F_Y at y bounded by the box-average law's values at the nodes
    around y: F(y) >= F(node below) and F(y) <= F(node above)."""
    t, lower, upper = box_average_law(w)
    lower, upper = np.r_[0.0, lower], np.r_[upper, 1.0]

    def law(y):
        y = np.asarray(y, dtype=float)
        return (lower[np.searchsorted(t, y, side="right")],
                upper[np.searchsorted(t, y, side="left")])
    return law


def quadratic_cdf_bounds(coeffs, q, law):
    """Bounds on P(c0 + c1 y + c2 y^2 <= q) from bounds ``law(y)`` on F_Y.

    The quadratic is at most q between its two roots when c2 > 0 and
    outside them when c2 < 0, so the CDF is F_Y(y2) - F_Y(y1), or one
    minus that. The roots use the cancellation-free form.
    """
    c0, c1, c2 = coeffs
    q = np.asarray(q, dtype=float)
    if c2 == 0.0:
        lo, hi = law((q - c0) / c1)
        return (lo, hi) if c1 > 0 else (1.0 - hi, 1.0 - lo)
    disc = c1 * c1 - 4.0 * c2 * (c0 - q)
    t = -0.5 * (c1 + math.copysign(1.0, c1) * np.sqrt(np.maximum(disc, 0.0)))
    t = np.where(t == 0.0, -np.finfo(float).tiny, t)
    with np.errstate(over="ignore"):  # an infinite root is outside the support
        r1, r2 = t / c2, (c0 - q) / t
    top_lo, top_hi = law(np.maximum(r1, r2))
    bottom_lo, bottom_hi = law(np.minimum(r1, r2))
    lo = np.where(disc > 0.0, top_lo - bottom_hi, 0.0)
    hi = np.where(disc > 0.0, top_hi - bottom_lo, 0.0)
    return (lo, hi) if c2 > 0 else (1.0 - hi, 1.0 - lo)


def quadratic_cdf(coeffs, w, q):
    """Exact P(c0 + c1 y + c2 y^2 <= q) for y = w . x, x uniform on [-1, 1]^m."""
    return quadratic_cdf_bounds(coeffs, q, exact_law(w))[0]


def smoothed_cdf_bracket(coeffs, w, q, h, law, cells=2048):
    """Lower and upper bounds on (F * phi_h)(q) = E[ndtr((q - g(Y)) / h)].

    The support of g(Y) is cut into cells; H, the CDF of g(Y), is 0 and
    1 at its ends and bounded at the edges between by ``law`` through
    :func:`quadratic_cdf_bounds`. On a cell [a, b] the kernel
    ndtr((q - t) / h) falls from its value at a to its value at b, so
    the cell contributes between p_j ndtr((q - b) / h) and
    p_j ndtr((q - a) / h). Summed by parts, these sums fall as H rises
    at each inner edge, so H's lower bound gives the lower sum and its
    upper bound the upper one. The cell edges are equal steps in t
    merged with steps of about equal mass, found by interpolating H.
    """
    c0, c1, c2 = coeffs
    l1 = float(np.abs(w).sum())
    ends = [-l1, l1]
    if c2 != 0.0 and abs(c1 / (2.0 * c2)) < l1:
        ends.append(-c1 / (2.0 * c2))
    g = [c0 + c1 * y + c2 * y * y for y in ends]
    even = np.linspace(min(g), max(g), cells + 1)
    levels = np.linspace(0.0, 1.0, cells + 1)
    edges = np.unique(np.r_[even, np.interp(
        levels, quadratic_cdf_bounds(coeffs, even, law)[0], even)])
    masses = []
    for bound in quadratic_cdf_bounds(coeffs, edges, law):
        bound = np.array(bound, dtype=float)
        bound[0], bound[-1] = 0.0, 1.0
        masses.append(np.diff(bound))
    q = np.asarray(q, dtype=float)[:, None]
    lower = ndtr((q - edges[None, 1:]) / h) @ masses[0]
    upper = ndtr((q - edges[None, :-1]) / h) @ masses[1]
    return lower, upper


class TestCdfOracle:
    """The inclusion-exclusion CDF used as the oracle of ``estimate_cdf``."""

    @pytest.mark.parametrize("m", [1, 2, 7, 12])
    def test_matches_monte_carlo(self, m):
        rng = np.random.default_rng(m)
        w = rng.choice([-1.0, 1.0], m) * rng.uniform(0.2, 1.0, m)
        w /= np.linalg.norm(w)
        y = sample_hypercube(m, 200_000, seed=m) @ w
        q = np.quantile(y, [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
        empirical = (y[:, None] <= q[None, :]).mean(axis=0)
        assert np.max(np.abs(uniform_sum_cdf(w, q) - empirical)) < 5e-3

    def test_closed_forms(self):
        # m = 1: uniform on [-1, 1]; m = 2, equal weights: a triangle.
        assert uniform_sum_cdf([1.0], 0.5) == pytest.approx(0.75, abs=1e-15)
        s = 1.0 / math.sqrt(2.0)
        y = np.array([-2.0 * s, -s, 0.0, 0.5 * s, 2.0 * s])
        triangle = np.where(y < 0, (y / s + 2) ** 2 / 8,
                            1 - (2 - y / s) ** 2 / 8)
        np.testing.assert_allclose(uniform_sum_cdf([s, -s], y), triangle,
                                   atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(mags=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
           signs=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_box_average_law_brackets_the_exact_law(self, mags, signs):
        w = np.where(signs[:len(mags)], -1.0, 1.0) * np.array(mags)
        w /= np.linalg.norm(w)
        t, lower, upper = box_average_law(w)
        assert np.max(upper - lower) < 1e-3
        every = slice(None, None, 16)  # the exact law costs 2^m per point
        exact = uniform_sum_cdf(w, t[every])
        assert np.all(lower[every] <= exact + 1e-9)
        assert np.all(exact <= upper[every] + 1e-9)

    @pytest.mark.parametrize("m", [20, 50])
    def test_box_average_law_matches_monte_carlo(self, m):
        # Beyond the exact law's reach: a 400 000-point empirical CDF lies
        # in the bracket widened by the DKW band at alpha = 1e-6.
        rng = np.random.default_rng(m)
        w = rng.choice([-1.0, 1.0], m) * rng.uniform(0.2, 1.0, m)
        w /= np.linalg.norm(w)
        t, lower, upper = box_average_law(w)
        y = np.sort(sample_hypercube(m, 400_000, seed=m) @ w)
        empirical = np.searchsorted(y, t, side="right") / len(y)
        band = math.sqrt(math.log(2 / 1e-6) / (2 * len(y)))
        assert np.max(upper - lower) < 2e-3
        assert np.all(empirical >= lower - band)
        assert np.all(empirical <= upper + band)

    @pytest.mark.parametrize("coeffs", [(0.3, -1.2, 0.0), (0.0, 0.4, 1.5),
                                        (1.0, 0.2, -0.8)])
    def test_quadratic_cdf_matches_monte_carlo(self, coeffs):
        w = np.array([0.6, -0.48, 0.64])
        c0, c1, c2 = coeffs
        y = sample_hypercube(3, 200_000, seed=1) @ w
        g = c0 + c1 * y + c2 * y * y
        q = np.quantile(g, [0.02, 0.25, 0.5, 0.75, 0.98])
        empirical = (g[:, None] <= q[None, :]).mean(axis=0)
        assert np.max(np.abs(quadratic_cdf(coeffs, w, q) - empirical)) < 5e-3

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 50),
           mags=st.lists(st.floats(0.2, 1.0), min_size=50, max_size=50),
           signs=st.lists(st.booleans(), min_size=50, max_size=50),
           coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
           n=st.integers(2, 50_000), seed=st.integers(0, 2**32 - 1),
           grid_size=st.sampled_from([2, 33, 129, 513]))
    @example(m=12, mags=[1.0, 0.2] * 25, signs=[False, True] * 25,
             coeffs=(0.5, 1.0, 1.5), n=50_000, seed=3, grid_size=513)
    @example(m=1, mags=[1.0] * 50, signs=[False] * 50,
             coeffs=(0.0, 1.0, 0.0), n=50_000, seed=4, grid_size=33)
    @example(m=2, mags=[1.0] * 50, signs=[False, True] * 25,
             coeffs=(0.0, 0.1, -2.0), n=20_000, seed=5, grid_size=2)
    # The last block of hypercube_blocks holds 4096 to 8191 rows: n = 8191
    # is one block, 8192 two full ones, 12287 a full one and a longest
    # last one, 12288 three.
    @example(m=50, mags=[1.0, 0.2] * 25, signs=[False, True] * 25,
             coeffs=(0.5, 1.0, 1.5), n=8191, seed=6, grid_size=513)
    @example(m=50, mags=[0.6] * 50, signs=[True, False] * 25,
             coeffs=(0.0, -1.0, 0.0), n=8192, seed=7, grid_size=129)
    @example(m=13, mags=[0.3, 0.9] * 25, signs=[False] * 50,
             coeffs=(1.0, 0.2, -0.8), n=12287, seed=8, grid_size=513)
    @example(m=50, mags=[0.2, 1.0] * 25, signs=[True] * 50,
             coeffs=(0.3, -1.2, 0.4), n=12288, seed=9, grid_size=33)
    def test_estimate_within_the_dkw_band(self, m, mags, signs, coeffs, n,
                                          seed, grid_size):
        # The estimate is F_n * phi_h, so it is within sup|F_n - F| of
        # F * phi_h for any bandwidth, also the one computed from the
        # sample; by the Dvoretzky-Kiefer-Wolfowitz inequality (Massart's
        # constant) that exceeds sqrt(ln(2/alpha) / (2n)) with probability
        # at most alpha. Linear binning onto a grid of spacing delta moves
        # each kernel by at most 0.0303 (delta/h)^2. F is the exact law up
        # to m = 12 and the box-average bracket beyond.
        c0, c1, c2 = coeffs
        assume(abs(c1) + abs(c2) >= 1e-2)
        w = np.where(signs[:m], -1.0, 1.0) * np.array(mags[:m])
        w /= np.linalg.norm(w)
        l1 = float(np.abs(w).sum())
        surr = QuadraticSurrogate(
            coeffs=np.array(coeffs), sigma2_hat=None, gram_inverse=np.eye(3),
            M=3, r_squared=1.0, y_domain=(-l1, l1))
        cdf = estimate_cdf(surr, w, n_samples=n, seed=seed,
                           grid_size=grid_size)
        assume(not cdf.degenerate)
        h = cdf.bandwidth
        d = (cdf.grid[-1] - cdf.grid[0]) / (grid_size - 1)
        delta = d / max(1, math.ceil(16.0 * d / h))
        tol = math.sqrt(math.log(2 / 1e-6) / (2 * n)) + 0.0303 * (delta / h) ** 2
        law = exact_law(w) if m <= 12 else bracketed_law(w)
        lower, upper = smoothed_cdf_bracket(coeffs, w, cdf.grid, h, law)
        assert np.all(cdf.cdf >= lower - tol)
        assert np.all(cdf.cdf <= upper + tol)


@pytest.fixture(scope="module")
def safe_fixture_data():
    """Training pairs of known coefficients over a 3-parameter direction."""
    w = np.array([0.8, 0.36, 0.48])
    l1 = float(np.abs(w).sum())
    y = np.linspace(-l1, l1, 50)
    f = 2.0 + 0.5 * y + 0.1 * y ** 2
    rng = np.random.default_rng(17)
    f = f + 0.01 * (f.max() - f.min()) * rng.standard_normal(50)
    return w, y, f


@pytest.fixture
def safe_fixture(safe_fixture_data):
    """Surrogate fitted to ``safe_fixture_data``."""
    w, y, f = safe_fixture_data
    l1 = float(np.abs(w).sum())
    return fit_quadratic(y, f, y_domain=(-l1, l1)), w, l1


class TestCornerExtrema:
    def test_two_dimensional_signs(self):
        x_min, x_max = corner_extrema([0.6, -0.8])
        np.testing.assert_array_equal(x_max, [1.0, -1.0])
        np.testing.assert_array_equal(x_min, [-1.0, 1.0])

    def test_low_fuel_pressure_direction_corners(self):
        w = np.array([0.6506, 0.5565, -0.0002, 0.3685, -0.3566, -0.0196, 0.0607])
        w = w / np.linalg.norm(w)
        _, x_max = corner_extrema(w)
        np.testing.assert_array_equal(x_max, [1, 1, -1, 1, -1, -1, 1])

    def test_zero_component_tie_break_positive(self):
        _, x_max = corner_extrema([1.0, 0.0])
        np.testing.assert_array_equal(x_max, [1.0, 1.0])

    def test_opposite_corners(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = rng.standard_normal(5)
            w /= np.linalg.norm(w)
            x_min, x_max = corner_extrema(w)
            np.testing.assert_array_equal(x_min, -x_max)
            assert np.dot(w, x_max) == pytest.approx(np.abs(w).sum())

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = rng.standard_normal(7)
            w /= np.linalg.norm(w)
            _, x_max = corner_extrema(w)
            np.testing.assert_array_equal(x_max, brute_force_corner(w))

    def test_norm_off_by_1e_6_rejected(self):
        with pytest.raises(DataError, match="unit vector"):
            corner_extrema([1.0 + 1e-6, 0.0])


class TestEstimateRange:
    def test_monotone_ridge_attains_corner_extrema(self):
        w = ridge_direction(4, seed=2)
        l1 = float(np.abs(w).sum())

        def f(x):
            t = float(np.dot(w, x))
            return t ** 3 + t

        X = sample_hypercube(4, 30, seed=5)
        f_samples = np.array([f(x) for x in X])
        est = estimate_range([f(x) for x in corner_extrema(w)], f_samples)
        assert est.f_min == pytest.approx(-(l1 ** 3) - l1)
        assert est.f_max == pytest.approx(l1 ** 3 + l1)
        assert est.validated

    def test_strong_second_direction_defeats_heuristic(self):
        w = np.array([0.8, 0.6])
        v = np.array([-0.6, 0.8])

        def f(x):
            x = np.asarray(x, dtype=float)
            return float(w @ x + 2.0 * (v @ x) ** 2)

        X = sample_hypercube(2, 50, seed=12)
        f_samples = np.array([f(x) for x in X])
        est = estimate_range([f(x) for x in corner_extrema(w)], f_samples)
        assert not est.validated
        assert np.max(f_samples) > est.f_max

    def test_decreasing_trend_reports_ordered_interval(self):
        w = ridge_direction(3, seed=9)
        l1 = float(np.abs(w).sum())

        def f(x):
            return -float(np.dot(w, x))

        X = sample_hypercube(3, 20, seed=1)
        f_samples = np.array([f(x) for x in X])
        est = estimate_range([f(x) for x in corner_extrema(w)], f_samples)
        assert est.inverted
        assert est.f_min == pytest.approx(-l1)
        assert est.f_max == pytest.approx(l1)
        assert est.validated

    def test_constant_function(self):
        est = estimate_range([7.0, 7.0], np.full(5, 7.0))
        assert est.f_min == est.f_max == 7.0
        assert est.validated
        assert not est.inverted  # equal corners are in order

    def test_corner_failure_yields_partial_result(self):
        est = estimate_range([-1.0, None], np.array([-0.5]))
        assert est.f_min == -1.0
        assert est.f_max is None
        assert not est.validated

    def test_both_corners_failing_keep_their_diagnostics(self):
        w = np.array([0.6, -0.8])
        est = estimate_range([None, None], np.array([0.0]))
        assert est.f_min is None and est.f_max is None
        assert not est.validated and not est.inverted
        np.testing.assert_array_equal(corner_extrema(w)[1], [1.0, -1.0])


class TestInscribedBox:
    def test_two_parameter_water_filling(self):
        w = np.array([0.8, 0.6])
        sides = inscribed_box(w, 0.0)
        np.testing.assert_allclose(sides, [0.875, 7.0 / 6.0], atol=1e-9)
        assert np.prod(sides) == pytest.approx(1.0208333333, abs=1e-6)
        assert sides.any()

    def test_full_budget_gives_whole_cube(self):
        w = ridge_direction(5, seed=4)
        sides = inscribed_box(w, float(np.abs(w).sum()))
        np.testing.assert_allclose(sides, 2.0, atol=1e-12)

    def test_zero_weight_coordinate_gets_full_side(self):
        w = np.array([0.6, 0.8, 0.0])
        sides = inscribed_box(w, -0.5)
        assert sides[2] == 2.0
        assert sides[0] < 2.0 and sides[1] < 2.0

    def test_negative_budget_is_empty(self):
        w = np.array([1.0, 0.0])
        sides = inscribed_box(w, -1.5)
        assert not sides.any()
        np.testing.assert_array_equal(sides, 0.0)

    def test_zero_budget_keeps_the_zero_weight_side(self):
        # y_max = w.x_min = -1: a budget of exactly 0 is not negative, so
        # the zero-weight coordinate still gets the full side.
        np.testing.assert_array_equal(inscribed_box([1.0, 0.0], -1.0),
                                      [0.0, 2.0])

    def test_kkt_stationarity_and_binding_budget(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            w = rng.standard_normal(m)
            w /= np.linalg.norm(w)
            x_min = corner_extrema(w)[0]
            y_max = float(rng.uniform(-np.abs(w).sum(), np.abs(w).sum()))
            sides = inscribed_box(w, y_max)
            b = y_max - float(w @ x_min)
            interior = (sides > 1e-12) & (sides < 2.0 - 1e-12)
            if interior.sum() >= 2:
                costs = sides[interior] * np.abs(w)[interior]
                assert np.ptp(costs) <= 1e-9
            if np.any(sides < 2.0 - 1e-12):
                assert abs(float(np.abs(w) @ sides) - b) <= 1e-9

    @pytest.mark.parametrize("m,seed", [(1, 0), (2, 1), (3, 2)])
    def test_matches_grid_search(self, m, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            w = rng.standard_normal(m)
            w /= np.linalg.norm(w)
            x_min = corner_extrema(w)[0]
            l1 = float(np.abs(w).sum())
            y_max = float(rng.uniform(-0.9 * l1, 0.9 * l1))
            got = float(np.prod(inscribed_box(w, y_max)))
            want = box_product_oracle(w, y_max, x_min)
            assert abs(got - want) <= 1e-3

    @settings(max_examples=400, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False)),
            min_size=1, max_size=60),
        regime=st.sampled_from(["empty", "partial", "full"]),
        fraction=st.floats(0.0, 1.0),
    )
    def test_closed_form_matches_bisection(self, weights, regime, fraction):
        w = np.array(weights)
        norm = np.linalg.norm(w)
        if norm <= 1e-6:
            w = np.zeros(len(w))
            w[0] = 1.0
        else:
            w = w / norm
        x_min = corner_extrema(w)[0]
        l1 = float(np.abs(w).sum())
        # The budget y_max - w.x_min is negative, in (0, 2 l1), or >= 2 l1.
        # It stays far above the bisection's resolution, 2^-200 max|w_i|;
        # below that the reference itself is wrong.
        budget = {"empty": -1e-3 - fraction,
                  "partial": 2.0 * l1 * max(fraction, 1e-12) * (1.0 - 1e-12),
                  "full": 2.0 * l1 + fraction}[regime]
        y_max = float(w @ x_min) + budget
        sides = inscribed_box(w, y_max)
        want = bisection_box_sides(w, y_max, x_min)
        np.testing.assert_allclose(sides, want, rtol=0, atol=1e-12)
        assert (not sides.any()) == (regime == "empty")


class TestInvertSafeSet:
    def test_threshold_above_everything_is_full(self, safe_fixture):
        surr, w, l1 = safe_fixture
        result = invert_safe_set(surr, w, threshold=100.0, space=unit_space(3))
        assert result.feasible == "full"
        assert result.y_max == pytest.approx(l1)
        np.testing.assert_allclose(result.box_sides, 2.0)

    def test_threshold_below_everything_is_empty(self, safe_fixture):
        surr, w, _ = safe_fixture
        result = invert_safe_set(surr, w, threshold=0.0, space=unit_space(3))
        assert result.feasible == "empty"
        assert result.y_max is None
        np.testing.assert_array_equal(result.box_sides, 0.0)

    def test_bisection_hits_threshold(self, safe_fixture):
        surr, w, _ = safe_fixture
        result = invert_safe_set(surr, w, threshold=2.5, space=unit_space(3))
        assert result.feasible == "partial"
        bound = surr.upper_confidence(result.y_max)
        assert abs(bound - 2.5) <= 1e-9

    def test_box_corner_stays_safe(self, safe_fixture):
        surr, w, _ = safe_fixture
        result = invert_safe_set(surr, w, threshold=2.5, space=unit_space(3))
        corner = result.x_anchor * (1.0 - result.box_sides)
        assert float(w @ corner) <= result.y_max + 1e-9

    def test_monotone_in_threshold(self, safe_fixture):
        surr, w, _ = safe_fixture
        prev_y, prev_sides = -np.inf, np.zeros(3)
        for threshold in np.linspace(1.0, 4.0, 20):
            result = invert_safe_set(surr, w, threshold=float(threshold),
                                     space=unit_space(3))
            y = -np.inf if result.y_max is None else result.y_max
            assert y >= prev_y - 1e-12
            assert np.all(result.box_sides >= prev_sides - 1e-9)
            prev_y, prev_sides = y, result.box_sides

    def test_full_feasibility_reports_original_ranges(self):
        space = hyshot_space()
        w = ridge_direction(7, seed=1)
        l1 = float(np.abs(w).sum())
        y = np.linspace(-l1, l1, 40)
        surr = fit_quadratic(y, 1.0 + 0.1 * y, y_domain=(-l1, l1))
        result = invert_safe_set(surr, w, threshold=50.0, space=space)
        assert result.feasible == "full"
        for entry, spec in zip(result.safe_ranges, space.params):
            assert not entry["restricted"]
            assert entry["min"] == pytest.approx(spec.min, abs=1e-12)
            assert entry["max"] == pytest.approx(spec.max, abs=1e-12)

    def test_narrow_infeasible_gap_is_found(self):
        w = np.array([0.6, 0.8])
        y = np.linspace(-1.4, 1.4, 60)
        f = 1.0 - 4.0 * (y - 0.3) ** 2 + 1e-9 * np.sin(37.0 * y)
        surr = fit_quadratic(y, f, y_domain=(-1.4, 1.4))
        threshold = surr.upper_confidence(0.3) - 1e-7
        # The bound exceeds the threshold on y in about [0.29984, 0.30016].
        result = invert_safe_set(surr, w, threshold, space=unit_space(2))
        assert result.feasible == "partial"
        assert result.y_max <= 0.29985

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, safe_fixture, threshold):
        surr, w, _ = safe_fixture
        with pytest.raises(DataError, match="finite"):
            invert_safe_set(surr, w, threshold, space=unit_space(3))

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 7), M=st.integers(4, 79),
           coeffs=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
           log_noise=st.floats(-12.0, 0.0), seed=st.integers(0, 2**32 - 1),
           tangent=st.booleans(), u=st.floats(-0.1, 1.1),
           log_gap=st.floats(-12.0, -3.0))
    # The bound is flat to rounding past the scan's crossing here.
    @example(m=1, M=48, coeffs=(3.0, 0.0, 0.0), log_noise=-8.0, seed=49,
             tangent=True, u=0.0, log_gap=-12.0)
    def test_matches_the_scan_and_never_passes_an_unsafe_point(
            self, m, M, coeffs, log_noise, seed, tangent, u, log_gap):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m)
        w /= np.linalg.norm(w)
        l1 = float(np.abs(w).sum())
        y = np.linspace(-l1, l1, M)
        c0, c1, c2 = coeffs
        f = c0 + c1 * y + c2 * y ** 2 + 10.0 ** log_noise * rng.standard_normal(M)
        surr = fit_quadratic(y, f, y_domain=(-l1, l1))
        ub_grid = surr.upper_confidence(np.linspace(-l1, l1, 20001))
        lo, hi = float(ub_grid.min()), float(ub_grid.max())
        # Near-tangent thresholds sit just below the bound's maximum.
        threshold = hi - 10.0 ** log_gap if tangent else lo + u * (hi - lo)
        # Rounding noise of the computed bound, far below the 1e-12 gaps.
        noise = 4e-15 * (np.abs(surr.coeffs) @ [1.0, l1, l1 * l1] + 1.0)

        result = invert_safe_set(surr, w, threshold, space=unit_space(m))
        ref_feasible, ref_y = scan_safe_set(surr, w, threshold)
        if result.feasible == "empty" or ref_feasible == "empty":
            assert result.feasible == ref_feasible == "empty"
            return
        y_max = result.y_max
        if result.feasible == "partial":
            assert surr.upper_confidence(y_max) <= threshold
        grid = np.linspace(-l1, y_max, 20001)
        assert not np.any(surr.upper_confidence(grid) > threshold + noise)
        if y_max - ref_y > 1e-9:
            # Past the scan's crossing only where that is rounding noise.
            probe = np.linspace(ref_y, y_max, 20001)
            assert not np.any(surr.upper_confidence(probe) > threshold + noise)
        elif ref_y - y_max > 1e-9:
            probe = np.r_[y_max + np.geomspace(1e-12, 1.0, 61),
                          np.linspace(y_max, ref_y, 2001)]
            probe = probe[(probe > y_max) & (probe <= ref_y)]
            assert np.any(surr.upper_confidence(probe) > threshold)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 59), M=st.integers(5, 79),
           coeffs=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
           log_noise=st.floats(-6.0, 0.0), seed=st.integers(0, 2**32 - 1),
           u=st.floats(0.01, 0.99), level=st.floats(0.6, 0.999999))
    def test_bisection_to_adjacent_floats_equals_100_halvings(
            self, m, M, coeffs, log_noise, seed, u, level):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m)
        w /= np.linalg.norm(w)
        l1 = float(np.abs(w).sum())
        y = np.linspace(-l1, l1, M)
        c0, c1, c2 = coeffs
        f = c0 + c1 * y + c2 * y ** 2 + 10.0 ** log_noise * rng.standard_normal(M)
        surr = fit_quadratic(y, f, y_domain=(-l1, l1))
        ub = surr.upper_confidence(np.linspace(-l1, l1, 201), level)
        threshold = float(ub.min() + u * (ub.max() - ub.min()))
        want = fixed_count_y_max(surr, w, threshold, level)
        assume(want is not None)
        # 100 halvings reach adjacent floats unless the crossing is this
        # close to 0, where the floats are denser.
        assume(abs(want) > 1e-13 * l1)
        result = invert_safe_set(surr, w, threshold, level=level,
                                 space=unit_space(m))
        assert result.feasible == "partial"
        assert result.y_max == want

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(1e-3, 1e3), b=st.floats(-100.0, 100.0),
           threshold=st.sampled_from([1.0, 2.0, 2.5, 3.0, 100.0]))
    def test_affine_output_map_keeps_the_safe_set(self, safe_fixture_data,
                                                  a, b, threshold):
        w, y, f = safe_fixture_data
        l1 = float(np.abs(w).sum())
        base = invert_safe_set(fit_quadratic(y, f, y_domain=(-l1, l1)),
                               w, threshold, space=unit_space(3))
        mapped = invert_safe_set(fit_quadratic(y, a * f + b, y_domain=(-l1, l1)),
                                 w, a * threshold + b, space=unit_space(3))
        assert mapped.feasible == base.feasible
        if base.y_max is None:
            assert mapped.y_max is None
        else:
            assert mapped.y_max == pytest.approx(base.y_max, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_permuted_parameters_permute_the_box(self, seed):
        space = hyshot_space()
        w = ridge_direction(space.m, seed=seed)
        l1 = float(np.abs(w).sum())
        y = np.linspace(-l1, l1, 40)
        f = 1.0 + y + 0.3 * y ** 2 + 0.01 * np.sin(5.0 * y)
        # ||w[perm]||_1 may exceed l1 by an ulp; sqrt(7) < 3 covers both.
        surr = fit_quadratic(y, f, y_domain=(-3.0, 3.0))
        threshold = float(surr.upper_confidence(0.0))
        perm = np.random.default_rng(seed).permutation(space.m)
        permuted = ParameterSpace([space.params[i] for i in perm])
        base = invert_safe_set(surr, w, threshold, space=space)
        moved = invert_safe_set(surr, w[perm], threshold, space=permuted)
        assert base.feasible == moved.feasible == "partial"
        # Only the summation order of w . x_min and ||w||_1 changes.
        np.testing.assert_allclose(moved.box_sides, base.box_sides[perm],
                                   rtol=0, atol=1e-12)
        for entry, i in zip(moved.safe_ranges, perm):
            expected = {**base.safe_ranges[i], "index": entry["index"]}
            assert entry == pytest.approx(expected, abs=1e-12)

    def test_restricted_parameters_marked(self, safe_fixture):
        surr, w, _ = safe_fixture
        result = invert_safe_set(surr, w, threshold=2.5, space=unit_space(3))
        restricted = [e["restricted"] for e in result.safe_ranges]
        assert any(restricted)
        for entry in result.safe_ranges:
            assert entry["min"] >= -1.0 - 1e-12
            assert entry["max"] <= 1.0 + 1e-12

    def test_side_within_1e_12_of_2_is_not_restricted(self):
        # The cap sits 5e-13 below ||w||_1, so the heavier coordinate's
        # side falls short of 2 by less than 1e-12.
        w = np.array([0.8, 0.6])
        y = np.linspace(-1.4, 1.4, 50)
        surr = fit_quadratic(y, y + 1e-3 * np.sin(7 * y), y_domain=(-1.4, 1.4))
        threshold = float(surr.upper_confidence(1.4 - 5e-13, 0.99))
        result = invert_safe_set(surr, w, threshold, space=unit_space(2))
        assert result.feasible == "partial"
        assert 0.0 < 2.0 - result.box_sides[0] < 1e-12
        assert result.box_sides[1] == 2.0
        assert [e["restricted"] for e in result.safe_ranges] == [False, False]


class TestEstimateCdf:
    def test_constant_surrogate_step_cdf(self):
        y = np.linspace(-1, 1, 10)
        surr = fit_quadratic(y, np.full(10, 3.0))
        cdf = estimate_cdf(surr, np.array([1.0]), n_samples=100, seed=0)
        assert cdf.degenerate
        assert cdf.bandwidth == 0.0
        margin = max(1.0, 1e-3 * 3.0)
        np.testing.assert_array_equal(cdf.grid,
                                      [3.0 - margin, 3.0, 3.0 + margin])
        np.testing.assert_array_equal(cdf.cdf, [0.0, 0.5, 1.0])

    def test_relative_spread_of_1e_12_is_not_degenerate(self):
        # Far above the 1e-14 float-fuzz floor, so the kernel estimate
        # runs, with a bandwidth near 1.5e-13.
        y = np.linspace(-1, 1, 20)
        surr = fit_quadratic(y, 1.0 + 1e-12 * y, y_domain=(-1.0, 1.0))
        cdf = estimate_cdf(surr, np.array([1.0]), n_samples=1000, seed=0,
                           grid_size=33)
        assert not cdf.degenerate
        assert len(cdf.grid) == 33
        assert cdf.bandwidth == pytest.approx(1.5e-13, rel=0.05)
        assert cdf.cdf[0] < 1e-3 and cdf.cdf[-1] > 1 - 1e-3

    def test_linear_surrogate_median(self):
        y = np.linspace(-1, 1, 20)
        surr = fit_quadratic(y, y, y_domain=(-1.0, 1.0))
        cdf = estimate_cdf(surr, np.array([1.0]), n_samples=5000, seed=42)
        median = np.interp(0.0, cdf.grid, cdf.cdf)
        assert median == pytest.approx(0.5, abs=0.02)

    def test_monotone_and_saturating(self, safe_fixture):
        surr, w, _ = safe_fixture
        cdf = estimate_cdf(surr, w, n_samples=2000, seed=7)
        assert np.all(np.diff(cdf.cdf) >= -1e-15)
        assert cdf.cdf[-1] >= 0.999
        assert cdf.cdf[0] <= 1e-3

    def test_tails_converge_past_extremes(self, safe_fixture):
        surr, w, _ = safe_fixture
        cdf = estimate_cdf(surr, w, n_samples=500, seed=3)
        # The grid ends sit 4 bandwidths past the sample extremes.
        assert cdf.cdf[0] <= 1e-6
        assert cdf.cdf[-1] >= 1.0 - 1e-6

    def test_seed_reproducibility(self, safe_fixture):
        surr, w, _ = safe_fixture
        a = estimate_cdf(surr, w, n_samples=800, seed=5)
        b = estimate_cdf(surr, w, n_samples=800, seed=5)
        assert np.array_equal(a.grid, b.grid)
        assert np.array_equal(a.cdf, b.cdf)

    def test_silverman_bandwidth_value(self, safe_fixture):
        surr, w, _ = safe_fixture
        n = 1000
        cdf = estimate_cdf(surr, w, n_samples=n, seed=9)
        X = sample_hypercube(3, n, seed=9)
        g = surr.predict(X @ w)
        expected = 1.06 * np.std(g, ddof=1) * n ** (-0.2)
        assert cdf.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_too_few_samples_rejected(self, safe_fixture):
        surr, w, _ = safe_fixture
        with pytest.raises(DataError):
            estimate_cdf(surr, w, n_samples=1, seed=0)

    @pytest.mark.parametrize("grid_size", [-1, 0, 1])
    def test_too_small_grid_rejected(self, safe_fixture, grid_size):
        surr, w, _ = safe_fixture
        with pytest.raises(DataError, match="grid_size"):
            estimate_cdf(surr, w, n_samples=100, seed=0,
                         grid_size=grid_size)

    @pytest.mark.parametrize("grid_size", [2, 33, 513, 1000])
    def test_binned_kernel_within_bound_of_dense_formula(self, safe_fixture,
                                                         grid_size):
        # The dense n-term kernel sum is the reference; linear binning on
        # the fine grid of spacing delta moves each term by at most
        # max|ndtr''| (delta/h)^2 / 8 <= 0.0303 (delta/h)^2.
        surr, w, _ = safe_fixture
        n = 50_000
        cdf = estimate_cdf(surr, w, n_samples=n, seed=4,
                           grid_size=grid_size)
        g = surr.predict(sample_hypercube(3, n, seed=4) @ w)
        h = cdf.bandwidth
        grid = np.linspace(g.min() - 4.0 * h, g.max() + 4.0 * h, grid_size)
        assert cdf.grid.tobytes() == grid.tobytes()
        d = (grid[-1] - grid[0]) / (grid_size - 1)
        delta = d / max(1, math.ceil(16.0 * d / h))
        dense = ndtr((grid[:, None] - g[None, :]) / h).mean(axis=1)
        assert np.max(np.abs(cdf.cdf - dense)) <= 0.0303 * (delta / h) ** 2 + 1e-12
        assert np.all(np.diff(cdf.cdf) >= -1e-15)

    @pytest.mark.parametrize("grid_size, r", [
        (513, 1), (513, 2), (513, 8), (513, 32), (257, 5), (2, 100),
        (4097, 3)])
    def test_one_kernel_product_equals_the_blocked_rows(self, grid_size, r):
        # At (513, 8), (513, 32) and (4097, 3) the G N kernel terms exceed
        # 2**20, which the blocked reference split into several row blocks.
        g = np.random.default_rng(r).standard_normal(5000)
        grid = np.linspace(g.min() - 1.0, g.max() + 1.0, grid_size)
        d = (grid[-1] - grid[0]) / (grid_size - 1)
        h = 16.0 * d / r * (1 - 1e-9)  # ceil(16 d / h) = r
        tracemalloc.start()
        try:
            cdf = uq_analysis._binned_kernel_cdf(grid, g, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cdf.tobytes() == blocked_kernel_cdf(grid, g, h).tobytes()
        nodes = (grid_size - 1) * r + 1
        if grid_size * nodes > 2 ** 20:
            # The kernel and its evaluation, not a (G, N) copy of the
            # windows: 2.1 MB against 67 MB at (513, 32). The bound is an
            # eighth of one (G, N) float64 array.
            assert peak < grid_size * nodes


def blocked_kernel_cdf(grid, g, h, block=1 << 20):
    """Test-only reference: _binned_kernel_cdf's product in row blocks of
    at most ``block`` kernel terms, as it was computed before."""
    d = (grid[-1] - grid[0]) / (len(grid) - 1)
    r = max(1, math.ceil(16.0 * d / h))
    delta = d / r
    nodes = (len(grid) - 1) * r + 1
    pos = (g - grid[0]) / delta
    k = np.clip(np.floor(pos).astype(np.intp), 0, nodes - 2)
    frac = pos - k
    weights = (np.bincount(k, 1.0 - frac, nodes)
               + np.bincount(k + 1, frac, nodes)) / len(g)
    kernel = uq_analysis._ndtr(np.arange(1 - nodes, nodes) * (delta / h))
    windows = np.lib.stride_tricks.sliding_window_view(kernel, nodes)[::r]
    cdf = np.empty(len(grid))
    rows = max(1, block // nodes)
    for i in range(0, len(grid), rows):
        cdf[i:i + rows] = windows[i:i + rows] @ weights[::-1]
    return cdf


def one_shot_blocks(m, n, seed):
    """Test-only reference: the whole CDF sample in one draw."""
    yield sample_hypercube(m, n, seed)


def cubic_ridge(m):
    """A direction in m parameters and a surrogate fitted along it."""
    w = ridge_direction(m, m)
    l1 = float(np.abs(w).sum())
    y = np.linspace(-l1, l1, 40)
    return fit_quadratic(y, y + 0.3 * y ** 3, y_domain=(-l1, l1)), w


def cdf_bytes(surr, w, n, seed) -> bytes:
    cdf = estimate_cdf(surr, w, n_samples=n, seed=seed)
    return cdf.grid.tobytes() + cdf.cdf.tobytes()


class TestStreamedCdfSample:
    @pytest.mark.parametrize("m", [1, 7, 13, 40])
    def test_equals_the_one_shot_draw_across_blocks(self, monkeypatch, m):
        # 3 blocks of 64 rows + 17. m * n stays small enough that BLAS
        # computes each product on one thread; a threaded product splits
        # its rows where n puts them, which can move the one-shot
        # reference's last bits.
        surr, w = cubic_ridge(m)
        n = 3 * 64 + 17
        monkeypatch.setattr(uq_analysis, "hypercube_blocks", functools.partial(
            param_space.hypercube_blocks, rows=64))
        streamed = cdf_bytes(surr, w, n, seed=m)
        monkeypatch.setattr(uq_analysis, "hypercube_blocks", one_shot_blocks)
        assert streamed == cdf_bytes(surr, w, n, seed=m)

    def test_equals_the_one_shot_draw_at_the_block_size(self):
        # 3 blocks of the module's size + 17 rows, with BLAS held to one
        # thread in a fresh interpreter.
        code = (
            "import sys; from asuq import param_space, uq_analysis; "
            "import test_uq_analysis as t; "
            "surr, w = t.cubic_ridge(50); "
            "n = 3 * param_space._SAMPLE_BLOCK + 17; "
            "streamed = t.cdf_bytes(surr, w, n, seed=5); "
            "uq_analysis.hypercube_blocks = t.one_shot_blocks; "
            "sys.exit(streamed != t.cdf_bytes(surr, w, n, seed=5))"
        )
        threads = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
        src = Path(param_space.__file__).resolve().parents[1]
        env = dict(os.environ, **threads, PYTHONPATH=os.pathsep.join(
            [str(src), str(Path(__file__).parent)]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_peak_memory_is_n_vectors_and_one_block(self):
        # The one-shot draw held the (n, 52) Philox output and its (n, 50)
        # contiguous copy: 166 MB at n = 200 000.
        m, n = 50, 200_000
        surr, w = cubic_ridge(m)
        tracemalloc.start()
        try:
            estimate_cdf(surr, w, n_samples=n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # At most ten n-vectors at once (block projections and their join,
        # g, and the binning's positions, indices and fractions) and the
        # last block (under two blocks of rows).
        block = 2 * param_space._SAMPLE_BLOCK * 4 * math.ceil(m / 4) * 8
        bound = 10 * 8 * n + block
        assert peak < bound < 30 * 2 ** 20

    def test_draw_holds_one_block_at_a_time(self):
        # Four full blocks at m = 50: each (4096, 52) Philox block, 1.6 MiB,
        # is dropped before the next is drawn. Holding the previous block
        # during the draw peaked at 3.3 MiB; the n-vectors add 0.1 MiB each.
        m, n = 50, 4 * param_space._SAMPLE_BLOCK
        surr, w = cubic_ridge(m)
        estimate_cdf(surr, w, n_samples=100, seed=0)
        tracemalloc.start()
        try:
            estimate_cdf(surr, w, n_samples=n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = param_space._SAMPLE_BLOCK * 4 * math.ceil(m / 4) * 8
        assert peak < 1.5 * block


@pytest.mark.parametrize("call, message", [
    (lambda surr: corner_extrema([1.0, 1.0]), "w must be a unit vector"),
    (lambda surr: invert_safe_set(surr, [1.0, 0.0], 1.0, space=hyshot_space()),
     "space has m=7, direction has 2"),
], ids=["unit", "space"])
def test_input_check_raises(call, message):
    y = np.linspace(-1.0, 1.0, 10)
    with pytest.raises(DataError, match=message):
        call(fit_quadratic(y, y * y))
