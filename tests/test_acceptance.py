"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import contextlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from asuq import (
    bootstrap_direction,
    corner_extrema,
    estimate_c_gradient_oracle,
    estimate_cdf,
    estimate_range,
    fit_active_direction,
    fit_quadratic,
    hyshot_space,
    inscribed_box,
    invert_safe_set,
    ridge_direction,
    unit_space,
)
from asuq.cli import main as cli_main
from asuq.hyshot import (
    area_mach_ratio,
    build_inflow,
    eddy_growth_ratio,
    fit_T0_H0,
    load_shots,
    mach_from_area_ratio,
    nominal_dissipation_length,
    transition_range,
)
from asuq.param_space import sample_hypercube


@contextlib.contextmanager
def criterion(number, description, max_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number:2d}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {number:2d}: {description} ({elapsed:.2f} s)")
    assert elapsed < max_seconds, (
        f"criterion {number} took {elapsed:.2f} s, limit {max_seconds} s"
    )


def ridge_50_7():
    w_true = ridge_direction(7, seed=3)
    X = sample_hypercube(7, 50, seed=7)
    y = X @ w_true
    return X, y ** 3 + y, w_true


def test_criterion_01_shot_regression():
    with criterion(1, "T0-H0 regression on the 9 usable shots", 1.0):
        intercept, slope = fit_T0_H0(load_shots())
        assert abs(intercept - 508.1386) <= 1.0
        assert abs(slope - 6.8718e-4) <= 1e-6


def test_criterion_02_area_mach():
    with criterion(2, "area-Mach ratio and inverse at Mach 7.4", 1.0):
        ratio = area_mach_ratio(7.4, 1.4)
        assert abs(ratio - 133.0) <= 1.0
        assert abs(mach_from_area_ratio(ratio, 1.4) - 7.4) <= 1e-6


def test_criterion_03_eddy_growth():
    # The published conversion ratios (1.16e-4, 0.0978) give
    # ((1/1.16e-4) * 0.0978)^(1/3) = 9.44699...; the reference report
    # quotes 9.43, which is not reproducible from its own rounded inputs.
    # The assertion is kept at the stated tolerance rather than widened.
    with criterion(3, "eddy-growth ratio and nominal dissipation length", 1.0):
        growth = eddy_growth_ratio()
        L = nominal_dissipation_length()
        assert abs(L - 0.245) / 0.245 <= 0.03
        assert abs(growth - 9.43) <= 0.01


def test_criterion_04_parameter_table():
    with criterion(4, "transition ranges and nominal inflow chain", 1.0):
        lo, hi = transition_range(0.145, varphi=0.2)
        assert lo == pytest.approx(0.087, rel=1e-12)
        assert hi == pytest.approx(0.203, rel=1e-12)
        lo, hi = transition_range(0.050, varphi=0.2)
        assert lo == pytest.approx(0.030, rel=1e-12)
        assert hi == pytest.approx(0.070, rel=1e-12)

        space = hyshot_space()
        np.testing.assert_allclose(space.denormalize(np.zeros(7)),
                                   space.nominals, rtol=1e-15)
        cond = build_inflow(np.zeros(7), space)
        nominal = dict(zip(space.names, space.nominals))
        assert cond.alpha_deg == pytest.approx(nominal["Angle of Attack"],
                                               rel=1e-12)
        assert cond.x_t_ramp == pytest.approx(
            nominal["Ramp Transition Location"], rel=1e-12)
        assert cond.x_t_cowl == pytest.approx(
            nominal["Cowl Transition Location"], rel=1e-12)
        assert cond.P == pytest.approx(
            1.16e-4 * nominal["Stagnation Pressure"] * 1e6, rel=1e-12)
        U = 1.332 * math.sqrt(nominal["Stagnation Enthalpy"] * 1e6)
        assert cond.U_mag == pytest.approx(U, rel=1e-12)
        k = 1.5 * (U * nominal["Turbulence Intensity"]) ** 2
        assert cond.k == pytest.approx(k, rel=1e-12)
        assert cond.omega == pytest.approx(
            math.sqrt(k) / (0.09 ** 0.25 * nominal["Turbulence Length Scale"]),
            rel=1e-12)


def test_criterion_05_active_direction_recovery():
    with criterion(5, "ridge direction recovery (cubic link and linear)", 1.0):
        X, f, w_true = ridge_50_7()
        asub = fit_active_direction(X, f)
        assert abs(float(np.dot(asub.w, w_true))) >= 0.95

        u = np.array([2.0, -1.0, 0.5, 0.25, 3.0, -0.75, 1.5])
        X_lin = sample_hypercube(7, 30, seed=4)
        f_lin = 1.0 + X_lin @ u
        asub_lin = fit_active_direction(X_lin, f_lin)
        cos = abs(float(np.dot(asub_lin.w, u / np.linalg.norm(u))))
        assert cos >= 1.0 - 1e-12


def test_criterion_06_c_matrix_oracle():
    with criterion(6, "gradient-oracle eigenvector agreement", 5.0):
        X, f, w_true = ridge_50_7()
        asub = fit_active_direction(X, f)

        def grad(x):
            t = float(np.dot(w_true, x))
            return (3.0 * t ** 2 + 1.0) * w_true

        est = estimate_c_gradient_oracle(grad, m=7, n_mc=10_000, seed=19)
        assert abs(float(np.dot(est.eigenvectors[:, 0], asub.w))) >= 0.95

        u = np.array([1.0, -2.0, 0.5, 0.0, 0.25, 1.25, -0.5])
        X_lin = sample_hypercube(7, 30, seed=6)
        asub_lin = fit_active_direction(X_lin, 2.0 + X_lin @ u)
        est_lin = estimate_c_gradient_oracle(lambda x: u, m=7, n_mc=100, seed=2)
        cos = abs(float(np.dot(est_lin.eigenvectors[:, 0], asub_lin.w)))
        assert cos >= 1.0 - 1e-10


def test_criterion_07_bootstrap():
    with criterion(7, "bootstrap exactness and replicate spread", 2.0):
        rng = np.random.default_rng(0)
        X_lin = rng.uniform(-1, 1, (20, 4))
        f_lin = 3.0 + X_lin @ np.array([1.0, -0.5, 2.0, 0.25])
        asub_lin = fit_active_direction(X_lin, f_lin)
        reps_lin = bootstrap_direction(X_lin, f_lin, N=100, seed=5)
        assert np.max(np.abs(reps_lin - asub_lin.w)) <= 1e-12

        X, f, _ = ridge_50_7()
        asub = fit_active_direction(X, f)
        reps = bootstrap_direction(X, f, N=100, seed=13)
        q25 = np.quantile(reps, 0.25, axis=0)
        q75 = np.quantile(reps, 0.75, axis=0)
        assert np.all(q25 <= asub.w) and np.all(asub.w <= q75)


def test_criterion_08_corner_range():
    with criterion(8, "corner enumeration and monotone sandwich", 5.0):
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=7)))
        rng = np.random.default_rng(101)
        for _ in range(1000):
            w = rng.standard_normal(7)
            w /= np.linalg.norm(w)
            _, x_max = corner_extrema(w)
            brute = corners[np.argmax(corners @ w)]
            np.testing.assert_array_equal(x_max, brute)

        X, f, w_true = ridge_50_7()

        def black_box(x):
            t = float(np.dot(w_true, x))
            return t ** 3 + t

        w = fit_active_direction(X, f).w
        est = estimate_range([black_box(x) for x in corner_extrema(w)], f)
        assert est.validated
        assert np.all(f >= est.f_min) and np.all(f <= est.f_max)


def test_criterion_09_safe_set_and_box():
    with criterion(9, "safe-set bisection, water-filling, monotonicity", 10.0):
        w = np.array([0.8, 0.36, 0.48])
        l1 = float(np.abs(w).sum())
        y = np.linspace(-l1, l1, 50)
        f = 2.0 + 0.5 * y + 0.1 * y ** 2
        rng = np.random.default_rng(17)
        f = f + 0.01 * (f.max() - f.min()) * rng.standard_normal(50)
        surr = fit_quadratic(y, f, y_domain=(-l1, l1))

        result = invert_safe_set(surr, w, threshold=2.5, space=unit_space(3))
        assert result.feasible == "partial"
        assert abs(surr.upper_confidence(result.y_max) - 2.5) <= 1e-9

        grid_rng = np.random.default_rng(7)
        for m in (1, 2, 3):
            wv = grid_rng.standard_normal(m)
            wv /= np.linalg.norm(wv)
            x_min = corner_extrema(wv)[0]
            lw = float(np.abs(wv).sum())
            y_max = float(grid_rng.uniform(-0.9 * lw, 0.9 * lw))
            sides = inscribed_box(wv, y_max)
            want = _grid_box_product(wv, y_max, x_min)
            assert abs(float(np.prod(sides)) - want) <= 1e-3

        prev = -np.inf
        for threshold in np.linspace(1.0, 4.0, 20):
            res = invert_safe_set(surr, w, threshold=float(threshold),
                                  space=unit_space(3))
            y_val = -np.inf if res.y_max is None else res.y_max
            assert y_val >= prev - 1e-12
            prev = y_val


def _grid_box_product(w, y_max, x_min, step=1e-3):
    absw = np.abs(np.asarray(w, dtype=float))
    b = float(y_max - np.dot(w, x_min))
    if b < 0:
        return 0.0
    grid = np.arange(0.0, 2.0 + step, step)
    if len(absw) == 1:
        return float(min(2.0, b / absw[0]))
    if len(absw) == 2:
        rem = b - absw[0] * grid
        s2 = np.clip(rem / absw[1], 0.0, 2.0)
        return float(np.where(rem >= 0, grid * s2, 0.0).max())
    s1, s2 = grid[:, None], grid[None, :]
    rem = b - absw[0] * s1 - absw[1] * s2
    s3 = np.clip(rem / absw[2], 0.0, 2.0)
    return float(np.where(rem >= 0, s1 * s2 * s3, 0.0).max())


def test_criterion_10_surrogate():
    with criterion(10, "quadratic surrogate exactness and noise floor", 1.0):
        y = np.linspace(-2, 2, 10)
        f = 2.0 + 0.5 * y + 0.1 * y ** 2
        surr = fit_quadratic(y, f)
        np.testing.assert_allclose(surr.coeffs, [2.0, 0.5, 0.1], atol=1e-10)
        assert surr.r_squared >= 1.0 - 1e-10
        for yq in (-1.5, 0.0, 2.0):
            assert surr.upper_confidence(yq) == pytest.approx(
                surr.predict(yq), abs=1e-9)

        y50 = np.linspace(-2, 2, 50)
        f50 = 2.0 + 0.5 * y50 + 0.1 * y50 ** 2
        noise_rng = np.random.default_rng(21)
        f50 = f50 + 0.01 * (f50.max() - f50.min()) * noise_rng.standard_normal(50)
        assert fit_quadratic(y50, f50).r_squared >= 0.99


def test_criterion_11_cdf():
    with criterion(11, "CDF median, monotonicity, reproducibility", 2.0):
        y = np.linspace(-1, 1, 20)
        surr = fit_quadratic(y, y, y_domain=(-1.0, 1.0))
        w = np.array([1.0])
        cdf = estimate_cdf(surr, w, n_samples=5000, seed=42)
        median = np.interp(0.0, cdf.grid, cdf.cdf)
        assert median == pytest.approx(0.5, abs=0.02)
        assert np.all(np.diff(cdf.cdf) >= -1e-15)
        again = estimate_cdf(surr, w, n_samples=5000, seed=42)
        assert np.array_equal(cdf.cdf, again.cdf)
        assert np.array_equal(cdf.grid, again.grid)


def test_criterion_12_end_to_end(tmp_path):
    with criterion(12, "sample/run/analyze pipeline is byte-identical", 30.0):
        outputs = []
        for tag in ("first", "second"):
            work = tmp_path / tag
            work.mkdir()
            campaign = work / "campaign.json"
            assert cli_main(["sample", "-M", "50", "--seed", "7",
                             "--out", str(campaign)]) == 0
            assert cli_main(["run", "--campaign", str(campaign),
                             "--evaluator", "ridge:cubic-monotone",
                             "--wtrue-seed", "3"]) == 0
            assert cli_main(["analyze", "--campaign", str(campaign),
                             "--out", str(work), "--seed", "13",
                             "--bootstrap", "100",
                             "--corners", "--evaluator", "ridge:cubic-monotone",
                             "--wtrue-seed", "3",
                             "--threshold", "2.0", "--cdf",
                             "--n-cdf", "5000"]) == 0
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted(work.iterdir()) if p.is_file()
            })
        assert outputs[0].keys() == outputs[1].keys()
        assert {"campaign.json", "results.json", "summary.csv", "range.json",
                "safeset.json", "cdf.csv"} <= set(outputs[0])
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs"

        results = json.loads(outputs[0]["results.json"].decode())
        assert results["M"] == 50
        assert len(results["bootstrap"]["replicates"]) == 100
