import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asuq import (
    DataError,
    DegeneracyError,
    bootstrap_direction,
    bootstrap_quantiles,
    estimate_c_gradient_oracle,
    fit_active_direction,
    ridge_direction,
    sensitivity_ranking,
    summary_data,
)
from asuq.active_subspace import (
    _BOOTSTRAP_BLOCK,
    _CERTIFY_BATCH,
    _GRAM_COND_MAX,
    _QUANTILES,
    _apply_sign_convention,
    _solve_direction,
    _well_conditioned,
)
from asuq.param_space import sample_hypercube

W_TABLE_NAMES = [
    "Angle of Attack",
    "Turbulence Intensity",
    "Turbulence Length Scale",
    "Stagnation Pressure",
    "Stagnation Enthalpy",
    "Cowl Transition Location",
    "Ramp Transition Location",
]


def linear_fixture(seed=0, M=20, m=2, coeffs=(5.0, 2.0, 1.0)):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (M, m))
    f = coeffs[0] + X @ np.array(coeffs[1:])
    return X, f


@pytest.fixture
def ridge_fixture():
    w_true = ridge_direction(7, seed=3)
    X = sample_hypercube(7, 50, seed=7)
    y = X @ w_true
    f = y ** 3 + y
    return X, f, w_true


class TestFit:
    def test_exact_linear_interpolation(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
        f = 5.0 + 2.0 * X[:, 0] + 1.0 * X[:, 1]
        asub = fit_active_direction(X, f)
        np.testing.assert_allclose(asub.u_hat, [5.0, 2.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(asub.w, np.array([2.0, 1.0]) / np.sqrt(5),
                                   atol=1e-12)
        assert abs(np.linalg.norm(asub.w) - 1.0) <= 1e-12

    def test_constant_response_raises(self):
        X, _ = linear_fixture()
        with pytest.raises(DegeneracyError, match="constant"):
            fit_active_direction(X, np.full(len(X), 3.3))

    def test_ridge_recovery_cosine(self, ridge_fixture):
        X, f, w_true = ridge_fixture
        asub = fit_active_direction(X, f)
        assert abs(np.dot(asub.w, w_true)) >= 0.95

    def test_too_few_samples(self):
        X = np.zeros((3, 5))
        with pytest.raises(DegeneracyError, match="m"):
            fit_active_direction(X, np.arange(3.0))

    def test_rank_deficient_design_reports_rank(self):
        # all points on a line in 2D: design rank 2 < 3
        t = np.linspace(-1, 1, 6)
        X = np.column_stack([t, 2 * t])
        with pytest.raises(DegeneracyError, match="rank 2"):
            fit_active_direction(X, t)

    def test_normal_equations_residual(self, ridge_fixture):
        X, f, _ = ridge_fixture
        asub = fit_active_direction(X, f)
        A = np.column_stack([np.ones(len(f)), X])
        lhs = np.linalg.norm(A.T @ (A @ asub.u_hat - f))
        assert lhs <= 1e-8 * np.linalg.norm(A.T @ f)

    def test_cond_estimate_is_the_design_condition_number(self):
        X = np.random.default_rng(4).uniform(-1, 1, (20, 7))
        f = X @ np.arange(1.0, 8.0) + 0.1 * X[:, 0] ** 2
        sv = np.linalg.svd(np.column_stack([np.ones(20), X]), compute_uv=False)
        assert fit_active_direction(X, f).cond_estimate == pytest.approx(
            sv[0] / sv[-1], rel=1e-12)

    def test_sign_convention_largest_component_positive(self):
        X, f = linear_fixture(coeffs=(0.0, -3.0, 1.0))
        asub = fit_active_direction(X, f)
        i = np.argmax(np.abs(asub.w))
        assert asub.w[i] > 0

    def test_shift_and_scale_invariance(self, ridge_fixture):
        X, f, _ = ridge_fixture
        w0 = fit_active_direction(X, f).w
        w1 = fit_active_direction(X, 2.5 * f + 7.0).w
        np.testing.assert_allclose(w0, w1, atol=1e-12)

    def test_permutation_invariance(self, ridge_fixture):
        X, f, _ = ridge_fixture
        perm = np.random.default_rng(5).permutation(len(f))
        w0 = fit_active_direction(X, f).w
        w1 = fit_active_direction(X[perm], f[perm]).w
        np.testing.assert_allclose(w0, w1, atol=1e-12)

    def test_duplicate_row_leaves_exact_linear_fit_unchanged(self):
        X, f = linear_fixture()
        w0 = fit_active_direction(X, f).w
        X2 = np.vstack([X, X[3]])
        f2 = np.append(f, f[3])
        w1 = fit_active_direction(X2, f2).w
        np.testing.assert_allclose(w0, w1, atol=1e-12)


def row_sign_convention(w):
    """Reference: the 1-D rule the stack form replaced."""
    if w[int(np.argmax(np.abs(w)))] < 0:
        return -w
    return w


# Few distinct magnitudes, both zeros included, so rows tie in |w_i| and
# some are all zero.
tie_prone = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, -2.0]),
                      st.floats(-1e3, 1e3))
stacks = st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(tie_prone, min_size=m, max_size=m), min_size=1, max_size=8,
)).map(np.array)


class TestSignConvention:
    @settings(max_examples=200, deadline=None)
    @given(W=stacks)
    @example(W=np.array([[-0.0, 0.0, -0.0], [0.0, -2.0, 2.0], [-0.5, 0.5, 0.0]]))
    def test_stack_equals_the_row_rule(self, W):
        got = _apply_sign_convention(W)
        assert got.shape == W.shape
        assert got.tobytes() == np.array([row_sign_convention(r) for r in W]).tobytes()
        for row in W:
            one = _apply_sign_convention(row)
            assert one.shape == row.shape
            assert one.tobytes() == row_sign_convention(row).tobytes()


def linear_model_limit(w, a1, a3):
    """The large-M limit of the linear fit's direction for f = a1 t + a3 t^3,
    t = w . x, x uniform on [-1, 1]^m and |w| = 1: g = 3 E[x f], with
    E[x_i t] = w_i / 3 and E[x_i t^3] = w_i^3 / 5 + w_i (1 - w_i^2) / 3.
    Returned as a unit vector with the package's sign convention."""
    g = a1 * w + 3 * a3 * (w ** 3 / 5 + w * (1 - w ** 2) / 3)
    g /= np.linalg.norm(g)
    return g if g[np.argmax(np.abs(g))] > 0 else -g


def degrees(u, v):
    return np.degrees(np.arccos(np.clip(u @ v, -1.0, 1.0)))


class TestLinearModelLimit:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_large_sample_fit_reaches_the_limit_not_the_ridge(self, seed):
        # For f = t^3 the limit g lies 8.84 degrees from w; fits on 2e5
        # points sat 0.05-0.15 degrees from g, so 1 degree tells them apart.
        w = np.array([0.9, 0.3, 0.3, 0.1]) / np.linalg.norm([0.9, 0.3, 0.3, 0.1])
        g = linear_model_limit(w, 0.0, 1.0)
        assert degrees(g, w) == pytest.approx(8.839, abs=1e-3)
        X = sample_hypercube(4, 200_000, seed)
        assert degrees(fit_active_direction(X, (X @ w) ** 3).w, g) < 1.0

    def test_bootstrap_intervals_cover_the_limit(self):
        # The bootstrap gauges the fit's spread around its own limit g, not
        # its distance from w. On 100 independent campaigns each nominal
        # 95 % interval covers g a Binomial(100, p) number of times; with
        # p = 0.95, P(count <= 86) = 4.6e-4. g carries the replicates' sign
        # convention; the opposite sign would be covered about 3 % of the time.
        w = ridge_direction(7, seed=3)
        g = linear_model_limit(w, 1.0, 1.0)
        seeds = range(1000, 1100)
        component_hits = np.zeros(7, dtype=int)
        cone_hits = 0
        for seed in seeds:
            X = sample_hypercube(7, 50, seed)
            t = X @ w
            f = t + t ** 3
            asub = fit_active_direction(X, f)
            reps = bootstrap_direction(X, f, N=200, seed=seed, asub=asub)
            q = bootstrap_quantiles(reps)
            component_hits += (np.array(q["q0.025"]) <= g) & (g <= np.array(q["q0.975"]))
            cone = np.quantile(degrees(reps, asub.w), 0.95)
            cone_hits += degrees(asub.w, g) <= cone
        print(f"95 % intervals cover the limit on {component_hits.tolist()} "
              f"and the cone on {cone_hits} of {len(seeds)} campaigns")
        assert component_hits.min() >= 87
        assert cone_hits >= 87


def first_draw(M, seed, k):
    """Replicate k's first resample, drawn as bootstrap_direction draws it."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    return rng.integers(0, M, size=M)


def loop_bootstrap(X, f, N, seed):
    """Reference: one least-squares refit per replicate, redrawing resamples
    of the replicate's stream until one has full rank (100 tries)."""
    M = len(f)
    w = fit_active_direction(X, f).w
    replicates = np.empty((N, X.shape[1]))
    for k in range(N):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        for _ in range(100):
            idx = rng.integers(0, M, size=M)
            try:
                w_k = _solve_direction(X[idx], f[idx]).w
            except DegeneracyError:
                continue
            replicates[k] = -w_k if np.dot(w_k, w) < 0 else w_k
            break
        else:
            raise DegeneracyError(f"bootstrap replicate {k}: 100 resamples")
    return replicates


def noisy_ridge(m, M, noise, seed):
    rng = np.random.default_rng(seed)
    w_true = ridge_direction(m, seed=seed)
    X = sample_hypercube(m, M, seed=seed + 1)
    y = X @ w_true
    return X, y + y ** 3 + noise * rng.standard_normal(M), w_true


def angles(V, w):
    return np.arccos(np.clip(np.abs(V @ w), 0.0, 1.0))


class TestBootstrap:
    def test_noiseless_linear_replicates_identical(self):
        X, f = linear_fixture(M=12)
        asub = fit_active_direction(X, f)
        reps = bootstrap_direction(X, f, N=50, seed=2)
        np.testing.assert_allclose(reps, np.tile(asub.w, (50, 1)), atol=1e-12)
        assert np.all(reps.std(axis=0) <= 1e-12)

    def test_support_contains_point_estimate(self, ridge_fixture):
        X, f, _ = ridge_fixture
        asub = fit_active_direction(X, f)
        reps = bootstrap_direction(X, f, N=100, seed=4)
        lo = reps.min(axis=0)
        hi = reps.max(axis=0)
        assert np.all(lo <= asub.w + 1e-12)
        assert np.all(asub.w - 1e-12 <= hi)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_retry_limit_raises(self, seed):
        # With M = m + 1 points nearly every resample repeats a point, so
        # each replicate runs out of retries on a rank-deficient resample.
        X = sample_hypercube(10, 11, seed=0)
        f = X @ np.arange(1.0, 11.0)
        with pytest.raises(DegeneracyError, match="rank-deficient"):
            bootstrap_direction(X, f, N=5, seed=seed)

    def test_deterministic_given_seed(self, ridge_fixture):
        X, f, _ = ridge_fixture
        a = bootstrap_direction(X, f, N=30, seed=9)
        b = bootstrap_direction(X, f, N=30, seed=9)
        assert np.array_equal(a, b)

    def test_replicates_unit_norm_and_aligned(self, ridge_fixture):
        X, f, _ = ridge_fixture
        asub = fit_active_direction(X, f)
        reps = bootstrap_direction(X, f, N=40, seed=1)
        norms = np.linalg.norm(reps, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert np.all(reps @ asub.w >= 0)

    def test_replicate_orthogonal_to_w_takes_the_sign_convention(self):
        # f = -x2 on a repeated 2^2 factorial: most replicates come out as
        # exactly (0, -1), orthogonal to the given w = (1, 0), so no
        # alignment to w fixes their sign and the convention flips them.
        X = np.array([[a, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)] * 3)
        asub = _as_subspace(np.array([1.0, 0.0]))
        reps = bootstrap_direction(X, -X[:, 1], N=20, seed=0, asub=asub)
        tied = reps[reps @ asub.w == 0]
        assert len(tied) > 0
        np.testing.assert_array_equal(np.abs(tied), [[0.0, 1.0]] * len(tied))
        assert np.all(tied[:, 1] == 1.0)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 8), extra=st.integers(1, 30),
           log_noise=st.floats(-8.0, 0.5), seed=st.integers(0, 2**20))
    def test_matches_the_least_squares_loop(self, m, extra, log_noise, seed):
        X, f, _ = noisy_ridge(m, m + 1 + extra, 10.0 ** log_noise, seed)
        try:
            ref = loop_bootstrap(X, f, 20, seed)
        except DegeneracyError as exc:
            # The first replicate out of retries raises in both.
            with pytest.raises(DegeneracyError, match=str(exc)):
                bootstrap_direction(X, f, N=20, seed=seed)
            return
        got = bootstrap_direction(X, f, N=20, seed=seed)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 12), data=st.data(), seed=st.integers(0, 2**20))
    def test_short_designs_equal_the_loop(self, m, data, seed):
        # With M from m + 2 to 2m many resamples hold at most m distinct
        # rows. The refit skips them before any solve, where the loop's
        # least squares rejects them after one; the replicates, and the
        # replicate that runs out of retries, stay the same.
        M = data.draw(st.integers(m + 2, 2 * m), label="M")
        X, f, _ = noisy_ridge(m, M, 0.1, seed)
        try:
            ref = loop_bootstrap(X, f, 20, seed)
        except DegeneracyError as exc:
            with pytest.raises(DegeneracyError, match=str(exc)):
                bootstrap_direction(X, f, N=20, seed=seed)
            return
        got = bootstrap_direction(X, f, N=20, seed=seed)
        short = [k for k in range(20)
                 if len(np.unique(X[first_draw(M, seed, k)], axis=0)) <= m]
        assert np.array_equal(got[short], ref[short])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_degenerate_resamples_equal_the_loop_bit_for_bit(self, copies):
        # M = m + 2 points, each present `copies` times: many first draws
        # hold fewer than m + 1 distinct points and must take the
        # per-replicate path; with copies=2 some of them have m + 1
        # distinct rows but a singular Gram matrix.
        m, N, seed = 4, 200, 3
        X, f, _ = noisy_ridge(m, m + 2, 0.1, 11)
        X, f = np.repeat(X, copies, axis=0), np.repeat(f, copies)
        ref = loop_bootstrap(X, f, N, seed)
        got = bootstrap_direction(X, f, N=N, seed=seed)
        short = [k for k in range(N)
                 if len(np.unique(X[first_draw(len(f), seed, k)], axis=0)) <= m]
        assert 0 < len(short) < N
        assert np.array_equal(got[short], ref[short])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_ill_conditioned_resamples_equal_the_loop(self):
        # The third point lies 1e-3 off the line through the first two, so
        # resamples of those three alone have cond(G) near 1e7, where the
        # normal equations would miss the loop by about 2e-12.
        X = np.array([[-0.8, -0.6], [0.7, 0.5], [-0.05, -0.049], [0.9, -0.9]])
        f = X @ np.array([1.0, 0.5]) + np.array([0.1, -0.2, 0.05, 0.3])
        got = bootstrap_direction(X, f, N=200, seed=1)
        np.testing.assert_allclose(got, loop_bootstrap(X, f, 200, 1),
                                   rtol=0, atol=1e-12)

    def test_near_constant_response_equals_the_loop_bit_for_bit(self):
        # A gradient about 200 times the constant-response floor is mostly
        # rounding noise; such replicates take the per-replicate path.
        X = sample_hypercube(3, 30, seed=4)
        f = 3.0 + 3e-12 * (X @ np.array([1.0, -2.0, 0.5]))
        got = bootstrap_direction(X, f, N=40, seed=6)
        assert np.array_equal(got, loop_bootstrap(X, f, 40, 6))

    @pytest.mark.parametrize("seed", range(5))
    def test_large_mean_response_leaves_replicates_unchanged(self, seed):
        X, f, _ = noisy_ridge(7, 50, 0.2, seed)
        a = bootstrap_direction(X, f, N=100, seed=seed)
        b = bootstrap_direction(X, f + 1e4, N=100, seed=seed)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_given_direction_is_used_as_is(self, ridge_fixture):
        X, f, _ = ridge_fixture
        asub = fit_active_direction(X, f)
        a = bootstrap_direction(X, f, N=30, seed=9)
        b = bootstrap_direction(X, f, N=30, seed=9, asub=asub)
        assert np.array_equal(a, b)
        with pytest.raises(DataError, match="components"):
            bootstrap_direction(X[:, :6], f, N=3, asub=asub)

    def test_calibrated_on_noisy_ridges(self):
        # The angle from w to w_true should fall within the bootstrap's
        # 95 % angle quantile on about 95 % of campaigns; only a loose
        # floor is asserted.
        hits, seeds = 0, range(100)
        for seed in seeds:
            X, f, w_true = noisy_ridge(7, 50, 0.2, seed)
            asub = fit_active_direction(X, f)
            reps = bootstrap_direction(X, f, N=200, seed=seed, asub=asub)
            q95 = np.quantile(angles(reps, asub.w), 0.95)
            hits += angles(asub.w, w_true) <= q95
        rate = hits / len(seeds)
        print(f"bootstrap 95 % angle quantile covers w_true on {rate:.2f} "
              f"of {len(seeds)} noisy ridge campaigns")
        assert rate >= 0.8

    @pytest.mark.parametrize("N, blocks", [(40, [40]), (1000, [64] * 15 + [40])])
    def test_blocks_share_one_gram_buffer(self, N, blocks):
        # Every block's Gram stack is formed in one buffer of
        # min(N, _BOOTSTRAP_BLOCK) rows; the replicates equal those of
        # blocks formed by counts @ outer in fresh arrays.
        X, f, _ = noisy_ridge(7, 50, 0.1, 2)
        matmul = np.matmul
        outs = []

        def recording(a, b, out):
            outs.append((len(out), out.base.shape, out.ctypes.data))
            return matmul(a, b, out=out)

        with mock.patch.object(np, "matmul", recording):
            got = bootstrap_direction(X, f, N=N, seed=4)
        with mock.patch.object(np, "matmul", lambda a, b, out: a @ b):
            ref = bootstrap_direction(X, f, N=N, seed=4)
        assert [rows for rows, _, _ in outs] == blocks
        assert {(base, data) for _, base, data in outs} == {
            ((min(N, _BOOTSTRAP_BLOCK), 8 * 8), outs[0][2])}
        assert np.array_equal(got, ref)

    def test_holds_one_gram_stack(self):
        # m = 50, M = 200, as the analysis-heavy benchmark: beyond the
        # (M, p^2) row outer products the bootstrap holds one block's
        # (64, p, p) Gram stack, plus sub-batches and solves well below it.
        X, f, _ = noisy_ridge(50, 200, 0.1, 5)
        asub = fit_active_direction(X, f)
        np.random.default_rng(0).integers(0, 200, size=200)
        p = 51
        outer_bytes = 200 * p * p * 8
        stack_bytes = _BOOTSTRAP_BLOCK * p * p * 8
        tracemalloc.start()
        try:
            bootstrap_direction(X, f, N=128, seed=3, asub=asub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= outer_bytes + 1.5 * stack_bytes + 2 ** 20

    def test_quantiles_shape(self, ridge_fixture):
        X, f, _ = ridge_fixture
        reps = bootstrap_direction(X, f, N=25, seed=0)
        q = bootstrap_quantiles(reps)
        assert len(q["q0.5"]) == 7

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(1, 1100), m=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1), repeated=st.booleans())
    @example(N=1, m=60, seed=0, repeated=False)
    @example(N=1001, m=60, seed=1, repeated=True)
    def test_quantiles_equal_numpys_bit_for_bit(self, N, m, seed, repeated):
        # np.quantile is the reference; bootstrap_quantiles computes the same
        # "linear" quantiles without it. Magnitudes span 1e-300..1e300,
        # and resampled rows repeat values within each column.
        rng = np.random.default_rng(seed)
        R = (rng.choice([-1.0, 1.0], (N, m))
             * 10.0 ** rng.uniform(-300.0, 300.0, (N, m)))
        if repeated:
            R = R[rng.integers(0, N, N)]
        got = bootstrap_quantiles(R)
        assert list(got) == [f"q{q}" for q in _QUANTILES]
        for q in _QUANTILES:
            ref = np.quantile(R, q, axis=0)
            assert np.array(got[f"q{q}"]).tobytes() == ref.tobytes()


def eigenvalue_verdict(gram):
    """The test the Cholesky certificate stands in for."""
    lam = np.linalg.eigvalsh(gram)
    return lam[:, -1] <= _GRAM_COND_MAX * lam[:, 0]


def certified(g):
    """Whether the certificate alone proves one Gram matrix."""
    t = 2 / _GRAM_COND_MAX * np.linalg.norm(g)
    try:
        np.linalg.cholesky(g - t * np.eye(len(g)))
    except np.linalg.LinAlgError:
        return False
    return True


def spd_stack(p, conds, seed):
    """Symmetric matrices with eigenvalues s * geomspace(1, cond, p)."""
    rng = np.random.default_rng(seed)
    stack = []
    for cond in conds:
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        G = (Q * (10.0 ** rng.uniform(-3, 3) * np.geomspace(1, cond, p))) @ Q.T
        stack.append((G + G.T) / 2)
    return np.array(stack)


def counting(name):
    """Count the calls of np.linalg.<name> inside the with block."""
    return mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name))


class TestGramCertificate:
    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 12), seed=st.integers(0, 2**20),
           log_conds=st.lists(st.one_of(st.floats(0.0, 3.5),
                                        st.floats(4 - 1e-6, 4 + 1e-6)),
                              min_size=1, max_size=24))
    def test_verdict_equals_the_eigenvalue_test(self, p, seed, log_conds):
        # Only candidates can pass; stacks of up to 24 span three
        # sub-batches of the certificate.
        stack = spd_stack(p, 10.0 ** np.array(log_conds), seed)
        everyone = np.ones(len(stack), dtype=bool)
        some = np.random.default_rng(seed).random(len(stack)) < 0.7
        with counting("eigvalsh") as eigvalsh:
            verdict = _well_conditioned(stack, everyone)
        expected = eigenvalue_verdict(stack)
        assert np.array_equal(verdict, expected)
        assert np.array_equal(_well_conditioned(stack, some), expected & some)
        for g, e in zip(stack, expected):
            assert _well_conditioned(g[None], everyone[:1])[0] == e
        # ||G||_F <= sqrt(12) lam_max, so cond <= 100 is always proven.
        if max(log_conds) <= 2:
            assert eigvalsh.call_count == 0

    @pytest.mark.parametrize("cond, passes", [(8e3, True), (1e6, False)])
    def test_unproven_matrix_in_the_third_sub_batch(self, cond, passes):
        # Of 20 matrices only matrix 17 escapes the certificate; it sits in
        # the third sub-batch, whose four matrices alone go to eigvalsh.
        p, bad = 6, 17
        conds = np.full(20, 10.0)
        conds[bad] = cond
        stack = spd_stack(p, conds, seed=8)
        assert bad // _CERTIFY_BATCH == 2
        everyone = np.ones(len(stack), dtype=bool)
        with counting("eigvalsh") as eigvalsh, \
                counting("cholesky") as chol:
            verdict = _well_conditioned(stack, everyone)
        expected = eigenvalue_verdict(stack)
        assert expected.tolist() == [True] * bad + [passes] + [True] * 2
        assert np.array_equal(verdict, expected)
        assert [_well_conditioned(g[None], everyone[:1])[0]
                for g in stack] == expected.tolist()
        assert chol.call_count == 3
        assert eigvalsh.call_count == 1
        assert len(eigvalsh.call_args.args[0]) == len(stack) - 2 * _CERTIFY_BATCH

    def test_mixed_stack_tests_only_the_unproven_on_eigenvalues(self):
        p = 6
        A = np.random.default_rng(4).standard_normal((4, p))
        stack = np.concatenate([spd_stack(p, [10.0, 8e3, 1e6], seed=2),
                                (A.T @ A)[None]])  # rank 4: singular
        assert [certified(g) for g in stack] == [True, False, False, False]
        # The failed sub-batch goes to eigvalsh whole; a non-candidate goes
        # nowhere and fails.
        for candidates, passed in (
                ([True] * 4, [True, True, False, False]),
                ([False, True, True, False], [False, True, False, False])):
            with counting("eigvalsh") as eigvalsh:
                ok = _well_conditioned(stack, np.array(candidates))
            assert ok.tolist() == passed
            assert eigvalsh.call_count == 1
            assert len(eigvalsh.call_args.args[0]) == sum(candidates)

    def test_mixed_block_equals_the_loop(self):
        # One block of 64 replicates at m = 4, M = 9: most Gram matrices are
        # proven, some are only passed by the eigenvalue test, some fail it
        # and some come from fewer than m + 1 distinct points.
        m, M, N, seed = 4, 9, 64, 3
        X, f, _ = noisy_ridge(m, M, 0.1, 11)
        A = np.column_stack([np.ones(M), X])
        grams = np.array([(A.T * np.bincount(first_draw(M, seed, k),
                                              minlength=M)) @ A
                          for k in range(N)])
        passed = eigenvalue_verdict(grams)
        proven = np.array([certified(g) for g in grams])
        distinct = [len(np.unique(first_draw(M, seed, k))) for k in range(N)]
        assert proven.sum() > 0 and (passed & ~proven).sum() > 0
        assert (~passed).sum() > 0 and min(distinct) <= m
        # One factorization per sub-batch of candidates, and one eigvalsh
        # call per sub-batch it does not prove.
        tried = np.flatnonzero(np.array(distinct) > m)
        subs = [tried[i:i + _CERTIFY_BATCH]
                for i in range(0, len(tried), _CERTIFY_BATCH)]
        unproven = sum(not proven[sub].all() for sub in subs)
        assert 0 < unproven < len(subs)
        with counting("eigvalsh") as eigvalsh, counting("cholesky") as chol:
            got = bootstrap_direction(X, f, N=N, seed=seed)
        assert chol.call_count == len(subs)
        assert eigvalsh.call_count == unproven
        ref = loop_bootstrap(X, f, N, seed)
        assert np.array_equal(got[~passed], ref[~passed])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_wide_campaign_needs_no_eigensolve(self):
        # m = 50, M = 200, as the analysis-heavy benchmark: every sub-batch
        # of candidates is proven by one factorization, and the replicates
        # are those of the eigenvalue route bit for bit, because the solve
        # that produces them is the same.
        X, f, _ = noisy_ridge(50, 200, 0.1, 5)
        asub = fit_active_direction(X, f)
        with counting("eigvalsh") as eigvalsh, counting("cholesky") as chol:
            got = bootstrap_direction(X, f, N=128, seed=3, asub=asub)
        assert eigvalsh.call_count == 0
        assert chol.call_count == 128 // _CERTIFY_BATCH == 16

        def no_certificate(a):
            raise np.linalg.LinAlgError("certificate switched off")

        with mock.patch.object(np.linalg, "cholesky", no_certificate), \
                counting("eigvalsh") as eigvalsh:
            ref = bootstrap_direction(X, f, N=128, seed=3, asub=asub)
        assert eigvalsh.call_count == 128 // _CERTIFY_BATCH
        assert np.array_equal(got, ref)

    def test_short_campaign_eigensolves_only_candidates(self):
        # m = 7, M = 11, the paper's M of about 1.5 m: about half the first
        # draws hold at most m distinct rows. Their Gram matrices are
        # singular and fail without an eigensolve; every matrix eigvalsh
        # sees is a candidate's.
        m, M, N, seed = 7, 11, 200, 1
        X, f, _ = noisy_ridge(m, M, 0.1, 3)
        A = np.column_stack([np.ones(M), X])
        draws = [first_draw(M, seed, k) for k in range(N)]
        grams = np.array([(A.T * np.bincount(d, minlength=M)) @ A
                          for d in draws])
        candidate = np.array([len(np.unique(d)) > m for d in draws])
        assert N // 4 < (~candidate).sum() < 3 * N // 4
        with counting("eigvalsh") as eigvalsh:
            got = bootstrap_direction(X, f, N=N, seed=seed)
        seen = [g for call in eigvalsh.call_args_list for g in call.args[0]]
        assert seen
        for g in seen:
            gap = np.abs(grams - g).max(axis=(1, 2))
            k = int(np.argmin(gap))
            assert gap[k] <= 1e-12 * np.abs(g).max() and candidate[k]
        np.testing.assert_allclose(got, loop_bootstrap(X, f, N, seed),
                                   rtol=0, atol=1e-12)


class TestSensitivityRanking:
    def test_low_fuel_pressure_direction(self):
        w = np.array([0.6506, 0.5565, -0.0002, 0.3685, -0.3566, -0.0196, 0.0607])
        asub = _as_subspace(w)
        names = [n for n, _, _ in sensitivity_ranking(asub, W_TABLE_NAMES)]
        assert names == [
            "Angle of Attack",
            "Turbulence Intensity",
            "Stagnation Pressure",
            "Stagnation Enthalpy",
            "Ramp Transition Location",
            "Cowl Transition Location",
            "Turbulence Length Scale",
        ]

    def test_high_fuel_pressure_direction(self):
        w = np.array([0.7066, 0.5008, 0.0289, 0.2051, -0.4490, -0.0591, 0.0432])
        asub = _as_subspace(w)
        ranked = sensitivity_ranking(asub, W_TABLE_NAMES)
        assert ranked[0][0] == "Angle of Attack"
        assert ranked[1][0] == "Turbulence Intensity"
        assert ranked[2][0] == "Stagnation Enthalpy"

    def test_basis_vector_dominates_with_ties(self):
        asub = _as_subspace(np.array([0.0, 0.0, 1.0, 0.0]))
        ranked = sensitivity_ranking(asub)
        assert ranked[0] == ("x3", 1.0, 1.0)
        assert [r[0] for r in ranked[1:]] == ["x1", "x2", "x4"]

    def test_name_count_mismatch(self):
        asub = _as_subspace(np.array([1.0, 0.0]))
        with pytest.raises(DataError):
            sensitivity_ranking(asub, ["only-one"])


def _as_subspace(w):
    from asuq.active_subspace import ActiveSubspace

    w = w / np.linalg.norm(w)
    return ActiveSubspace(w=w, u_hat=np.concatenate([[0.0], w]),
                          residual_norm=0.0, cond_estimate=1.0)


class TestSummaryData:
    def test_exact_linear_lies_on_line(self):
        X, f = linear_fixture(M=30)
        asub = fit_active_direction(X, f)
        sd = summary_data(X, f, asub)
        coeffs = np.polyfit(sd.y, f, 1)
        resid = f - np.polyval(coeffs, sd.y)
        assert np.max(np.abs(resid)) <= 1e-12

    def test_monotone_ridge_exact_direction_is_concordant(self):
        w = ridge_direction(4, seed=6)
        X = sample_hypercube(4, 40, seed=2)
        y = X @ w
        f = y ** 3 + y
        sd = summary_data(X, f, _as_subspace(w))
        assert sd.discordant_pairs == 0

    def test_decreasing_ridge_also_concordant(self):
        w = ridge_direction(3, seed=1)
        X = sample_hypercube(3, 25, seed=3)
        f = -(X @ w)
        sd = summary_data(X, f, _as_subspace(w))
        assert sd.discordant_pairs == 0

    def test_projection_bounded_by_l1_norm(self, ridge_fixture):
        X, f, _ = ridge_fixture
        asub = fit_active_direction(X, f)
        sd = summary_data(X, f, asub)
        l1 = np.abs(asub.w).sum()
        assert np.all(np.abs(sd.y) <= l1 + 1e-12)


class TestCMatrixOracle:
    def test_linear_gradient_rank_one(self):
        u = np.array([3.0, 0.0, -4.0])
        est = estimate_c_gradient_oracle(lambda x: u, m=3, n_mc=100, seed=0)
        np.testing.assert_allclose(est.C, np.outer(u, u), atol=1e-10)
        assert est.eigenvalues[0] == pytest.approx(25.0, abs=1e-8)
        np.testing.assert_allclose(est.eigenvalues[1:], 0.0, atol=1e-10)
        cos = abs(np.dot(est.eigenvectors[:, 0], u / 5.0))
        assert cos >= 1.0 - 1e-12

    def test_ridge_gradient_aligns_with_direction(self):
        w_true = ridge_direction(5, seed=8)

        def grad(x):
            t = float(np.dot(w_true, x))
            return (3 * t ** 2 + 1) * w_true

        est = estimate_c_gradient_oracle(grad, m=5, n_mc=500, seed=1)
        cos = abs(np.dot(est.eigenvectors[:, 0], w_true))
        assert cos >= 1.0 - 1e-10

    def test_cross_check_against_least_squares(self, ridge_fixture):
        X, f, w_true = ridge_fixture
        asub = fit_active_direction(X, f)

        def grad(x):
            t = float(np.dot(w_true, x))
            return (3 * t ** 2 + 1) * w_true

        est = estimate_c_gradient_oracle(grad, m=7, n_mc=10_000, seed=12)
        cos = abs(np.dot(est.eigenvectors[:, 0], asub.w))
        assert cos >= 0.95

    def test_exact_linear_agreement_between_routes(self):
        u = np.array([1.0, -2.0, 0.5, 0.25])
        X, f = linear_fixture(M=25, m=4, coeffs=(3.0, *u))
        asub = fit_active_direction(X, f)
        est = estimate_c_gradient_oracle(lambda x: u, m=4, n_mc=50, seed=3)
        cos = abs(np.dot(est.eigenvectors[:, 0], asub.w))
        assert cos >= 1.0 - 1e-10

    def test_symmetry_and_orthonormality(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4))

        def grad(x):
            return A @ x

        est = estimate_c_gradient_oracle(grad, m=4, n_mc=200, seed=5)
        assert np.array_equal(est.C, est.C.T)
        assert np.all(est.eigenvalues >= -1e-10)
        W = est.eigenvectors
        np.testing.assert_allclose(W.T @ W, np.eye(4), atol=1e-10)

    def test_matches_the_sum_of_outer_products(self):
        # Reference: the per-point accumulation that one product replaced;
        # only the summation order differs.
        rng = np.random.default_rng(11)
        A = rng.normal(size=(5, 5))

        def grad(x):
            return A @ x + x ** 2

        est = estimate_c_gradient_oracle(grad, m=5, n_mc=300, seed=4)
        C = np.zeros((5, 5))
        for x in sample_hypercube(5, 300, seed=4):
            C += np.outer(grad(x), grad(x))
        C /= 300
        np.testing.assert_allclose(est.C, (C + C.T) / 2.0, rtol=1e-12,
                                   atol=1e-12 * np.abs(C).max())

    def test_wrong_gradient_shape_raises(self):
        with pytest.raises(DataError, match=r"gradient shape \(3,\) != \(2,\)"):
            estimate_c_gradient_oracle(lambda x: np.zeros(3), m=2, n_mc=10,
                                       seed=0)

    def test_non_finite_gradient_raises(self):
        from asuq import EvaluatorError

        def grad(x):
            return np.array([np.inf, 0.0])

        with pytest.raises(EvaluatorError):
            estimate_c_gradient_oracle(grad, m=2, n_mc=10, seed=0)


@pytest.mark.parametrize("call, message", [
    (lambda: fit_active_direction(np.zeros((3, 2)), [1.0, 2.0]),
     "3 sample points but 2 responses"),
    (lambda: fit_active_direction([[0.0, np.nan]] * 3, [1.0, 2.0, 3.0]),
     "non-finite values in the sample set"),
    (lambda: bootstrap_direction(*linear_fixture(), N=0),
     "replicate count must be >= 1"),
    (lambda: summary_data(*linear_fixture(), _as_subspace(np.ones(3))),
     "direction has 3 components, samples have 2"),
    (lambda: estimate_c_gradient_oracle(lambda x: x, 2, n_mc=0, seed=0),
     "n_mc must be >= 1"),
], ids=["length", "non-finite", "replicates", "direction", "n_mc"])
def test_input_check_raises(call, message):
    with pytest.raises(DataError, match=message):
        call()
