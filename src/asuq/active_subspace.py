"""One-dimensional active-subspace estimation from O(m) samples.

The active direction w is the normalized gradient of a global
least-squares linear fit f(x) ~ u0 + u' . x over the normalized
hypercube. A bootstrap over row resamples gauges the variability of w,
the summary data (w . x_j, f_j) supports judging whether f is close to
a univariate function of the active variable, and a Monte Carlo
gradient-outer-product estimate provides an independent oracle for
differentiable test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, DegeneracyError, EvaluatorError
from .param_space import sample_hypercube

__all__ = [
    "LinearFit",
    "ActiveSubspace",
    "BootstrapEnsemble",
    "SummaryData",
    "CMatrixEstimate",
    "fit_active_direction",
    "bootstrap_direction",
    "sensitivity_ranking",
    "summary_data",
    "estimate_c_gradient_oracle",
]

# Singular values below RANK_RTOL * sigma_max count as zero; sample sizes
# sit barely above m+1 (down to 2m), so rank diagnostics matter.
RANK_RTOL = 1e-10

# The bootstrap quantiles results.json reports (pinned by the golden hashes).
_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares solution of [1 | X] u = f with diagnostics."""

    u_hat: np.ndarray
    residual_norm: float
    cond_estimate: float


@dataclass(frozen=True)
class ActiveSubspace:
    """Unit active direction w with the fit it came from."""

    w: np.ndarray
    fit: LinearFit
    M: int


@dataclass(frozen=True)
class BootstrapEnsemble:
    """Replicated directions from row resampling, sign-aligned to w."""

    replicates: np.ndarray  # (N, m)
    N: int
    seed: int

    def component_quantiles(self) -> dict:
        """Per-component quantiles, bit for bit numpy's default "linear" ones.

        Computed from one sort with numpy's own formulas, not with
        ``np.quantile``, which loads ``numpy.ma``: the virtual index is
        v = (N - 1) q, and at or past the last row numpy takes that row
        at both ends with weight v + 1.
        """
        ordered = np.sort(self.replicates, axis=0)
        last = len(ordered) - 1
        out = {}
        for q in _QUANTILES:
            v = last * q
            if v < last:
                lo = math.floor(v)
                hi, t = lo + 1, v - lo
            else:
                lo = hi = last
                t = v + 1
            a, b = ordered[lo], ordered[hi]
            out[f"q{q}"] = (b - (b - a) * (1 - t) if t >= 0.5
                            else a + (b - a) * t).tolist()
        return out


@dataclass(frozen=True)
class SummaryData:
    """Projected samples for the summary scatter plus a monotonicity proxy.

    ``discordant_pairs`` counts adjacent orderings (after sorting by y)
    that break monotonicity in the better of the two orientations; zero
    means the samples are monotone in the active variable.
    """

    y: np.ndarray
    f: np.ndarray
    discordant_pairs: int


@dataclass(frozen=True)
class CMatrixEstimate:
    """Monte Carlo estimate of the gradient outer-product matrix."""

    C: np.ndarray
    eigenvalues: np.ndarray   # descending
    eigenvectors: np.ndarray  # orthonormal columns, matching order
    n_mc: int


def _as_design(X, f) -> tuple[np.ndarray, np.ndarray, int, int]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f = np.asarray(f, dtype=float).ravel()
    M, m = X.shape
    if len(f) != M:
        raise DataError(f"{M} sample points but {len(f)} responses")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(f)):
        raise DataError("non-finite values in the sample set")
    return X, f, M, m


def _apply_sign_convention(w: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made positive; argmax takes the lowest
    # index on ties.
    if w[int(np.argmax(np.abs(w)))] < 0:
        return -w
    return w


def _solve_direction(X: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, LinearFit]:
    M, m = X.shape
    A = np.column_stack([np.ones(M), X])
    u_hat, _, rank, sv = np.linalg.lstsq(A, f, rcond=RANK_RTOL)
    if rank < m + 1:
        raise DegeneracyError(
            f"design matrix rank {rank} < {m + 1}; the sample points do not "
            f"determine a linear fit (need M >= m+1 affinely independent points)"
        )
    residual_norm = float(np.linalg.norm(A @ u_hat - f))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    fit = LinearFit(u_hat=u_hat, residual_norm=residual_norm, cond_estimate=cond)

    u_prime = u_hat[1:]
    grad_norm = float(np.linalg.norm(u_prime))
    f_scale = float(np.max(np.abs(f))) or 1.0
    if grad_norm < 1e-14 * f_scale:
        raise DegeneracyError(
            "constant response: the fitted gradient is numerically zero"
        )
    return _apply_sign_convention(u_prime / grad_norm), fit


def fit_active_direction(X, f) -> ActiveSubspace:
    """Estimate the active direction from done runs.

    Parameters
    ----------
    X : (M, m) array of normalized sample points.
    f : (M,) array of quantity-of-interest values.

    Fits the global linear model by orthogonal factorization, normalizes
    its gradient, and applies the sign convention (largest-magnitude
    component positive). Requires M >= m+1 and a full-rank design.
    """
    X, f, M, m = _as_design(X, f)
    if M < m + 1:
        raise DegeneracyError(
            f"M={M} samples cannot determine a direction in m={m} parameters; "
            f"need M >= m+1 = {m + 1}, practical floor 2m = {2 * m}, "
            f"recommended about m^2 = {m * m}"
        )
    w, fit = _solve_direction(X, f)
    return ActiveSubspace(w=w, fit=fit, M=M)


# Rank-deficient resamples bootstrap_direction redraws per replicate.
_MAX_RETRIES = 100

# Replicates solved per batch by bootstrap_direction. Besides the (M, (m+1)^2)
# row outer products, the bootstrap holds one (block, m+1, m+1) Gram stack,
# whose buffer every block reuses.
_BOOTSTRAP_BLOCK = 64

# Gram matrices _well_conditioned copies, shifts and factors at once.
_CERTIFY_BATCH = 8

# The normal equations lose about cond(G) * eps of relative accuracy, where
# cond(G) = cond(A_idx)^2. A replicate whose Gram matrix is worse conditioned
# than this (a singular one, from fewer than m+1 distinct points, included),
# or whose gradient norm is within _FLOOR_MARGIN of the constant-response
# floor, is refitted by orthogonal factorization instead.
_GRAM_COND_MAX = 1e4
_FLOOR_MARGIN = 1e4


def _well_conditioned(gram: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Whether lam_max <= _GRAM_COND_MAX * lam_min, for a stack of Gram matrices.

    Only ``candidates`` can pass; the others, from at most m distinct rows,
    are singular. One Cholesky factorization of G - t I per _CERTIFY_BATCH
    candidates, t = 2 ||G||_F / _GRAM_COND_MAX, proves lam_min > t for the
    sub-batch, twice the margin the test asks; where it fails, the
    sub-batch's eigenvalues decide.
    """
    ok = np.zeros(len(gram), dtype=bool)
    tried = np.flatnonzero(candidates)
    for start in range(0, len(tried), _CERTIFY_BATCH):
        sub = tried[start:start + _CERTIFY_BATCH]
        shifted = gram[sub]
        t = 2 / _GRAM_COND_MAX * np.linalg.norm(shifted, axis=(1, 2))
        shifted -= t[:, None, None] * np.eye(gram.shape[-1])
        try:
            np.linalg.cholesky(shifted)
            ok[sub] = True
        except np.linalg.LinAlgError:
            # For a bootstrap Gram matrix lam[:, -1] >= M > 0, so this also
            # rejects lam[:, 0] <= 0.
            lam = np.linalg.eigvalsh(gram[sub])
            ok[sub] = lam[:, -1] <= _GRAM_COND_MAX * lam[:, 0]
    return ok


def _replicate_rng(seed: int, k: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def _refit_replicate(X: np.ndarray, f: np.ndarray, w: np.ndarray,
                     seed: int, k: int) -> np.ndarray:
    """Replicate k by least squares on each resample of its stream in turn.

    Rank-deficient resamples are redrawn; _MAX_RETRIES of them in a row raise.
    """
    M, m = X.shape
    rng = _replicate_rng(seed, k)
    for _ in range(_MAX_RETRIES):
        idx = rng.integers(0, M, size=M)
        if np.count_nonzero(np.bincount(idx, minlength=M)) <= m:
            continue  # fewer than m + 1 distinct rows: rank < m + 1, no solve
        try:
            w_k, _ = _solve_direction(X[idx], f[idx])
        except DegeneracyError:
            continue
        return -w_k if np.dot(w_k, w) < 0 else w_k
    raise DegeneracyError(
        f"bootstrap replicate {k}: {_MAX_RETRIES} resamples "
        f"in a row were rank-deficient; the sample set is too degenerate "
        f"to bootstrap"
    )


def bootstrap_direction(X, f, N: int = 100, seed: int = 0,
                        asub: ActiveSubspace | None = None) -> BootstrapEnsemble:
    """Row-resampling bootstrap of the active direction.

    Replicate k resamples M rows with replacement using the RNG stream
    keyed by (seed, k), refits, and sign-aligns the result to the
    point-estimate direction ``asub.w`` (fitted here when not given).

    The fit on rows idx_k is the fit weighted by the resample counts
    c_k = bincount(idx_k), so each block of replicates is one batched
    solve of A' diag(c_k) A u = A' diag(c_k) f with A = [1 | X]. A
    replicate with an ill-conditioned or singular Gram matrix, or with a
    gradient near the constant-response floor, goes back to
    least squares on its stream from the start, redrawing rank-deficient
    resamples; _MAX_RETRIES of them in a row raise.
    """
    X, f, M, m = _as_design(X, f)
    if N < 1:
        raise DataError(f"replicate count must be >= 1, got {N}")
    if asub is None:
        asub = fit_active_direction(X, f)
    elif len(asub.w) != m:
        raise DataError(f"direction has {len(asub.w)} components, samples have {m}")
    w = asub.w

    p = m + 1
    A = np.column_stack([np.ones(M), X])
    outer = (A[:, :, None] * A[:, None, :]).reshape(M, p * p)
    # Centering f moves only the intercept, and keeps a large mean response
    # from inflating the rounding error of the batched gradient.
    Af = A * (f - f.mean())[:, None]
    f_abs = np.abs(f)
    replicates = np.empty((N, m))
    buf = np.empty((min(N, _BOOTSTRAP_BLOCK), p * p))
    for start in range(0, N, _BOOTSTRAP_BLOCK):
        ks = range(start, min(N, start + _BOOTSTRAP_BLOCK))
        B = len(ks)
        idx = np.stack([_replicate_rng(seed, k).integers(0, M, size=M) for k in ks])
        counts = np.bincount((idx + M * np.arange(B)[:, None]).ravel(),
                             minlength=B * M).reshape(B, M).astype(float)
        gram = np.matmul(counts, outer, out=buf[:B]).reshape(B, p, p)
        # Fewer than m + 1 distinct rows give a singular Gram matrix, which
        # fails without an eigensolve.
        ok = _well_conditioned(gram, np.count_nonzero(counts, axis=1) > m)
        gram[~ok] = np.eye(p)
        grad = np.linalg.solve(gram, (counts @ Af)[:, :, None])[:, 1:, 0]
        norm = np.linalg.norm(grad, axis=1)
        f_scale = np.max(np.where(counts > 0, f_abs, 0.0), axis=1)
        f_scale[f_scale == 0] = 1.0
        ok &= norm >= _FLOOR_MARGIN * 1e-14 * f_scale

        w_b = grad[ok] / norm[ok, None]
        # Aligned to w; on an exact tie, _solve_direction's sign convention.
        dots = w_b @ w
        lead = w_b[np.arange(len(w_b)), np.argmax(np.abs(w_b), axis=1)]
        flip = np.where(dots == 0, lead < 0, dots < 0)
        replicates[start + np.flatnonzero(ok)] = np.where(flip[:, None], -w_b, w_b)
        for k in start + np.flatnonzero(~ok):
            replicates[k] = _refit_replicate(X, f, w, seed, k)
    return BootstrapEnsemble(replicates=replicates, N=N, seed=seed)


def sensitivity_ranking(asub: ActiveSubspace,
                        names: Sequence[str] | None = None,
                        ) -> list[tuple[str, float, float]]:
    """Rank parameters by |w_i| descending (ties keep index order).

    The components of w measure each parameter's global contribution to
    changes in the output along the active direction.
    """
    w = asub.w
    m = len(w)
    if names is None:
        names = [f"x{i + 1}" for i in range(m)]
    elif len(names) != m:
        raise DataError(f"{len(names)} names for {m} components")
    order = sorted(range(m), key=lambda i: (-abs(w[i]), i))
    return [(str(names[i]), float(w[i]), float(abs(w[i]))) for i in order]


def summary_data(X, f, asub: ActiveSubspace) -> SummaryData:
    """Project samples onto the active variable y = w . x."""
    X, f, M, m = _as_design(X, f)
    if len(asub.w) != m:
        raise DataError(f"direction has {len(asub.w)} components, samples have {m}")
    y = X @ asub.w

    order = np.argsort(y, kind="stable")
    fs = f[order]
    increasing_breaks = int(np.sum(fs[1:] < fs[:-1]))
    decreasing_breaks = int(np.sum(fs[1:] > fs[:-1]))
    discordant = min(increasing_breaks, decreasing_breaks)
    return SummaryData(y=y, f=f, discordant_pairs=discordant)


def estimate_c_gradient_oracle(grad_fn: Callable[[np.ndarray], np.ndarray],
                               m: int, n_mc: int, seed: int) -> CMatrixEstimate:
    """Monte Carlo estimate of C = E[grad f grad f^T] under the uniform density.

    Independent validation route for differentiable test functions: the
    leading eigenvector of C is the exact active direction for ridge
    functions, against which the least-squares estimate can be checked.
    """
    if n_mc < 1:
        raise DataError(f"n_mc must be >= 1, got {n_mc}")
    points = sample_hypercube(m, n_mc, seed)
    G = np.empty((n_mc, m))
    for x, row in zip(points, G):
        g = np.asarray(grad_fn(x), dtype=float)
        if g.shape != (m,):
            raise DataError(f"gradient shape {g.shape} != ({m},)")
        if not np.all(np.isfinite(g)):
            raise EvaluatorError(f"non-finite gradient at {x}")
        row[:] = g
    C = G.T @ G / n_mc
    C = (C + C.T) / 2.0

    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    for i in range(m):
        evecs[:, i] = _apply_sign_convention(evecs[:, i])
    return CMatrixEstimate(C=C, eigenvalues=evals, eigenvectors=evecs, n_mc=n_mc)
