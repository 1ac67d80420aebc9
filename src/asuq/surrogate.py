"""Univariate quadratic link function of the active variable.

Models the output as g(y) = c0 + c1*y + c2*y^2 from the projected pairs
(y_j, f_j), reports R^2 as a discrepancy measure, and provides the
pointwise upper confidence bound of the regression curve. The bound is a
mean-response band used purely as a conservative factor: the responses
are deterministic, so no probabilistic coverage statement attaches to it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneracyError

__all__ = ["QuadraticSurrogate", "fit_quadratic"]


def _design_rows(y: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(y), y, y * y])


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x given exactly.

    The continued fraction (Numerical Recipes, 3rd ed., section 6.4) is
    evaluated by the modified Lentz method. It is used without the
    reflection I_x(a, b) = 1 - I_y(b, a): for the two forms the quantile
    solve needs, the fraction converges in a few hundred terms at most,
    and the reflection would cancel when I_x is small next to 1.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    tiny = 1e-300
    # log1p of the smaller of x and y keeps the larger one's log exact.
    log_x = math.log1p(-y) if y < x else math.log(x)
    log_y = math.log1p(-x) if x < y else math.log(y)
    log_front = (a * log_x + b * log_y + math.lgamma(a + b)
                 - math.lgamma(a) - math.lgamma(b))
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for k in range(1, 100_000):
        for num in (k * (b - k) * x / ((a + 2 * k - 1) * (a + 2 * k)),
                    -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= d * c
        if abs(d * c - 1.0) <= 4e-16:
            break
    return math.exp(log_front) * frac / a


@functools.lru_cache(maxsize=256)
def _t_quantile(nu: int, p: float) -> float:
    """Student-t quantile t_p with nu degrees of freedom, for 1/2 < p < 1.

    For t > 0 the upper tail is I_{nu/(nu+t^2)}(nu/2, 1/2) / 2 and the
    central mass P(|T| <= t) is I_{t^2/(nu+t^2)}(1/2, nu/2). The solve
    matches the tail to 1 - p when p >= 3/4 and the central mass to
    2p - 1 below that: both targets are exact in floating point, and
    neither cancels near p = 1/2. Newton's method with the closed-form
    density starts at t = 0; the tail is convex and the central mass
    concave in t > 0, so the iterates rise monotonically to the root.
    A bracket of the iterates seen so far guards against rounding.
    """
    a = 0.5 * nu
    log_norm = (math.lgamma(a + 0.5) - math.lgamma(a)
                - 0.5 * math.log(nu * math.pi))
    tail = p >= 0.75
    target = 1.0 - p if tail else 2.0 * p - 1.0
    lo, hi, t = 0.0, math.inf, 0.0
    for _ in range(200):
        s = t * t
        density = math.exp(log_norm - (a + 0.5) * math.log1p(s / nu))
        if tail:
            excess = 0.5 * _betainc(a, 0.5, nu / (nu + s), s / (nu + s)) - target
            slope = -density
        else:
            excess = _betainc(0.5, a, s / (nu + s), nu / (nu + s)) - target
            slope = 2.0 * density
        if excess * slope < 0.0:
            lo = t
        else:
            hi = t
        t_next = t - excess / slope
        if abs(t_next - t) <= 1e-9 * t_next:
            return t_next  # quadratic convergence: this step ends at rounding
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0
            if t_next in (lo, hi):
                return t_next  # the bracket is down to adjacent floats
        t = t_next
    raise ArithmeticError(f"no Student-t quantile for nu={nu}, p={p}")


@dataclass(frozen=True)
class QuadraticSurrogate:
    """Fitted quadratic of the active variable with band machinery.

    ``sigma2_hat`` is RSS/(M-3); it is None for an exact three-point fit,
    in which case confidence bounds are unavailable. ``zero_variance``
    flags constant data, where R^2 = 1 is adopted by convention.
    """

    coeffs: np.ndarray            # (c0, c1, c2)
    sigma2_hat: float | None
    gram_inverse: np.ndarray      # (T^T T)^-1 for rows t(y) = [1, y, y^2]
    M: int
    r_squared: float
    y_domain: tuple[float, float]
    zero_variance: bool = False

    def in_domain(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return (y >= self.y_domain[0]) & (y <= self.y_domain[1])

    def predict(self, y):
        """Evaluate c0 + c1*y + c2*y^2 (extrapolation permitted, warned)."""
        y = np.asarray(y, dtype=float)
        if y.size and not np.all(self.in_domain(y)):
            warnings.warn(
                "evaluating the surrogate outside its fitted active-variable "
                f"domain {self.y_domain}", stacklevel=2)
        c0, c1, c2 = self.coeffs
        out = c0 + y * (c1 + y * c2)
        return float(out) if np.isscalar(out) or out.ndim == 0 else out

    def band_halfwidth(self, y, level: float = 0.99):
        """Half-width of the pointwise mean-response band at the given level.

        The half-width is t_level * sqrt(sigma2_hat * leverage), with the
        Student-t quantile for M - 3 degrees of freedom from a Newton
        inversion of the regularized incomplete beta function, solved
        once per (M, level). It is within 1e-11 (relative) of the exact
        quantile up to 5000 degrees of freedom, and within 1e-8 up to 1e6.
        """
        if self.sigma2_hat is None:
            raise DegeneracyError(
                "confidence bounds unavailable: exact fit with M = 3 leaves "
                "no residual degrees of freedom"
            )
        if not (0.5 < level < 1.0):
            raise DataError(f"confidence level must be in (0.5, 1), got {level}")
        y = np.asarray(y, dtype=float)
        rows = _design_rows(np.atleast_1d(y))
        leverage = np.einsum("ij,jk,ik->i", rows, self.gram_inverse, rows)
        tq = _t_quantile(self.M - 3, float(level))
        half = tq * np.sqrt(self.sigma2_hat * leverage)
        return float(half[0]) if np.isscalar(y) or y.ndim == 0 else half

    def upper_confidence(self, y, level: float = 0.99):
        """predict(y) plus the band half-width; always >= predict(y)."""
        return self.predict(y) + self.band_halfwidth(y, level)


def fit_quadratic(y, f, y_domain: tuple[float, float] | None = None
                  ) -> QuadraticSurrogate:
    """Least-squares quadratic over the pairs (y_j, f_j).

    Needs at least three distinct abscissae; with exactly M = 3 points the
    fit interpolates and the residual variance is undefined. R^2 is
    1 - RSS/TSS about the mean of f, reported as 1 with ``zero_variance``
    set when the data are constant. The degree is fixed at 2.
    """
    y = np.asarray(y, dtype=float).ravel()
    f = np.asarray(f, dtype=float).ravel()
    if len(y) != len(f):
        raise DataError(f"{len(y)} abscissae but {len(f)} responses")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(f))):
        raise DataError("non-finite values in the surrogate training pairs")
    M = len(y)
    if M < 3:
        raise DegeneracyError(f"M={M} points cannot determine a quadratic")
    if np.count_nonzero(np.diff(np.sort(y))) < 2:  # np.unique loads numpy.ma
        raise DegeneracyError(
            "fewer than 3 distinct active-variable values; the quadratic "
            "design is rank-deficient"
        )

    T = _design_rows(y)
    coeffs, _, rank, _ = np.linalg.lstsq(T, f, rcond=1e-12)
    if rank < 3:
        raise DegeneracyError("quadratic design matrix is rank-deficient")

    resid = T @ coeffs - f
    rss = float(resid @ resid)
    tss = float(np.sum((f - f.mean()) ** 2))
    zero_variance = tss == 0.0
    r_squared = 1.0 if zero_variance else 1.0 - rss / tss

    gram = T.T @ T
    gram_inverse = np.linalg.inv(gram)
    gram_inverse = (gram_inverse + gram_inverse.T) / 2.0

    sigma2_hat = rss / (M - 3) if M > 3 else None
    if y_domain is None:
        y_domain = (float(y.min()), float(y.max()))
    return QuadraticSurrogate(
        coeffs=coeffs,
        sigma2_hat=sigma2_hat,
        gram_inverse=gram_inverse,
        M=M,
        r_squared=r_squared,
        y_domain=(float(y_domain[0]), float(y_domain[1])),
        zero_variance=zero_variance,
    )
