import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtrit

from asuq import DataError, DegeneracyError, fit_quadratic
from asuq._fileio import write_json
from asuq.surrogate import _t_quantile


def quadratic_data(coeffs=(2.0, 0.5, 0.1), M=10, lo=-2.0, hi=2.0):
    y = np.linspace(lo, hi, M)
    c0, c1, c2 = coeffs
    return y, c0 + c1 * y + c2 * y ** 2


@pytest.fixture
def noisy_fixture():
    # pseudo-noise amplitude is 1% of the response range
    y, f = quadratic_data(M=50)
    spread = f.max() - f.min()
    rng = np.random.default_rng(21)
    return y, f + 0.01 * spread * rng.standard_normal(50)


class TestFit:
    def test_exact_quadratic_recovery(self):
        y, f = quadratic_data()
        surr = fit_quadratic(y, f)
        np.testing.assert_allclose(surr.coeffs, [2.0, 0.5, 0.1], atol=1e-10)
        assert surr.r_squared >= 1.0 - 1e-10
        assert not surr.zero_variance

    def test_constant_data_degeneracy_convention(self):
        y = np.linspace(-1, 1, 8)
        surr = fit_quadratic(y, np.full(8, 4.25))
        np.testing.assert_allclose(surr.coeffs, [4.25, 0.0, 0.0], atol=1e-12)
        assert surr.r_squared == 1.0
        assert surr.zero_variance

    def test_noisy_quadratic_r_squared(self, noisy_fixture):
        y, f = noisy_fixture
        surr = fit_quadratic(y, f)
        assert surr.r_squared >= 0.99

    def test_fewer_than_three_distinct_abscissae(self):
        y = np.array([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(DegeneracyError):
            fit_quadratic(y, y + 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0,
                                     1.0 + 2**-52, -2.5, 3.0]),
                    min_size=3, max_size=8))
    def test_distinct_check_agrees_with_np_unique(self, y):
        # np.unique is the reference; +0.0 and -0.0 are one value to both.
        y = np.array(y)
        try:
            fit_quadratic(y, np.arange(len(y), dtype=float))
            refused = False
        except DegeneracyError as exc:
            refused = "fewer than 3 distinct" in str(exc)
        assert refused == (len(np.unique(y)) < 3)

    def test_three_point_exact_fit_has_no_variance(self):
        y = np.array([-1.0, 0.0, 1.0])
        surr = fit_quadratic(y, 1.0 + y ** 2)
        assert surr.sigma2_hat is None
        with pytest.raises(DegeneracyError):
            surr.upper_confidence(0.0)

    def test_gram_inverse_symmetric_positive_definite(self, noisy_fixture):
        # Exactly symmetric: the raw LU inverse is not, for most designs.
        rng = np.random.default_rng(0)
        for y in [noisy_fixture[0], *rng.uniform(-1.0, 1.0, (5, 20))]:
            G = fit_quadratic(y, y ** 2).gram_inverse
            assert np.array_equal(G, G.T)
            assert np.all(np.linalg.eigvalsh(G) > 0)

    def test_sigma2_hat_is_rss_over_m_minus_3(self, noisy_fixture):
        y, f = noisy_fixture
        surr = fit_quadratic(y, f)
        rss = float(np.sum((surr.predict(y) - f) ** 2))
        assert surr.sigma2_hat == pytest.approx(rss / (len(y) - 3), rel=1e-12)

    def test_domain_defaults_to_data_range(self):
        y, f = quadratic_data(lo=-1.5, hi=2.5)
        surr = fit_quadratic(y, f)
        assert surr.y_domain == (-1.5, 2.5)


class TestPredict:
    def test_constant(self):
        y, f = quadratic_data(coeffs=(1.0, 0.0, 0.0))
        surr = fit_quadratic(y, f, y_domain=(-1000.0, 1000.0))
        assert surr.predict(123.4) == pytest.approx(1.0)

    def test_identity_slope(self):
        y, f = quadratic_data(coeffs=(0.0, 1.0, 0.0))
        surr = fit_quadratic(y, f)
        assert surr.predict(0.5) == pytest.approx(0.5)

    def test_arithmetic(self):
        y, f = quadratic_data(coeffs=(2.0, 0.5, 0.1))
        surr = fit_quadratic(y, f)
        assert surr.predict(-1.0) == pytest.approx(1.6)

    def test_extrapolation_is_warned(self):
        y, f = quadratic_data(lo=-1, hi=1)
        surr = fit_quadratic(y, f)
        with pytest.warns(UserWarning, match="outside"):
            surr.predict(5.0)


class TestUpperConfidence:
    def test_zero_residual_band_collapses(self):
        y, f = quadratic_data(M=12)
        surr = fit_quadratic(y, f)
        for yq in (-2.0, 0.0, 1.3):
            assert surr.upper_confidence(yq) == pytest.approx(
                surr.predict(yq), abs=1e-9)

    def test_level_monotonicity(self, noisy_fixture):
        surr = fit_quadratic(*noisy_fixture)
        assert surr.upper_confidence(0.3, 0.99) >= surr.upper_confidence(0.3, 0.95)

    def test_bound_not_below_prediction(self, noisy_fixture):
        surr = fit_quadratic(*noisy_fixture)
        ys = np.linspace(-2, 2, 31)
        assert np.all(surr.upper_confidence(ys) >= surr.predict(ys))

    def test_band_tighter_near_data_mass_than_at_edge(self, noisy_fixture):
        y, f = noisy_fixture
        surr = fit_quadratic(y, f)
        center = surr.band_halfwidth(float(y.mean()))
        edge = surr.band_halfwidth(float(y.max()))
        assert center < edge

    def test_leverage_strictly_positive(self, noisy_fixture):
        surr = fit_quadratic(*noisy_fixture)
        ys = np.linspace(-5, 5, 101)
        assert np.all(surr.band_halfwidth(ys) > 0)

    def test_level_domain_checked(self, noisy_fixture):
        surr = fit_quadratic(*noisy_fixture)
        for bad in (0.5, 1.0, 0.2):
            with pytest.raises(DataError):
                surr.upper_confidence(0.0, bad)


class TestTQuantile:
    """The Student-t quantile behind the band, against independent values."""

    @settings(max_examples=300, deadline=None)
    @given(nu=st.integers(1, 5000), p=st.floats(0.6, 1.0 - 1e-6))
    # Reflecting I_x(a, b) = 1 - I_y(b, a) near the tail would lose 1e-11 here.
    @example(nu=3520, p=0.9581339069532311)
    @example(nu=5000, p=0.6)
    @example(nu=1, p=1.0 - 1e-6)
    def test_matches_stdtrit(self, nu, p):
        ref = float(stdtrit(nu, p))
        assert abs(_t_quantile(nu, p) - ref) <= 1e-11 * ref

    @pytest.mark.parametrize(
        "p", [0.5 + 1e-7, 0.5 + 1e-5, 0.5001, 0.51, 0.6, 0.7, 0.75, 0.8,
              0.9, 0.99, 0.999, 1.0 - 1e-6])
    def test_closed_forms(self, p):
        # Near p = 1/2, stdtrit itself is off (4e-4 relative at nu = 4,
        # p = 0.5 + 1e-7), so the references are the closed forms for
        # nu = 1 and 2. Near p = 1, tan(pi (p - 1/2)) loses digits to the
        # pole; 1 / tan(pi (1 - p)) is the same value, exactly argued.
        cauchy = (math.tan(math.pi * (p - 0.5)) if p < 0.75
                  else 1.0 / math.tan(math.pi * (1.0 - p)))
        two = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
        assert abs(_t_quantile(1, p) - cauchy) <= 1e-11 * cauchy
        assert abs(_t_quantile(2, p) - two) <= 1e-11 * two

    @pytest.mark.parametrize("p", [0.6, 0.99, 1.0 - 1e-6])
    def test_million_degrees_of_freedom(self, p):
        t = _t_quantile(10**6, p)
        ref = float(stdtrit(10**6, p))
        assert math.isfinite(t)
        assert abs(t - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("p", [0.6, 0.75])
    def test_ten_million_degrees_of_freedom_bisect_in_the_bracket(self, p):
        # At nu = 1e7 a Newton step leaves the bracket of the iterates, so
        # these solves bisect; at p = 0.6 the solve ends when the bracket
        # is down to adjacent floats.
        t = _t_quantile(10**7, p)
        ref = float(stdtrit(10**7, p))
        assert abs(t - ref) <= 1e-8 * ref

    def test_band_uses_the_quantile(self, noisy_fixture):
        surr = fit_quadratic(*noisy_fixture)
        rows = np.array([1.0, 0.4, 0.16])
        leverage = rows @ surr.gram_inverse @ rows
        expected = float(stdtrit(47, 0.95)) * math.sqrt(surr.sigma2_hat * leverage)
        assert surr.band_halfwidth(0.4, 0.95) == pytest.approx(expected, rel=1e-11)

    def test_one_solve_per_degrees_of_freedom_and_level(self, noisy_fixture):
        surr = fit_quadratic(*noisy_fixture)
        _t_quantile.cache_clear()
        for y in np.linspace(-2.0, 2.0, 102):
            surr.upper_confidence(y, 0.99)
        assert _t_quantile.cache_info().misses == 1


class TestInvariances:
    def test_shift_moves_only_intercept(self, noisy_fixture):
        y, f = noisy_fixture
        a = fit_quadratic(y, f)
        b = fit_quadratic(y, f + 11.0)
        assert b.coeffs[0] == pytest.approx(a.coeffs[0] + 11.0, abs=1e-10)
        np.testing.assert_allclose(b.coeffs[1:], a.coeffs[1:], atol=1e-10)
        assert b.r_squared == pytest.approx(a.r_squared, abs=1e-10)
        np.testing.assert_allclose(b.band_halfwidth(0.7), a.band_halfwidth(0.7),
                                   atol=1e-10)

    def test_positive_scaling(self, noisy_fixture):
        y, f = noisy_fixture
        a = fit_quadratic(y, f)
        b = fit_quadratic(y, 3.0 * f)
        np.testing.assert_allclose(b.coeffs, 3.0 * a.coeffs, atol=1e-9)
        assert b.r_squared == pytest.approx(a.r_squared, abs=1e-10)
        assert b.band_halfwidth(1.1) == pytest.approx(3.0 * a.band_halfwidth(1.1))
        assert np.sqrt(b.sigma2_hat) == pytest.approx(3.0 * np.sqrt(a.sigma2_hat))


def test_export_round_trip_fields(noisy_fixture, tmp_path):
    surr = fit_quadratic(*noisy_fixture, y_domain=(-3.0, 3.0))
    write_json(tmp_path / "surrogate.json", surr)
    d = json.loads((tmp_path / "surrogate.json").read_text())
    assert set(d) == {"coeffs", "sigma2_hat", "gram_inverse", "M",
                      "r_squared", "y_domain", "zero_variance"}
    assert d["M"] == 50
    assert d["y_domain"] == [-3.0, 3.0]


@pytest.mark.parametrize("y, f, error, message", [
    ([0.0, 1.0, 2.0], [1.0, 2.0], DataError, "3 abscissae but 2 responses"),
    ([0.0, 1.0, np.nan], [1.0, 2.0, 3.0], DataError,
     "non-finite values in the surrogate training pairs"),
    ([0.0, 1.0], [1.0, 2.0], DegeneracyError,
     "M=2 points cannot determine a quadratic"),
    # Three distinct abscissae, but y^2 is below the rank cut-off.
    ([0.0, 1e-10, 2e-10], [1.0, 2.0, 3.0], DegeneracyError,
     "quadratic design matrix is rank-deficient"),
], ids=["length", "non-finite", "too-few", "rank"])
def test_input_check_raises(y, f, error, message):
    with pytest.raises(error, match=message):
        fit_quadratic(np.array(y), np.array(f))
