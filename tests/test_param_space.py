import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from asuq import (DataError, ParameterSpace, ParameterSpec, hyshot_space,
                  new_campaign, unit_space)
from asuq._fileio import write_json
from asuq.param_space import hypercube_blocks, sample_hypercube


def column(space, key):
    """One field of every parameter, in coordinate order."""
    return np.array([getattr(p, key) for p in space.params])


@pytest.fixture
def space():
    return hyshot_space()


class TestSpecValidation:
    def test_min_must_be_below_max(self):
        with pytest.raises(DataError):
            ParameterSpec(name="p", min=2.0, nominal=2.0, max=1.0)

    def test_nominal_inside_range(self):
        with pytest.raises(DataError):
            ParameterSpec(name="p", min=0.0, nominal=3.0, max=1.0)

    def test_duplicate_names_rejected(self):
        spec = ParameterSpec(name="p", min=0.0, nominal=0.5, max=1.0)
        with pytest.raises(DataError):
            ParameterSpace([spec, spec])

    @pytest.mark.parametrize("bounds", [
        (-np.inf, 0.0, np.inf), (0.0, 0.5, np.inf), (-np.inf, 0.0, 1.0),
        (0.0, np.nan, 1.0), (np.nan, 0.0, 1.0),
    ])
    def test_non_finite_bounds_rejected(self, bounds):
        lo, nominal, hi = bounds
        with pytest.raises(DataError, match="finite"):
            ParameterSpec(name="p", min=lo, nominal=nominal, max=hi)

    def test_empty_space_rejected(self):
        with pytest.raises(DataError):
            ParameterSpace([])


class TestDenormalize:
    def test_zero_maps_to_nominal_column(self, space):
        np.testing.assert_allclose(space.denormalize(np.zeros(7)),
                                   space.nominals, rtol=1e-12)

    def test_plus_one_maps_to_max_column(self, space):
        np.testing.assert_allclose(space.denormalize(np.ones(7)),
                                   column(space, "max"), rtol=1e-12)

    def test_minus_one_maps_to_min_column(self, space):
        np.testing.assert_allclose(space.denormalize(-np.ones(7)),
                                   column(space, "min"), rtol=1e-12)

    def test_length_mismatch_raises(self, space):
        with pytest.raises(DataError):
            space.denormalize(np.zeros(6))


class TestSampling:
    def test_deterministic_given_seed(self, space):
        a = sample_hypercube(space.m, 50, 7)
        b = sample_hypercube(space.m, 50, 7)
        assert np.array_equal(a, b)

    def test_prefix_property(self, space):
        # sample j depends only on (seed, j): a longer draw extends a
        # shorter one
        a = sample_hypercube(space.m, 10, 3)
        b = sample_hypercube(space.m, 25, 3)
        assert np.array_equal(a, b[:10])

    def test_mean_within_clt_bound(self):
        # std of the mean is (1/sqrt(3))/sqrt(M) ~ 0.0018; bound is ~10 sigma
        x = sample_hypercube(1, 100_000, seed=2024)
        assert -0.02 < x.mean() < 0.02

    def test_single_sample_in_bounds(self):
        x = sample_hypercube(2, 1, seed=0)
        assert x.shape == (1, 2)
        assert np.all(x >= -1) and np.all(x <= 1)

    def test_ks_distance_to_uniform(self):
        M = 10_000
        x = sample_hypercube(3, M, seed=11)
        for i in range(3):
            d = stats.kstest(x[:, i], lambda v: (v + 1) / 2).statistic
            assert d < 1.63 / np.sqrt(M)

    def test_coordinate_extremes_approach_endpoints(self):
        x = sample_hypercube(2, 20_000, seed=8)
        assert x.min() < -0.999 and x.max() > 0.999

    def test_zero_samples_rejected(self, space):
        with pytest.raises(DataError):
            new_campaign(space, 0, 1)


class TestSamplerProperties:
    # Philox emits four words per counter step, so m that are not a
    # multiple of 4 exercise the per-row block alignment.
    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 9), n=st.integers(0, 40), extra=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_longer_draw_extends_a_shorter_one(self, m, n, extra, seed):
        x = sample_hypercube(m, n, seed)
        longer = sample_hypercube(m, n + extra, seed)
        assert np.array_equal(x, longer[:n])
        assert x.shape == (n, m)
        assert x.dtype == np.float64
        assert x.flags.c_contiguous
        assert np.all(x >= -1.0) and np.all(x <= 1.0)

    # Consecutive draws from one generator continue one stream, so the
    # blocks are the one-shot rows whatever the block size.
    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 13), n=st.integers(0, 100), rows=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(m=5, n=0, rows=1, seed=0)
    @example(m=5, n=1, rows=1, seed=0)
    @example(m=5, n=1, rows=7, seed=0)
    def test_row_blocks_concatenate_to_one_draw(self, m, n, rows, seed):
        blocks = list(hypercube_blocks(m, n, seed, rows))
        assert np.array_equal(np.concatenate(blocks), sample_hypercube(m, n, seed))
        assert all(b.shape[1] == m and b.dtype == np.float64 for b in blocks)
        # ``rows`` rows a block; the last takes the rest, below 2 * rows.
        sizes = [len(b) for b in blocks]
        assert len(sizes) == max(1, n // rows)
        assert sizes[:-1] == [rows] * (len(sizes) - 1)
        assert sizes[-1] < 2 * rows

    def test_seeds_give_different_streams(self):
        assert not np.array_equal(sample_hypercube(3, 5, seed=1),
                                  sample_hypercube(3, 5, seed=2))


class TestPersistence:
    def test_json_round_trip(self, tmp_path, space):
        path = tmp_path / "space.json"
        write_json(path, space.params)
        loaded = ParameterSpace.from_json(path)
        assert loaded.names == space.names
        np.testing.assert_array_equal(column(loaded, "min"), column(space, "min"))
        np.testing.assert_array_equal(column(loaded, "max"), column(space, "max"))

    def test_order_defines_coordinate_index(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([
            {"name": "b", "min": 0, "nominal": 1, "max": 2, "units": ""},
            {"name": "a", "min": -1, "nominal": 0, "max": 1, "units": ""},
        ]))
        sp = ParameterSpace.from_json(path)
        assert sp.names == ("b", "a")

    def test_malformed_file_raises_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            ParameterSpace.from_json(path)

    def test_missing_field_raises_data_error(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps([{"name": "a", "min": 0, "max": 1}]))
        with pytest.raises(DataError):
            ParameterSpace.from_json(path)


def test_bundled_space_matches_table():
    sp = hyshot_space()
    assert sp.m == 7
    assert sp.names[0] == "Stagnation Pressure"
    assert sp.params[0].min == 16.448 and sp.params[0].max == 19.012
    assert sp.params[3].min == 0.001 and sp.params[3].max == 0.019
    # every nominal sits at the midpoint, so x = 0 is the nominal condition
    np.testing.assert_allclose(sp.nominals,
                               (column(sp, "min") + column(sp, "max")) / 2,
                               rtol=1e-12)


def test_unit_space_is_identity():
    sp = unit_space(3)
    x = np.array([-0.5, 0.0, 0.25])
    np.testing.assert_allclose(sp.denormalize(x), x, atol=1e-15)


@pytest.mark.parametrize("call, message", [
    (lambda tmp: ParameterSpec(name="", min=0.0, nominal=0.5, max=1.0),
     "parameter name must be non-empty"),
    (lambda tmp: ParameterSpace.from_json(tmp / "object.json"),
     "expected a JSON array of parameter objects"),
], ids=["empty-name", "not-an-array"])
def test_input_check_raises(tmp_path, call, message):
    (tmp_path / "object.json").write_text('{"p": 1}')
    with pytest.raises(DataError, match=message):
        call(tmp_path)
