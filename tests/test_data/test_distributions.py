"""Tests for the synthetic distribution substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.distributions import (
    LogNormalPooling,
    UniformCategorical,
    ZipfCategorical,
    _inverse_cdf,
    log_uniform,
)
from repro.data.feature import SparseFeatureSpec


class TestZipf:
    def test_pmf_sums_to_one(self):
        z = ZipfCategorical(1000, alpha=1.1)
        assert z.pmf.sum() == pytest.approx(1.0)

    def test_pmf_descending(self):
        z = ZipfCategorical(500, alpha=0.9)
        assert np.all(np.diff(z.pmf) <= 0)

    def test_alpha_zero_is_uniform(self):
        z = ZipfCategorical(100, alpha=0.0)
        assert np.allclose(z.pmf, 0.01)

    def test_higher_alpha_more_skewed(self):
        mild = ZipfCategorical(1000, alpha=0.5)
        strong = ZipfCategorical(1000, alpha=1.5)
        assert strong.pmf[0] > mild.pmf[0]

    def test_samples_within_range(self):
        z = ZipfCategorical(50, alpha=1.0)
        samples = z.sample(10_000, np.random.default_rng(0))
        assert samples.min() >= 0
        assert samples.max() < 50

    def test_sample_head_frequency_matches_pmf(self):
        z = ZipfCategorical(100, alpha=1.2)
        samples = z.sample(200_000, np.random.default_rng(1))
        freq0 = np.mean(samples == 0)
        assert freq0 == pytest.approx(z.pmf[0], rel=0.05)

    def test_empty_sample(self):
        z = ZipfCategorical(10, alpha=1.0)
        assert z.sample(0, np.random.default_rng(0)).size == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ZipfCategorical(0, alpha=1.0)
        with pytest.raises(ValueError):
            ZipfCategorical(10, alpha=-0.5)

    @given(
        cardinality=st.integers(min_value=1, max_value=2000),
        alpha=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_cdf_properties(self, cardinality, alpha):
        z = ZipfCategorical(cardinality, alpha)
        cdf = z.cdf
        assert cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cdf) >= -1e-15)


class TestInverseCdf:
    """The sort-then-search draw returns exactly the plain search's ids."""

    @staticmethod
    def assert_matches_plain_search(cdf, uniforms):
        got = _inverse_cdf(cdf, uniforms)
        want = np.searchsorted(cdf, uniforms, side="right")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @staticmethod
    def with_neighbours(points):
        return np.concatenate([
            points,
            np.nextafter(points, -np.inf),
            np.nextafter(points, np.inf),
        ])

    def test_keys_on_and_beside_cdf_entries(self):
        cdf = ZipfCategorical(300, alpha=1.1).cdf
        uniforms = self.with_neighbours(cdf[:-1])
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        rng = np.random.default_rng(0)
        self.assert_matches_plain_search(cdf, rng.permutation(uniforms))

    def test_unit_interval_ends(self):
        cdf = ZipfCategorical(50, alpha=0.8).cdf
        below_one = np.nextafter(1.0, 0.0)
        uniforms = np.array([below_one, 0.0, 0.0, below_one, 0.5])
        self.assert_matches_plain_search(cdf, uniforms)
        assert _inverse_cdf(cdf, uniforms)[0] == cdf.size - 1

    def test_dead_rows_repeat_cdf_values(self):
        feature = SparseFeatureSpec(
            name="f", cardinality=400, hash_size=600, alpha=1.0,
            avg_pooling=2.0, coverage=1.0,
        )
        pmf = feature.post_hash_pmf()
        cdf = np.cumsum(pmf)
        cdf[-1] = 1.0
        assert np.count_nonzero(pmf == 0) > 100  # runs of dead rows
        rng = np.random.default_rng(1)
        uniforms = np.concatenate([
            rng.random(5000), self.with_neighbours(cdf[pmf == 0]),
        ])
        uniforms = uniforms[(uniforms >= 0.0) & (uniforms < 1.0)]
        self.assert_matches_plain_search(cdf, rng.permutation(uniforms))
        # No dead row is ever drawn.
        assert not np.any(pmf[_inverse_cdf(cdf, uniforms)] == 0)

    def test_single_row_and_empty_draw(self):
        cdf = np.array([1.0])
        uniforms = np.array([0.0, 0.3, np.nextafter(1.0, 0.0)])
        self.assert_matches_plain_search(cdf, uniforms)
        assert _inverse_cdf(cdf, uniforms).tolist() == [0, 0, 0]
        empty = _inverse_cdf(ZipfCategorical(10, 1.0).cdf, np.empty(0))
        assert empty.dtype == np.int64 and empty.size == 0


class TestUniform:
    def test_uniform_sampling_covers_range(self):
        u = UniformCategorical(20)
        samples = u.sample(5000, np.random.default_rng(2))
        assert set(np.unique(samples)) == set(range(20))


class TestPooling:
    def test_mean_approximately_preserved(self):
        dist = LogNormalPooling(mean=20.0, sigma=0.75)
        samples = dist.sample(200_000, np.random.default_rng(3))
        assert samples.mean() == pytest.approx(20.0, rel=0.05)

    def test_minimum_pooling_is_one(self):
        dist = LogNormalPooling(mean=1.0, sigma=1.5)
        samples = dist.sample(10_000, np.random.default_rng(4))
        assert samples.min() >= 1

    def test_max_pool_clipping(self):
        dist = LogNormalPooling(mean=50.0, sigma=1.5, max_pool=64)
        samples = dist.sample(10_000, np.random.default_rng(5))
        assert samples.max() <= 64

    def test_integer_samples(self):
        dist = LogNormalPooling(mean=5.0)
        samples = dist.sample(100, np.random.default_rng(6))
        assert samples.dtype == np.int64

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            LogNormalPooling(mean=0.5)

    @given(mean=st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=25, deadline=None)
    def test_sigma_zero_is_deterministic(self, mean):
        dist = LogNormalPooling(mean=mean, sigma=0.0)
        samples = dist.sample(50, np.random.default_rng(7))
        assert np.all(samples == max(1, round(mean)))


class TestLogUniform:
    def test_within_bounds(self):
        vals = log_uniform(10, 1000, 1000, np.random.default_rng(8))
        assert vals.min() >= 10
        assert vals.max() <= 1000

    def test_log_spread(self):
        vals = log_uniform(1, 10_000, 50_000, np.random.default_rng(9))
        # Log-uniform: ~half the mass below sqrt(low*high).
        assert np.mean(vals < 100) == pytest.approx(0.5, abs=0.02)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            log_uniform(0, 10, 5, np.random.default_rng(0))
