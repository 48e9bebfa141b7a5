"""Tests for frequency CDFs and their piecewise inverse (Section 4.2).

The ICDF grids are sampled by the oracles' scalar sampler
(:func:`tests.oracles.icdf.icdf_points`); :func:`convex_cuts` is the
shipped encoding the convex MILP reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.cdf import FrequencyCDF, convex_cuts
from tests.oracles.icdf import PiecewiseICDF, icdf_points

counts_arrays = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200
).map(lambda xs: np.array(xs))


class TestFrequencyCDF:
    def test_simple_ranking(self):
        cdf = FrequencyCDF(np.array([1.0, 10.0, 5.0, 0.0]))
        assert list(cdf.row_order[:3]) == [1, 2, 0]
        assert cdf.live_rows == 3
        assert cdf.total == 16.0

    def test_coverage_of_rows(self):
        cdf = FrequencyCDF(np.array([1.0, 10.0, 5.0, 0.0]))
        assert cdf.coverage_of_rows(0) == 0.0
        assert cdf.coverage_of_rows(1) == pytest.approx(10 / 16)
        assert cdf.coverage_of_rows(2) == pytest.approx(15 / 16)
        assert cdf.coverage_of_rows(4) == 1.0
        assert cdf.coverage_of_rows(100) == 1.0

    def test_rows_for_coverage_inverse(self):
        cdf = FrequencyCDF(np.array([1.0, 10.0, 5.0, 0.0]))
        assert cdf.rows_for_coverage(0.0) == 0
        assert cdf.rows_for_coverage(0.5) == 1
        assert cdf.rows_for_coverage(10 / 16) == 1
        assert cdf.rows_for_coverage(0.7) == 2
        assert cdf.rows_for_coverage(1.0) == 3  # dead row never needed

    def test_all_zero_counts(self):
        cdf = FrequencyCDF(np.zeros(5))
        assert cdf.live_rows == 0
        assert cdf.rows_for_coverage(1.0) == 0
        assert cdf.coverage_of_rows(3) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            FrequencyCDF(np.array([1.0, -1.0]))

    @pytest.mark.parametrize(
        "counts", [[3.0, np.nan, 1.0, 0.0], [1.0, np.inf], [-np.inf, 2.0]]
    )
    def test_non_finite_counts_rejected(self, counts):
        # A NaN count used to yield total=nan and an all-zero CDF, an
        # inf count a NaN CDF.
        with pytest.raises(ValueError, match="counts must be finite"):
            FrequencyCDF(np.array(counts))

    def test_ranking_stable_for_ties(self):
        cdf = FrequencyCDF(np.array([2.0, 2.0, 2.0]))
        assert list(cdf.row_order) == [0, 1, 2]

    def test_top_rows(self):
        cdf = FrequencyCDF(np.array([1.0, 10.0, 5.0]))
        assert list(cdf.top_rows(2)) == [1, 2]
        assert cdf.top_rows(0).size == 0

    @given(counts=counts_arrays)
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_bounded(self, counts):
        cdf = FrequencyCDF(counts)
        fractions = np.linspace(0, 1, 11)
        rows = [cdf.rows_for_coverage(f) for f in fractions]
        assert rows == sorted(rows)
        assert all(0 <= r <= cdf.live_rows for r in rows)
        covs = [cdf.coverage_of_rows(k) for k in range(len(counts) + 1)]
        assert covs == sorted(covs)

    @given(counts=counts_arrays)
    @settings(max_examples=60, deadline=None)
    def test_galois_connection(self, counts):
        # rows_for_coverage(f) is the least k with coverage_of_rows(k) >= f.
        cdf = FrequencyCDF(counts)
        if cdf.total == 0:
            return
        for f in (0.1, 0.5, 0.9, 1.0):
            k = cdf.rows_for_coverage(f)
            assert cdf.coverage_of_rows(k) >= f - 1e-12
            if k > 0:
                assert cdf.coverage_of_rows(k - 1) < f

    def test_curve_is_monotone(self):
        rng = np.random.default_rng(0)
        cdf = FrequencyCDF(rng.pareto(1.2, size=500))
        xs, ys = cdf.curve(50)
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.diff(ys) >= 0)


class TestPiecewiseICDF:
    def build(self, counts, steps=10):
        return icdf_points(FrequencyCDF(np.asarray(counts, dtype=float)), steps)

    def test_endpoints(self):
        icdf = self.build([5, 3, 1, 0], steps=10)
        assert icdf.fractions[0] == 0.0
        assert icdf.fractions[-1] == 1.0
        assert icdf.rows[0] == 0
        assert icdf.rows[-1] == 3  # live rows only

    def test_rows_non_decreasing(self):
        icdf = self.build(np.random.default_rng(1).pareto(1.0, 300), steps=50)
        assert np.all(np.diff(icdf.rows) >= 0)

    @given(counts=counts_arrays, steps=st.integers(min_value=2, max_value=40))
    @settings(max_examples=50, deadline=None)
    def test_convexity_of_sampled_points(self, counts, steps):
        # Marginal rows per coverage step never decrease: the property the
        # convex formulation relies on.
        icdf = icdf_points(FrequencyCDF(counts), steps)
        diffs = np.diff(icdf.rows)
        # Convexity in the exact ICDF can be broken by <1-row rounding at
        # grid points; allow that slack.
        assert np.all(np.diff(diffs) >= -1.0 - 1e-9)

    def test_convex_cuts_reproduce_interpolation(self):
        rng = np.random.default_rng(2)
        icdf = icdf_points(FrequencyCDF(rng.pareto(1.5, 400)), 20)
        cuts = convex_cuts(icdf.fractions, icdf.rows)
        for frac in np.linspace(0, 1, 33):
            envelope = max(slope * frac + intercept for slope, intercept in cuts)
            assert envelope <= np.interp(frac, icdf.fractions, icdf.rows) + 1.0

    def test_cuts_lower_bound_grid_points(self):
        rng = np.random.default_rng(3)
        icdf = icdf_points(FrequencyCDF(rng.pareto(0.8, 200)), 25)
        cuts = convex_cuts(icdf.fractions, icdf.rows)
        for frac, rows in zip(icdf.fractions, icdf.rows):
            for slope, intercept in cuts:
                assert slope * frac + intercept <= rows + 1e-6

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PiecewiseICDF(
                fractions=np.array([0.0, 0.5]), rows=np.array([2, 1])
            )  # decreasing rows
        with pytest.raises(ValueError):
            PiecewiseICDF(
                fractions=np.array([0.5, 0.5]), rows=np.array([0, 1])
            )  # non-increasing fractions

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            icdf_points(FrequencyCDF(np.ones(4)), 0)
