"""Property-style randomized tests for the vectorized CDF queries.

``FrequencyCDF.fractional_rows_for_coverage_many`` is the planner
workspace's foundation: every ICDF grid the vectorized sharders consume
comes from it; the oracles read coverage through
``tests.oracles.planner.coverage_of_rows_many``.  These tests draw
randomized count vectors (heavy tails, ties, dead rows, degenerate
shapes) and check, for each:

* element-for-element agreement with the scalar methods;
* monotonicity in the query argument (a CDF/ICDF structural property);
* the inverse round-trip: covering the fraction the hottest ``k`` rows
  cover needs at most ``k`` rows, and the (ceil'd) rows returned for a
  fraction really cover it;
* the 0/1 coverage edges (0 rows ↔ 0 coverage, ``live_rows`` ↔ full
  coverage).

It also pins :func:`~repro.stats.cdf.descending_order`, the exact
stand-in for ``np.argsort(-x, kind="stable")`` behind every
hottest-first ranking, against that stable sort.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.stats.cdf import FrequencyCDF, descending_order
from tests.oracles.icdf import fractional_rows_for_coverage
from tests.oracles.planner import coverage_of_rows_many


def random_counts(rng: np.random.Generator) -> np.ndarray:
    """A randomized per-row count vector with adversarial structure."""
    size = int(rng.integers(1, 400))
    style = rng.integers(4)
    if style == 0:
        # Zipf-ish heavy tail (the realistic case).
        counts = rng.zipf(float(rng.uniform(1.2, 2.5)), size=size).astype(
            np.float64
        )
    elif style == 1:
        # Heavy ties: few distinct values.
        counts = rng.choice([0.0, 1.0, 2.0, 5.0], size=size)
    elif style == 2:
        # Uniform floats, some exact zeros (dead rows).
        counts = rng.uniform(0.0, 3.0, size=size)
        counts[rng.uniform(size=size) < 0.3] = 0.0
    else:
        # One hot row dominating everything.
        counts = np.zeros(size)
        counts[rng.integers(size)] = float(rng.uniform(1.0, 100.0))
    return counts


SEEDS = list(range(25))


@pytest.fixture(params=SEEDS)
def cdf(request):
    rng = np.random.default_rng(request.param)
    return FrequencyCDF(random_counts(rng)), rng


class TestFractionalRowsMany:
    def test_matches_scalar_pointwise(self, cdf):
        cdf, rng = cdf
        fractions = np.sort(
            np.concatenate(
                [
                    rng.uniform(0.0, 1.0, size=64),
                    [0.0, 1.0],
                    # Exact grid values of the CDF itself: the
                    # searchsorted tie cases.
                    cdf.cum_fraction[
                        rng.integers(0, cdf.hash_size, size=8)
                    ],
                ]
            )
        )
        many = cdf.fractional_rows_for_coverage_many(fractions)
        scalar = np.array(
            [fractional_rows_for_coverage(cdf, float(f)) for f in fractions]
        )
        np.testing.assert_array_equal(many, scalar)

    def test_monotone_in_fraction(self, cdf):
        cdf, rng = cdf
        fractions = np.sort(rng.uniform(0.0, 1.0, size=128))
        rows = cdf.fractional_rows_for_coverage_many(fractions)
        assert np.all(np.diff(rows) >= 0)

    def test_edges(self, cdf):
        cdf, _ = cdf
        rows = cdf.fractional_rows_for_coverage_many(np.array([0.0, 1.0]))
        assert rows[0] == 0.0
        if cdf.total > 0:
            assert rows[1] == pytest.approx(cdf.live_rows)
        else:
            assert rows[1] == 0.0

    def test_rejects_out_of_range(self, cdf):
        cdf, _ = cdf
        with pytest.raises(ValueError):
            cdf.fractional_rows_for_coverage_many(np.array([-0.1]))
        with pytest.raises(ValueError):
            cdf.fractional_rows_for_coverage_many(np.array([1.0 + 1e-9]))


class TestCoverageOfRowsMany:
    def test_matches_scalar_pointwise(self, cdf):
        cdf, rng = cdf
        rows = np.concatenate(
            [
                rng.integers(-3, cdf.hash_size + 3, size=64),
                [0, 1, cdf.live_rows, cdf.hash_size, cdf.hash_size + 1],
            ]
        )
        many = coverage_of_rows_many(cdf, rows)
        scalar = np.array([cdf.coverage_of_rows(int(r)) for r in rows])
        np.testing.assert_array_equal(many, scalar)

    def test_monotone_in_rows(self, cdf):
        cdf, _ = cdf
        rows = np.arange(0, cdf.hash_size + 1)
        cov = coverage_of_rows_many(cdf, rows)
        assert np.all(np.diff(cov) >= 0)
        assert np.all((cov >= 0.0) & (cov <= 1.0))

    def test_preserves_query_shape(self, cdf):
        cdf, rng = cdf
        rows = rng.integers(0, cdf.hash_size + 1, size=(3, 5))
        assert coverage_of_rows_many(cdf, rows).shape == (3, 5)


class TestInverseRoundTrip:
    def test_rows_of_coverage_of_rows(self, cdf):
        """The hottest ``k`` rows' coverage needs at most ``k`` rows."""
        cdf, rng = cdf
        ks = np.unique(rng.integers(0, cdf.hash_size + 1, size=32))
        cov = coverage_of_rows_many(cdf, ks)
        back = cdf.fractional_rows_for_coverage_many(cov)
        assert np.all(back <= ks + 1e-9)

    def test_coverage_of_rows_for_coverage(self, cdf):
        """Ceil'd rows for a fraction really cover that fraction."""
        cdf, rng = cdf
        fractions = rng.uniform(0.0, 1.0, size=32)
        rows = np.ceil(
            cdf.fractional_rows_for_coverage_many(fractions) - 1e-9
        ).astype(np.int64)
        cov = coverage_of_rows_many(cdf, rows)
        if cdf.total > 0:
            assert np.all(cov >= fractions - 1e-12)
        else:
            assert np.all(cov == 0.0)


class TestDegenerateShapes:
    def test_all_zero_counts(self):
        cdf = FrequencyCDF(np.zeros(10))
        fractions = np.linspace(0.0, 1.0, 7)
        np.testing.assert_array_equal(
            cdf.fractional_rows_for_coverage_many(fractions), np.zeros(7)
        )
        np.testing.assert_array_equal(
            coverage_of_rows_many(cdf, np.arange(12)), np.zeros(12)
        )

    def test_single_row(self):
        cdf = FrequencyCDF(np.array([3.0]))
        rows = cdf.fractional_rows_for_coverage_many(
            np.array([0.0, 0.25, 1.0])
        )
        scalar = [
            fractional_rows_for_coverage(cdf, f) for f in (0.0, 0.25, 1.0)
        ]
        np.testing.assert_array_equal(rows, scalar)
        assert coverage_of_rows_many(cdf, np.array([0, 1, 2])).tolist() == [
            0.0,
            1.0,
            1.0,
        ]


# Few distinct values so that ties are the rule; signed zeros and +/-inf
# must tie with themselves exactly as in numpy's stable sort.
_tie_floats = st.sampled_from(
    [0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf, 1e-300]
)
_tie_ints = st.integers(-3, 3) | st.sampled_from(
    [np.iinfo(np.int64).max, np.iinfo(np.int64).min + 1]
)


class TestDescendingOrder:
    """``descending_order(x)`` is exactly ``argsort(-x, kind="stable")``."""

    @staticmethod
    def check(values):
        expected = np.argsort(-values, kind="stable")
        got = descending_order(values)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @given(
        values=hnp.arrays(np.float64, st.integers(0, 300), elements=_tie_floats)
    )
    @settings(max_examples=200, deadline=None)
    def test_float64_with_heavy_ties(self, values):
        self.check(values)

    @given(values=hnp.arrays(np.int64, st.integers(0, 300), elements=_tie_ints))
    @settings(max_examples=200, deadline=None)
    def test_int64_with_heavy_ties(self, values):
        self.check(values)

    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(0, 200),
            elements=st.floats(allow_nan=False, width=64),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_float64_arbitrary(self, values):
        self.check(values)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("size", [0, 1, 2, 1000])
    def test_all_equal_and_tiny(self, dtype, size):
        self.check(np.full(size, 7, dtype=dtype))

    def test_signed_zeros_and_inf_mixed(self):
        values = np.array([0.0, -0.0, np.inf, 0.0, 1.0, -0.0, np.inf, 0.0])
        self.check(values)
        self.check(np.tile(values, 50))

    def test_large_distinct_and_zipf(self):
        rng = np.random.default_rng(7)
        self.check(rng.permutation(5000).astype(np.float64))
        self.check(rng.zipf(1.3, size=20_000).astype(np.float64))
        self.check(rng.zipf(1.3, size=20_000).astype(np.int64))
