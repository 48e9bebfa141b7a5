"""Probability distributions underlying the synthetic sparse features.

Section 3.1 of the paper observes that categorical value frequencies
follow power laws with per-feature strength; Section 3.2 observes that
pooling factors are skewed with a long tail but not power-law shaped.
We model the former with bounded Zipf distributions and the latter with
discretized log-normals.
"""

from __future__ import annotations

import numpy as np


#: Buckets of the key order in :func:`_inverse_cdf`: keys are uint16, so
#: numpy's stable argsort radix-sorts them in linear time.
_KEY_BUCKETS = 1 << 16


def _inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw: ``np.searchsorted(cdf, uniforms, side="right")``.

    Orders the keys by value, searches them in that order and scatters
    the results back.  Each result depends only on its own key's value,
    so the ids are exactly those of the plain search whatever the order.
    The order only makes the search fast: with ascending keys numpy
    starts each bisection at the previous result, and neighbouring keys
    take the same branches and touch the same cache lines, where random
    keys mispredict and miss on every draw.  Bucketing the keys by
    their first 16 binary digits (a radix sort) orders them nearly as
    well as a full argsort at under half its cost.  On bench-scale
    feature banks the draw is more than twice as fast as the plain
    search.  (A guide table loses here: its lookups are slower than
    these, and drift changes every CDF per chunk, so it would be
    rebuilt per chunk.)
    """
    buckets = (uniforms * _KEY_BUCKETS).astype(np.uint16)
    order = np.argsort(buckets, kind="stable")
    ids = np.empty(uniforms.size, dtype=np.int64)
    ids[order] = np.searchsorted(cdf, uniforms.take(order), side="right")
    return ids


class ZipfCategorical:
    """Bounded Zipf distribution over ranks ``0 .. cardinality-1``.

    Rank ``k`` (0-based) has probability proportional to ``(k+1)**-alpha``.
    ``alpha`` controls skew: 0 is uniform, production features typically
    fall between ~0.6 and ~1.6 (Figure 5 shows the resulting CDF spread).
    """

    def __init__(self, cardinality: int, alpha: float):
        if cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {cardinality}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.cardinality = int(cardinality)
        self.alpha = float(alpha)
        self._cdf: np.ndarray | None = None

    @property
    def pmf(self) -> np.ndarray:
        """Probability of each rank, descending by construction."""
        weights = np.arange(1, self.cardinality + 1, dtype=np.float64) ** -self.alpha
        return weights / weights.sum()

    @property
    def cdf(self) -> np.ndarray:
        """Cumulative distribution, cached on this instance.

        Only repeated :meth:`sample` calls on the same instance reuse
        the cache.  :meth:`SparseFeatureSpec.value_distribution
        <repro.data.feature.SparseFeatureSpec.value_distribution>`
        builds a new instance per call, so the generation path (which
        cumulates its own post-hash CDFs) never hits it.
        """
        if self._cdf is None:
            self._cdf = np.cumsum(self.pmf)
            self._cdf[-1] = 1.0  # guard against float drift
        return self._cdf

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` ranks by inverse-CDF sampling."""
        if size == 0:
            return np.empty(0, dtype=np.int64)
        return _inverse_cdf(self.cdf, rng.random(size))

    def __repr__(self) -> str:
        return f"ZipfCategorical(cardinality={self.cardinality}, alpha={self.alpha})"


class UniformCategorical(ZipfCategorical):
    """Uniform categorical distribution (a Zipf with ``alpha == 0``).

    A handful of production features exhibit near-uniform value
    distributions (the flat lines in Figure 5); this models those.
    """

    def __init__(self, cardinality: int):
        super().__init__(cardinality, alpha=0.0)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if size == 0:
            return np.empty(0, dtype=np.int64)
        return rng.integers(0, self.cardinality, size=size, dtype=np.int64)

    def __repr__(self) -> str:
        return f"UniformCategorical(cardinality={self.cardinality})"


class LogNormalPooling:
    """Discretized log-normal pooling-factor distribution with a set mean.

    The paper chooses the *mean* pooling factor as the per-feature summary
    statistic because it over- rather than under-estimates bandwidth
    demand (Section 3.2); this class is parameterized directly by that
    mean.  Samples are rounded to integers and clipped to ``>= 1``.
    """

    def __init__(self, mean: float, sigma: float = 0.75, max_pool: int | None = None):
        if mean < 1:
            raise ValueError(f"mean pooling factor must be >= 1, got {mean}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.mean = float(mean)
        self.sigma = float(sigma)
        self.max_pool = max_pool
        # E[LogNormal(mu, sigma)] = exp(mu + sigma^2 / 2)  =>  solve for mu.
        self._mu = np.log(self.mean) - self.sigma**2 / 2.0

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` integer pooling factors (each >= 1)."""
        if size == 0:
            return np.empty(0, dtype=np.int64)
        raw = rng.lognormal(self._mu, self.sigma, size=size)
        pools = np.maximum(1, np.rint(raw)).astype(np.int64)
        if self.max_pool is not None:
            pools = np.minimum(pools, self.max_pool)
        return pools

    def __repr__(self) -> str:
        return f"LogNormalPooling(mean={self.mean}, sigma={self.sigma})"


def log_uniform(
    low: float, high: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample log-uniformly from ``[low, high]`` (used for cardinalities)."""
    if low <= 0 or high < low:
        raise ValueError(f"need 0 < low <= high, got [{low}, {high}]")
    return np.exp(rng.uniform(np.log(low), np.log(high), size=size))
