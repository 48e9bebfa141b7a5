"""Synthetic trace generation.

Produces an endless stream of :class:`~repro.data.batch.JaggedBatch`
training batches whose per-feature statistics follow the model spec: each
feature appears with its coverage probability, draws a pooling factor
from its pooling distribution, and draws that many (hashed) embedding
indices from its post-hash access distribution.

Indices are sampled directly from the post-hash distribution (the raw
Zipf pmf pushed through the feature's hash function, cached per feature)
— statistically identical to sampling raw values and hashing each one,
but without holding multi-million-entry raw CDFs resident.

Each feature's ids for a batch are one inverse-CDF draw over its
post-hash CDF, and these draws are most of generation's cost.  The draw
orders its uniforms by value (a radix sort of their first 16 binary
digits), runs one ``searchsorted`` over the ordered keys and scatters
the ids back to draw order (:func:`~repro.data.distributions._inverse_cdf`).
A search result depends only on its key's value, so the ids equal the
plain ``np.searchsorted(cdf, uniforms, side="right")`` bit for bit and
every seed-pinned stream is unchanged; ordered keys just make the
search more than twice as fast as bisecting with random keys.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.batch import JaggedBatch, JaggedFeature
from repro.data.distributions import _inverse_cdf
from repro.data.model import ModelSpec


class _FeatureSampler:
    """Cached per-feature sampling state.

    The expensive pieces — hashing the raw value space and cumulating
    the post-hash pmf — are cached behind keys of the spec fields they
    depend on, so :meth:`update` can follow a drifting feature spec
    (whose pooling mean changes every chunk) without rebuilding the
    multi-million-entry CDF unless the value distribution or hashing
    actually changed.  Retaining the hashed value space costs
    ``8 * cardinality`` resident bytes per feature, so it is opt-in
    (``cache_hashed``): :class:`SamplerBank` holders that refresh
    across drifted models want it; a one-shot :class:`TraceGenerator`
    does not.
    """

    __slots__ = (
        "coverage", "pooling", "post_hash_cdf",
        "_pooling_key", "_cdf_key", "_hash_key", "_hashed", "_cache_hashed",
    )

    def __init__(self, feature, cache_hashed: bool = False):
        self._pooling_key = None
        self._cdf_key = None
        self._hash_key = None
        self._hashed = None
        self._cache_hashed = cache_hashed
        self.update(feature)

    def update(self, feature) -> None:
        """Re-target this sampler at ``feature``, reusing unchanged state."""
        self.coverage = feature.coverage
        pooling_key = (feature.avg_pooling, feature.pooling_sigma)
        if pooling_key != self._pooling_key:
            self._pooling_key = pooling_key
            self.pooling = feature.pooling_distribution()
        cdf_key = (
            feature.cardinality, feature.hash_size,
            feature.hash_seed, feature.alpha,
        )
        if cdf_key != self._cdf_key:
            self._cdf_key = cdf_key
            if self._cache_hashed:
                # The hashed image of the raw value space depends only
                # on the hash configuration, not the Zipf exponent, so
                # alpha-only drift reuses it across rebuilds.
                hash_key = (feature.cardinality, feature.hash_size, feature.hash_seed)
                if hash_key != self._hash_key:
                    self._hash_key = hash_key
                    self._hashed = feature.hash_values(
                        np.arange(feature.cardinality, dtype=np.int64)
                    )
                pmf = feature.post_hash_pmf(hashed=self._hashed)
            else:
                pmf = feature.post_hash_pmf()
            cdf = np.cumsum(pmf)
            cdf[-1] = 1.0
            self.post_hash_cdf = cdf

    def sample_feature(
        self, batch_size: int, rng: np.random.Generator
    ) -> JaggedFeature:
        present = rng.random(batch_size) < self.coverage
        lengths = np.zeros(batch_size, dtype=np.int64)
        num_present = int(present.sum())
        if num_present:
            lengths[present] = self.pooling.sample(num_present, rng)
        offsets = np.zeros(batch_size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        if total:
            values = _inverse_cdf(self.post_hash_cdf, rng.random(total))
        else:
            values = np.empty(0, dtype=np.int64)
        return JaggedFeature(values, offsets)


class SamplerBank:
    """Reusable per-feature sampler state shared across model revisions.

    Drifting request streams re-derive the model spec chunk after chunk
    (:func:`repro.serving.loadgen.synthetic_request_arenas`); rebuilding
    every feature's post-hash CDF per chunk dominated generation cost.
    A bank keeps one :class:`_FeatureSampler` per table and
    :meth:`refresh` updates each in place, rebuilding only the state
    whose underlying spec fields actually changed.
    """

    def __init__(self, model: ModelSpec | None = None):
        self._samplers: list[_FeatureSampler] = []
        self._features: list = []
        if model is not None:
            self.refresh(model)

    @property
    def samplers(self) -> list[_FeatureSampler]:
        return self._samplers

    def refresh(self, model: ModelSpec) -> list[_FeatureSampler]:
        """Align the bank with ``model``, reusing samplers where possible."""
        features = [t.feature for t in model.tables]
        if len(features) != len(self._samplers):
            del self._samplers[len(features):]
            del self._features[len(features):]
        for j, feature in enumerate(features):
            if j < len(self._samplers):
                if feature != self._features[j]:
                    self._samplers[j].update(feature)
                    self._features[j] = feature
            else:
                self._samplers.append(_FeatureSampler(feature, cache_hashed=True))
                self._features.append(feature)
        return self._samplers

    def sample_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> JaggedBatch:
        """Draw one jagged batch from the bank's current statistics."""
        return JaggedBatch(
            [s.sample_feature(batch_size, rng) for s in self._samplers]
        )


class TraceGenerator:
    """Generates synthetic training batches for a :class:`ModelSpec`.

    Args:
        model: the model spec whose features drive generation.
        batch_size: samples per batch.
        seed: RNG seed; a given (model, seed) pair replays identically.
    """

    def __init__(self, model: ModelSpec, batch_size: int, seed: int = 0):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        # No bank: a generator's model never drifts, so the hashed
        # value space is not worth keeping resident per feature.
        self._samplers = [_FeatureSampler(t.feature) for t in model.tables]
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        """Rewind the stream to its first batch."""
        self._rng = np.random.default_rng(self.seed)

    def next_batch(self) -> JaggedBatch:
        return JaggedBatch(
            [s.sample_feature(self.batch_size, self._rng) for s in self._samplers]
        )

    def batches(self, count: int) -> Iterator[JaggedBatch]:
        """Yield ``count`` consecutive batches."""
        for _ in range(count):
            yield self.next_batch()

    def expected_lookups_per_batch(self) -> float:
        """Expected total embedding rows touched per batch (all features)."""
        return self.batch_size * sum(
            t.feature.expected_lookups_per_sample() for t in self.model.tables
        )
