"""Frequency-rank trace representation — a plan-independent trace.

Every sharding strategy in this repo splits a table's rows in the same
descending-frequency order (the profile's
:class:`~repro.stats.cdf.FrequencyCDF` ranking); plans differ only in
where they cut that ranking into tier blocks and which device owns the
table.  That makes the *rank* of a hashed index — its position in the
profile's frequency ordering — a plan-independent quantity, and it is
the only per-lookup quantity any tier accounting ever needs:

* the tier serving a lookup is the tier block its rank falls in
  (``searchsorted`` over the plan's cumulative ``rows_per_tier``);
* a device-cache hit is simply ``rank < cached_rows`` because the
  remapping layer (Section 4.3) packs each table's hottest rows first.

:class:`RankRemapper` performs this hashed-index → rank translation
for a whole trace (:meth:`~repro.engine.executor.ShardedExecutor.prepare`),
mirroring the paper's remapping transform that runs in the
data-loading pipeline.  The resulting :class:`RankedBatch` replays
against any number of plans sharing the profile.  The vectorized
:class:`~repro.engine.executor.ShardedExecutor` does not need ranks to
classify: it gathers each lookup's lane code by hashed id, and a
ranked batch gathers the same codes by rank instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batch import JaggedBatch, JaggedFeature


@dataclass(frozen=True)
class RankedFeature:
    """One feature's lookups translated to frequency-rank space.

    Attributes:
        ranks: frequency rank of each lookup, shape ``(total_lookups,)``
            — rank 0 is the table's expectedly-hottest row.  Stored as
            ``int32`` whenever the table fits (all paper-scale tables
            do), halving the trace's memory.
        offsets: segment offsets, shape ``(batch_size + 1,)`` — same
            jagged layout as :class:`~repro.data.batch.JaggedFeature`.
    """

    ranks: np.ndarray
    offsets: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.offsets.size - 1

    @property
    def total_lookups(self) -> int:
        return int(self.ranks.size)


@dataclass(frozen=True)
class RankedBatch:
    """A full batch in rank space: one :class:`RankedFeature` per table.

    Produced by :meth:`RankRemapper.rank_batch`; consumed by
    :meth:`~repro.engine.executor.ShardedExecutor.run_ranked`.  A ranked
    batch is tied to the profile whose ranking produced it, but not to
    any plan — the same ranked trace replays against every strategy.
    """

    features: tuple[RankedFeature, ...]

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def batch_size(self) -> int:
        return self.features[0].batch_size if self.features else 0

    @property
    def total_lookups(self) -> int:
        return sum(f.total_lookups for f in self.features)

    def __iter__(self):
        return iter(self.features)

    def __getitem__(self, feature_index: int) -> RankedFeature:
        return self.features[feature_index]


class RankRemapper:
    """Translates hashed embedding indices to frequency ranks.

    One remapper serves every strategy evaluated against a given
    profile: build it once per (model, profile) pair and share the
    ranked traces it produces.

    Args:
        profile: a :class:`~repro.stats.profiler.ModelProfile`; each
            table's ``cdf.row_order`` defines the ranking.

    Example::

        remapper = RankRemapper(profile)
        ranked = [remapper.rank_batch(b) for b in batches]
        for executor in executors:          # one per strategy
            metrics = executor.run(ranked)  # no re-ranking per strategy
    """

    def __init__(self, profile):
        self._rank_of_row: list[np.ndarray] = []
        for stats in profile:
            order = np.asarray(stats.cdf.row_order, dtype=np.int64)
            dtype = np.int32 if order.size <= np.iinfo(np.int32).max else np.int64
            rank = np.empty(order.size, dtype=dtype)
            rank[order] = np.arange(order.size, dtype=dtype)
            self._rank_of_row.append(rank)

    @property
    def num_tables(self) -> int:
        return len(self._rank_of_row)

    def rank_dtype(self, table_index: int) -> np.dtype:
        """Rank storage dtype of one table (int32 unless the table is huge)."""
        return self._rank_of_row[table_index].dtype

    def rank_feature(self, table_index: int, feature: JaggedFeature) -> RankedFeature:
        """Rank one feature's lookups (one gather, int32 output)."""
        values = feature.values
        if values.size == 0:
            ranks = np.empty(0, dtype=self._rank_of_row[table_index].dtype)
        else:
            ranks = np.take(self._rank_of_row[table_index], values)
        return RankedFeature(ranks, feature.offsets)

    def rank_batch(self, batch: JaggedBatch) -> RankedBatch:
        """Translate a whole jagged batch to rank space."""
        if batch.num_features != self.num_tables:
            raise ValueError(
                f"batch has {batch.num_features} features, remapper covers "
                f"{self.num_tables} tables"
            )
        return RankedBatch(
            tuple(
                self.rank_feature(j, feature) for j, feature in enumerate(batch)
            )
        )

    def rank_trace(self, batches) -> list[RankedBatch]:
        """Rank a sequence of batches (amortizes across strategies)."""
        return [self.rank_batch(b) for b in batches]
