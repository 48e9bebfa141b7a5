"""Frequency-informed caching/staging models for the execution engine.

Two levels of the same idea — serve statically-predicted-hot rows from
a faster lane than their home tier — at the same level of abstraction
as the rest of the engine:

* :class:`CacheModel` — the paper's Table 3 locality effect.  RM1's
  *mean* per-GPU time improves under RecShard even though RM1 fits
  entirely in HBM, impossible under a purely additive bandwidth model.
  The gain comes from each GPU's cache (L2) retaining its hottest
  embedding rows; per device, the expectedly-hottest HBM-resident rows
  up to the cache capacity are served at cache bandwidth instead of
  HBM bandwidth.
* :class:`TierStagingModel` — the Section 4.4 capacity-scaling
  counterpart for hierarchies deeper than HBM+UVM.  Each cold tier's
  statically-hottest resident rows (the leading rows of every table's
  tier block, by construction of the frequency-ordered split) are
  staged into a per-device buffer carved out of the next-faster tier
  and served at *that* tier's bandwidth.  This is RecShard's
  "statistics beat reactive caching" claim made runnable: the rows a
  steady-state LRU would converge to under independent draws are known
  up front from the profiled CDF, so the staging set is computed once
  per plan install instead of being discovered by misses (the
  RecSSD/RecNMP observation that cold-tier lookups dominate inference
  latency unless hot rows are staged in faster memory).

Because RecShard's remapping packs each table's hottest rows first,
"expectedly hottest" is simply a per-(table, tier) rank threshold in
both models.  Both are off by default; ``bench_ablation_cache.py``
quantifies the cache's effect on the RM1 comparison and
``bench_serving_multitier.py`` exercises staging on a three-tier
serving topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.cdf import descending_order


@dataclass(frozen=True)
class CacheModel:
    """Device cache parameters.

    Attributes:
        capacity_bytes: cache bytes available for embedding rows per
            device (A100: 40 MB L2; scale it like the other capacities).
        bandwidth: effective bytes/second for cache hits.
    """

    capacity_bytes: int
    bandwidth: float

    def __post_init__(self):
        if not 0 <= self.capacity_bytes < np.inf:
            raise ValueError("cache capacity must be >= 0 and finite")
        if not 0 < self.bandwidth < np.inf:
            raise ValueError("cache bandwidth must be > 0 and finite")


@dataclass(frozen=True)
class TierStagingModel:
    """Frequency-informed staging of cold-tier rows into faster memory.

    For every cold tier ``t >= 1`` of a topology, a per-device buffer of
    ``capacity_for(t)`` bytes in tier ``t - 1`` holds the
    statically-hottest tier-``t``-resident rows of the device's tables;
    accesses to staged rows are charged at tier ``t - 1``'s bandwidth
    while still being *counted* against their home tier (staging is a
    bandwidth effect, not a placement change — Table 5 access counts
    are unaffected).

    Attributes:
        capacity_bytes: staging buffer per device per cold tier.  A
            single int applies the same budget to every cold tier; a
            tuple gives tier ``t`` the budget at index ``t - 1``
            (missing entries mean no staging for that tier).
    """

    capacity_bytes: int | tuple[int, ...]

    def __post_init__(self):
        caps = (
            self.capacity_bytes
            if isinstance(self.capacity_bytes, tuple)
            else (self.capacity_bytes,)
        )
        if not all(0 <= c < np.inf for c in caps):
            raise ValueError("staging capacity must be >= 0 and finite")

    def capacity_for(self, tier_index: int) -> int:
        """Staging budget (bytes/device) for cold tier ``tier_index``."""
        if tier_index < 1:
            raise ValueError("staging applies to cold tiers (index >= 1)")
        if isinstance(self.capacity_bytes, tuple):
            offset = tier_index - 1
            if offset >= len(self.capacity_bytes):
                return 0
            return int(self.capacity_bytes[offset])
        return int(self.capacity_bytes)


def _hottest_rows(budget: int, profile, model, tables, lo, hi) -> np.ndarray:
    """How many leading rows of each rank block fit ``budget`` bytes.

    Rows of every listed table's rank block ``[lo, hi)`` compete by
    profiled access count, hottest first (the profile's ranked-count
    gather; tables never accessed do not compete): exactly the
    steady-state content of an LRU over those rows under independent
    reference draws.  Returns the admitted row count per model table.
    """
    tables = np.asarray(tables, dtype=np.int64)
    accessed = profile.total_accesses[tables] > 0
    counts, owners = profile.ranked_counts(
        tables, lo, np.where(accessed, hi, lo)
    )
    row_bytes = np.array([t.row_bytes for t in model.tables], dtype=np.int64)
    order = descending_order(counts)
    cum_bytes = np.cumsum(row_bytes[owners[order]])
    take = int(np.searchsorted(cum_bytes, budget, side="right"))
    return np.bincount(owners[order[:take]], minlength=model.num_tables)


def staged_rows_per_table(
    staging: TierStagingModel,
    plan,
    profile,
    model,
    num_tiers: int,
    device: int,
) -> np.ndarray:
    """Per-(table, tier) counts of leading tier rows staged one tier up.

    Same greedy-by-expected-count selection as
    :func:`cached_rows_per_table`, run independently per cold tier: all
    rows resident on tier ``t`` across the device's tables compete for
    the tier's staging budget, hottest first — computed from
    statistics instead of discovered by misses.

    Returns:
        ``(num_tables, num_tiers)`` int64 array; entry ``[j, t]`` is how
        many leading rows of table ``j``'s tier-``t`` block are staged
        (column 0 is always zero — the fastest tier has nowhere faster
        to stage into; :class:`CacheModel` covers that lane).
    """
    staged = np.zeros((len(plan), num_tiers), dtype=np.int64)
    members = [p for p in plan if p.device == device]
    if not members:
        return staged
    tables = [p.table_index for p in members]
    bounds = np.cumsum(
        [(0,) + tuple(p.rows_per_tier) for p in members], axis=1
    )
    for tier in range(1, num_tiers):
        budget = staging.capacity_for(tier)
        if budget > 0:
            staged[:, tier] = _hottest_rows(
                budget, profile, model, tables,
                bounds[:, tier], bounds[:, tier + 1],
            )
    return staged


def cached_rows_per_table(
    cache: CacheModel,
    plan,
    profile,
    model,
    device: int,
) -> dict[int, int]:
    """How many leading (hottest) HBM rows of each table fit the cache.

    Greedy by expected per-row access count across all tables assigned
    to ``device``: exactly the steady-state content of an LRU cache
    under independent reference draws. Only HBM-resident rows compete
    (UVM reads stream through without useful reuse at this granularity).

    Returns {table_index: cached row count}; tables absent from the
    device are omitted.
    """
    members = [p for p in plan if p.device == device]
    if not members or cache.capacity_bytes <= 0:
        return {p.table_index: 0 for p in members}
    tables = [p.table_index for p in members]
    cached = _hottest_rows(
        cache.capacity_bytes, profile, model, tables, 0,
        [p.rows_per_tier[0] for p in members],
    )
    return {j: int(cached[j]) for j in tables}
