"""Frequency-informed caching/staging models for the execution engine.

Two levels of the same idea — serve statically-predicted-hot rows from
a faster lane than their home tier — at the same level of abstraction
as the rest of the engine:

* :class:`CacheModel` — the paper's Table 3 locality effect.  RM1's
  *mean* per-GPU time improves under RecShard even though RM1 fits
  entirely in HBM, impossible under a purely additive bandwidth model.
  The gain comes from each GPU's cache (L2) retaining its hottest
  embedding rows; per device, the expectedly-hottest HBM-resident rows
  of its shards up to the cache capacity are served at cache bandwidth
  instead of HBM bandwidth.
* :class:`TierStagingModel` — the Section 4.4 capacity-scaling
  counterpart for hierarchies deeper than HBM+UVM.  Each cold tier's
  statically-hottest resident rows (the leading rows of every shard's
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
"expectedly hottest" is simply a per-(shard, tier) rank threshold in
both models, and one selection, :func:`fast_lane_cutoffs`, fills every
device's cache and staging budgets in one pass.  A shard is the
physical unit (:meth:`~repro.core.plan.ShardingPlan.shards`), so the
lanes compose with every per-table strategy: a twrw shard's hot set is
its own rank range's, a column shard's its own dim slice's.  Both are
off by default; ``bench_ablation_cache.py``
quantifies the cache's effect on the RM1 comparison and
``bench_serving_multitier.py`` exercises staging on a three-tier
serving topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import crossing_cells
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


def fast_lane_cutoffs(
    cache: CacheModel | None,
    staging: TierStagingModel | None,
    plan,
    profile,
    model,
    num_tiers: int,
) -> np.ndarray:
    """Where each shard's fast lane ends in each tier, in rank space.

    A *block* is the part of one physical shard
    (:meth:`~repro.core.plan.ShardingPlan.shards`) that lies in one
    tier: the crossing of the table's tier range with the shard's rank
    range, read at the shard's row bytes (``dim * dtype_bytes``, so a
    column shard's hot set is its own slice).  On every device, the
    rows of its tier-0 blocks compete for the cache's capacity and the
    rows of its tier-``t`` blocks for the staging budget of tier ``t``,
    hottest first by profiled count (ties to the (table, rank) order;
    tables never accessed do not compete): exactly the steady-state
    content of an LRU over those rows under independent reference
    draws.  The longest hottest-first prefix that fits each budget is
    admitted, which is a leading run of every block.

    Returns:
        ``(shards, tiers)`` int64: shard ``k``'s tier-``t`` ranks in
        ``[max(tier start, rank_lo[k]), cutoffs[k, t])`` are served from
        the fast lane; an empty lane ends where its block starts.
    """
    shards = plan.shards(model)
    num_shards = shards.table.size
    rows = np.array(
        [p.rows_per_tier for p in plan], dtype=np.int64
    ).reshape(len(plan), num_tiers)
    # (tiers + 1, shards) tier boundaries of each shard's table.
    prefix = np.concatenate(
        (np.zeros((1, len(plan)), dtype=np.int64), rows.cumsum(1).T)
    )[:, shards.table]
    budget = np.zeros(num_tiers, dtype=np.int64)
    if cache is not None:
        budget[0] = cache.capacity_bytes
    if staging is not None:
        budget[1:] = [staging.capacity_for(t) for t in range(1, num_tiers)]
    dtype_bytes = np.array([t.dtype_bytes for t in model.tables])
    row_bytes = shards.dim * dtype_bytes[shards.table]
    # (tiers, shards): where each block starts and how many rows compete.
    # A block's admitted rows are a leading run of at most
    # budget // row_bytes, so its rows past the next one always sort
    # after the first row that does not fit, and never compete.
    lo = np.maximum(prefix[:-1], shards.rank_lo).ravel()
    size = np.minimum(
        crossing_cells(prefix, shards.rank_lo, shards.rank_hi),
        budget[:, None] // row_bytes + 1,
    )
    size[budget <= 0] = 0
    size[:, profile.total_accesses[shards.table] <= 0] = 0
    size = size.ravel()
    # Blocks run tier by tier, shards (hence tables) in order within a
    # tier, so every device lists its candidates in (table, rank) order.
    blocks = np.flatnonzero(size)
    counts, _ = profile.ranked_counts(
        shards.table[blocks % num_shards], lo[blocks], lo[blocks] + size[blocks]
    )
    block = np.repeat(blocks, size[blocks])
    shard = block % num_shards
    group = shards.device[shard] * num_tiers + block // num_shards
    # Hottest first, then (stably) grouped by (device, tier): a small
    # integer key sorts in linear time.
    order = descending_order(counts)
    key = group.astype(np.min_scalar_type(group.max(initial=0)))
    order = order[np.argsort(key[order], kind="stable")]
    block, group = block[order], group[order]
    nbytes = row_bytes[shard[order]]
    cum = np.cumsum(nbytes)
    # Bytes of the groups sorted before each candidate's own.
    members = np.bincount(group)
    before = (cum - nbytes)[(np.cumsum(members) - members)[group]]
    fits = cum - before <= budget[group % num_tiers]
    cutoffs = lo + np.bincount(block[fits], minlength=lo.size)
    return cutoffs.reshape(num_tiers, num_shards).T
