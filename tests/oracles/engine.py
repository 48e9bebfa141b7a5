"""Scalar reference engine: per-lookup remap-table classification, a
per-device greedy fast-lane selection and a per-group reduce.

The shipped :class:`~repro.engine.executor.ShardedExecutor` picks every
shard's fast lanes in one sorted pass, classifies by gathering one lane
code per lookup into per-segment counts, pools them over static segment
labels, and routes replicated lookups with the closed-form
:func:`~repro.engine.executor.least_loaded_counts`.
:class:`ScalarExecutor` is the implementation it is pinned against: it
reads every table's shards off its strategy, fills each device's cache
and staging budgets row by row, hottest first, resolves every lookup
through the Section 4.3 remapping tables
(:class:`~repro.core.remap.RemappingTable`) to its rank and, on each
shard holding it, its lane (home, fast or replica), groups the lookups
of a table by tier and lane vector, reduces group by group (column
shares, brownout skips, fault drops), charges fast-lane bytes at their
home tier and then moves them to the fast lane's bandwidth, and assigns
replicated lookups one at a time to the argmin device.  Selection,
classification and reduction are all independent of the shipped code.

:func:`scalar_executors` swaps the class into a module's
``ShardedExecutor`` global for the duration of a block, which is how
the server oracle builds its executors.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from repro.core.plan import TableStrategy
from repro.core.remap import RemappingLayer, RemappingTable
from repro.core.strategies import proportional_split
from repro.data.batch import JaggedBatch
from repro.engine.executor import ShardedExecutor

#: A lookup's lane on one shard of its table (0: the shard does not
#: hold the lookup's row).
HOME, FAST, REPLICA = 1, 2, 3


class ScalarExecutor(ShardedExecutor):
    """The executor's per-lookup reference path."""

    def __init__(self, model, plan, profile, topology, cache=None, staging=None):
        super().__init__(
            model, plan, profile, topology, cache=cache, staging=staging
        )
        self._tier_inv_bw = np.array(
            [1.0 / tier.bandwidth for tier in topology.tiers], dtype=np.float64
        )
        self._tier_lo = np.column_stack(
            (np.zeros(len(plan), dtype=np.int64), self._tier_bounds[:, :-1])
        )
        # Every table's physical shards, read off its strategy:
        # (device, rank_lo, rank_hi, dim, row bytes).
        strategies = plan.table_strategies or (TableStrategy(),) * len(plan)
        self._table_shards = []
        for placement, strat, table in zip(plan, strategies, model.tables):
            rows = table.num_rows
            if strat.kind == "column":
                shards = [
                    (d, 0, rows, dim, dim * table.dtype_bytes)
                    for d, dim in zip(strat.devices, strat.dims)
                ]
            elif strat.kind == "twrw":
                cuts = (0, *strat.row_cuts, rows)
                shards = [
                    (d, lo, hi, table.dim, table.row_bytes)
                    for d, lo, hi in zip(strat.devices, cuts, cuts[1:])
                ]
            else:
                shards = [
                    (placement.device, 0, rows, table.dim, table.row_bytes)
                ]
            self._table_shards.append(shards)
        self._fast_end = self._greedy_fast_lanes()

    def _greedy_fast_lanes(self) -> list[np.ndarray]:
        """Per table, ``(shards, tiers)`` ranks where each shard's fast
        lane in each tier ends.

        For every device and tier, the rows its shards hold in the tier
        (tables never accessed aside) line up in (table, rank) order,
        are sorted hottest first by profiled count (ties keep the line
        order), and are admitted one at a time until the next does not
        fit the tier's budget: the cache's for tier 0, the staging
        model's for a colder tier.
        """
        num_tiers = self.topology.num_tiers
        budgets = [0] * num_tiers
        if self.cache is not None:
            budgets[0] = self.cache.capacity_bytes
        if self.staging is not None:
            for t in range(1, num_tiers):
                budgets[t] = self.staging.capacity_for(t)
        fast_end = [
            np.array([np.maximum(self._tier_lo[j], lo) for _, lo, *_ in shards])
            for j, shards in enumerate(self._table_shards)
        ]
        for device in range(self.topology.num_devices):
            for t, budget in enumerate(budgets):
                if budget <= 0:
                    continue
                line = []
                for j, shards in enumerate(self._table_shards):
                    stats = self.profile[j]
                    if stats.total_accesses <= 0:
                        continue
                    for k, (d, lo, hi, _, row_bytes) in enumerate(shards):
                        first = max(lo, int(self._tier_lo[j, t]))
                        end = min(hi, int(self._tier_bounds[j, t]))
                        if d != device or first >= end:
                            continue
                        ranked = stats.counts[stats.cdf.row_order[first:end]]
                        for count in ranked.tolist():
                            line.append((-count, len(line), j, k, row_bytes))
                used = 0
                for _, _, j, k, row_bytes in sorted(line):
                    if used + row_bytes > budget:
                        break
                    used += row_bytes
                    fast_end[j][k, t] += 1
        return fast_end

    @functools.cached_property
    def remap_tables(self) -> list[RemappingTable]:
        """Per-table (tier, offset) remapping, built on first use."""
        return RemappingLayer.from_plan(self.plan, self.profile).tables

    def run_batch(self, batch: JaggedBatch):
        return self._reduce_groups(self._classify_scalar(batch))

    def classify_batch(self, batch: JaggedBatch):
        return self._classify_scalar(batch)

    def reduce_classified(self, groups):
        return self._reduce_groups(groups)

    def _classify_scalar(self, batch: JaggedBatch):
        """Per-lookup remap-table classification of one batch (no reduce).

        Every lookup resolves to its ``(tier, offset)``, hence its rank,
        and on each shard of its table to a lane code (0 where the
        shard does not hold the row).  Returns, per table, the distinct
        ``(tier, lane codes)`` group keys (``tier`` then one base-4
        digit per shard) and their lookup counts.
        """
        groups = []
        for j, feature in enumerate(batch):
            tiers, offsets = self.remap_tables[j].apply(feature.values)
            ranks = self._tier_lo[j, tiers] + offsets
            key = tiers.astype(np.int64)
            for k, (_, lo, hi, _, _) in enumerate(self._table_shards[j]):
                lane = np.where(
                    ranks < self._replica_cut[j], REPLICA,
                    np.where(ranks < self._fast_end[j][k, tiers], FAST, HOME),
                )
                key = key * 4 + np.where((lo <= ranks) & (ranks < hi), lane, 0)
            groups.append(np.unique(key, return_counts=True))
        return groups

    def _reduce_groups(self, groups):
        """Pool per-group lookup counts into per-(tier, device) metrics.

        Group by group: replicated lookups leave for the router; the
        rest split across the holding shards by dim (largest remainder)
        and land on each shard's device in the group's tier, unless
        brownout skips a cold home share.  Then fault drops, replica
        routing, and each fast lane's hit bytes moved from its tier's
        bandwidth to the fast lane's.
        """
        num_devices = self.topology.num_devices
        num_tiers = self.topology.num_tiers
        accesses = np.zeros((num_tiers, num_devices), dtype=np.int64)
        tier_hits = np.zeros_like(accesses)
        traffic = np.zeros((num_tiers, num_devices), dtype=np.float64)
        hit_bytes = np.zeros_like(traffic)
        home_bytes = np.zeros(num_devices, dtype=np.int64)
        replicas = np.zeros(len(self.plan), dtype=np.int64)
        alive = self._device_alive
        route = self._has_replicas and alive.any()
        self.last_browned[:] = 0
        for j, (keys, counts) in enumerate(groups):
            shards = self._table_shards[j]
            for key, n in zip(keys.tolist(), counts.tolist()):
                lanes = []
                for _ in shards:
                    key, lane = divmod(key, 4)
                    lanes.insert(0, lane)
                tier = key
                held = [k for k, lane in enumerate(lanes) if lane]
                if route and lanes[held[0]] == REPLICA:
                    replicas[j] += n
                    continue
                shares = proportional_split(
                    [n], [shards[k][3] for k in held]
                )[0].tolist()
                for k, share in zip(held, shares):
                    device, *_, row_bytes = shards[k]
                    fast = lanes[k] == FAST
                    if self._brownout and tier > 0 and not fast:
                        self.last_browned[tier, self.device_of[j]] += share
                        self.browned_by_table[j] += share
                        continue
                    accesses[tier, device] += share
                    traffic[tier, device] += n * row_bytes
                    home_bytes[device] += n * row_bytes
                    if fast:
                        tier_hits[tier, device] += share
                        hit_bytes[tier, device] += n * row_bytes
        self.last_dropped[:] = 0
        dead = ~alive
        if dead.any():
            self.last_dropped[dead] = accesses[:, dead].sum(axis=0)
            for metric in (accesses, traffic, tier_hits, hit_bytes):
                metric[:, dead] = 0
            home_bytes[dead] = 0
        replica_accesses = np.zeros(num_devices, dtype=np.int64)
        if route:
            self._replica_load += home_bytes
            replica_accesses, replica_bytes = self._route_replicas(replicas)
            accesses[0] += replica_accesses
            traffic[0] += replica_bytes
        times = (traffic * self._tier_inv_bw[:, None]).sum(axis=0)
        for t in range(num_tiers):
            if hit_bytes[t].any():
                fast_inv_bw = (
                    1.0 / self.cache.bandwidth if t == 0
                    else self._tier_inv_bw[t - 1]
                )
                times -= hit_bytes[t] * self._tier_inv_bw[t]
                times += hit_bytes[t] * fast_inv_bw
        if (self._device_slowdown != 1.0).any():
            times = times * self._device_slowdown
        return times * 1e3, accesses, tier_hits, replica_accesses

    def _route_replicas(self, replicas: np.ndarray):
        """Assign each replicated lookup to the argmin-load survivor (ties
        to the lowest device id), one lookup at a time, features in
        trace order."""
        alive_idx = np.flatnonzero(self._device_alive)
        load = self._replica_load
        acc = np.zeros(self.topology.num_devices, dtype=np.int64)
        routed_bytes = np.zeros_like(acc)
        for j in np.flatnonzero(replicas):
            w = int(self._row_bytes_int[j])
            taken = np.zeros_like(acc)
            for _ in range(int(replicas[j])):
                device = int(alive_idx[np.argmin(load[alive_idx])])
                taken[device] += 1
                load[device] += w
            acc += taken
            routed_bytes += taken * w
        return acc, routed_bytes.astype(np.float64)


#: Relative tolerance on device times where a cache or staging lane
#: reads bytes at a second bandwidth: the oracle charges hit bytes at
#: their home tier and then moves them (a subtract and an add), the
#: shipped reduce charges them once, so the two round differently.
FAST_LANE_RTOL = 1e-12


def assert_same_times(got, want, executor) -> None:
    """Device times bit-identical, or within :data:`FAST_LANE_RTOL`
    where ``executor`` has a cache or staging lane."""
    if executor.cache is None and executor.staging is None:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=FAST_LANE_RTOL, atol=0)


@contextlib.contextmanager
def scalar_executors(module):
    """Within the block, ``module.ShardedExecutor`` is the scalar oracle."""
    real = module.ShardedExecutor
    module.ShardedExecutor = ScalarExecutor
    try:
        yield
    finally:
        module.ShardedExecutor = real
