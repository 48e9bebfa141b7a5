"""Scalar reference engine: per-lookup remap-table classification and a
per-lane reduce.

The shipped :class:`~repro.engine.executor.ShardedExecutor` classifies
by gathering one lane code per lookup into per-segment counts, pools
them over static segment labels, and routes replicated lookups with the
closed-form :func:`~repro.engine.executor.least_loaded_counts`.
:class:`ScalarExecutor` is the implementation it is pinned against: it
resolves every lookup through the Section 4.3 remapping tables
(:class:`~repro.core.remap.RemappingTable`), derives per-lane counts —
``(counts, hits, replicas, cuts)``: per-(table, tier) accesses, fast-lane
hits, replica-lane counts and twrw cut prefixes — from the resolved
``(tier, offset)`` pairs, reduces them lane by lane (a brownout clamp,
per-kind column/twrw scatters, a hit subtract/add pass), and assigns
replicated lookups one at a time to the argmin device.  Classification
and reduction are both independent of the shipped code.

:func:`scalar_executors` swaps the class into a module's
``ShardedExecutor`` global for the duration of a block, which is how
the server oracle builds its executors.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from repro.core.plan import crossing_cells
from repro.core.remap import RemappingLayer, RemappingTable
from repro.core.strategies import proportional_split
from repro.data.batch import JaggedBatch
from repro.engine.cache import cached_rows_per_table, staged_rows_per_table
from repro.engine.executor import ShardedExecutor


class ScalarExecutor(ShardedExecutor):
    """The executor's per-lookup reference path."""

    def __init__(self, model, plan, profile, topology, cache=None, staging=None):
        super().__init__(
            model, plan, profile, topology, cache=cache, staging=staging
        )
        num_tables, num_tiers = model.num_tables, topology.num_tiers
        self.row_bytes = np.array(
            [t.row_bytes for t in model.tables], dtype=np.float64
        )
        self._tier_inv_bw = np.array(
            [1.0 / tier.bandwidth for tier in topology.tiers], dtype=np.float64
        )
        self._cache_threshold = np.zeros(num_tables, dtype=np.int64)
        self._stage_rows = np.zeros((num_tables, num_tiers), dtype=np.int64)
        for device in range(topology.num_devices):
            if cache is not None:
                for j, rows in cached_rows_per_table(
                    cache, plan, profile, model, device
                ).items():
                    self._cache_threshold[j] = rows
            if staging is not None:
                self._stage_rows += staged_rows_per_table(
                    staging, plan, profile, model, num_tiers, device
                )
        # Per-table strategy shards: column tables scatter their counts
        # across shard devices; twrw tables cross cut prefixes.
        self._column_tables: list[tuple] = []
        self._twrw_tables: list[tuple] = []
        strategies = plan.table_strategies or ()
        self._num_cut_lanes = max(
            (len(s.row_cuts) for s in strategies), default=0
        )
        self._cut_points = np.zeros(
            (num_tables, self._num_cut_lanes), dtype=np.int64
        )
        for j, strat in enumerate(strategies):
            devices = np.asarray(strat.devices, dtype=np.int64)
            if strat.kind == "column":
                dims = np.asarray(strat.dims, dtype=np.int64)
                shard_bytes = dims * model.tables[j].dtype_bytes
                self._column_tables.append(
                    (j, devices, dims, shard_bytes.astype(np.float64))
                )
            elif strat.kind == "twrw":
                self._cut_points[j, : len(strat.row_cuts)] = strat.row_cuts
                self._twrw_tables.append((j, devices, len(strat.row_cuts)))
        self._split_idx = np.array(
            [info[0] for info in self._column_tables + self._twrw_tables],
            dtype=np.int64,
        )

    @functools.cached_property
    def remap_tables(self) -> list[RemappingTable]:
        """Per-table (tier, offset) remapping, built on first use."""
        return RemappingLayer.from_plan(self.plan, self.profile).tables

    def run_batch(self, batch: JaggedBatch):
        return self._reduce_lanes(*self._classify_scalar(batch))

    def classify_batch(self, batch: JaggedBatch):
        return self._classify_scalar(batch)

    def reduce_classified(self, counts, hits, replicas=None, cuts=None):
        return self._reduce_lanes(counts, hits, replicas, cuts)

    def _classify_scalar(self, batch: JaggedBatch):
        """Per-lookup remap-table classification of one batch (no reduce).

        Returns ``(counts, hits, replicas, cuts)``: per-(table, tier)
        accesses, per-(table, tier) fast-lane hits, per-table replica
        lookups (``None`` without replicas) and per-(table, slot) twrw
        cut prefixes (``None`` without twrw tables).
        """
        num_tables = len(self.plan)
        num_tiers = self.topology.num_tiers
        counts = np.zeros((num_tables, num_tiers), dtype=np.int64)
        hits = np.zeros((num_tables, num_tiers), dtype=np.int64)
        replicas = (
            np.zeros(num_tables, dtype=np.int64) if self._has_replicas else None
        )
        cuts = (
            np.zeros((num_tables, self._num_cut_lanes), dtype=np.int64)
            if self._num_cut_lanes
            else None
        )
        scan_hits = self.cache is not None or self.staging is not None
        for j, feature in enumerate(batch):
            if feature.values.size == 0:
                continue
            cut = int(self._replica_cut[j])
            table_cuts = self._cut_points[j]
            has_cuts = bool(table_cuts.any())
            if not (scan_hits or cut or has_cuts):
                counts[j] = self.remap_tables[j].tier_counts(feature.values)
                continue
            tiers, offsets = self.remap_tables[j].apply(feature.values)
            counts[j] = np.bincount(tiers, minlength=num_tiers)
            if has_cuts:
                # A (tier, offset) pair maps back to the global frequency
                # rank by adding the cumulative rows of the preceding
                # tiers, so strategy cut lanes are rank thresholds here.
                tier_base = np.concatenate(([0], self._tier_bounds[j, :-1]))
                ranks = offsets + tier_base[tiers]
                for s in range(table_cuts.size):
                    edge = int(table_cuts[s])
                    if edge:
                        cuts[j, s] = int(np.count_nonzero(ranks < edge))
            if cut:
                # A tier-0 offset *is* the row's frequency rank (the
                # fastest tier holds the leading ranked rows), so the
                # replica lane is an offset threshold here.
                replicas[j] = np.count_nonzero((tiers == 0) & (offsets < cut))
            threshold = self._cache_threshold[j]
            if self.cache is not None and threshold > 0:
                hits[j, 0] = np.count_nonzero(
                    (tiers == 0) & (offsets >= cut) & (offsets < threshold)
                )
            for t in range(1, num_tiers):
                staged = self._stage_rows[j, t]
                if staged > 0:
                    hits[j, t] = np.count_nonzero((tiers == t) & (offsets < staged))
        return counts, hits, replicas, cuts

    def _reduce_lanes(self, counts, hits, replicas=None, cuts=None):
        """Pool per-lane counts into per-(tier, device) metrics.

        A brownout clamp on cold-tier counts, a ``bincount`` over the
        table → device assignment per tier, per-kind column/twrw
        scatters, fault drops, replica routing, then each fast lane's
        hit bytes moved from its tier's bandwidth to the fast lane's.
        """
        num_devices = self.topology.num_devices
        num_tiers = self.topology.num_tiers
        self.last_browned[:] = 0
        if self._brownout and num_tiers > 1:
            browned_tbl = counts[:, 1:] - hits[:, 1:]
            if browned_tbl.any():
                counts = counts.copy()
                counts[:, 1:] = hits[:, 1:]
                self.browned_by_table += browned_tbl.sum(axis=1)
                for t in range(1, num_tiers):
                    np.add.at(
                        self.last_browned[t],
                        self.device_of,
                        browned_tbl[:, t - 1],
                    )
        alive = self._device_alive
        faulty = not alive.all()
        route = replicas is not None and self._has_replicas
        if faulty and not alive.any():
            route = False
        split = bool(self._column_tables or self._twrw_tables)
        if split:
            counts_home = counts.copy()
            counts_home[self._split_idx, :] = 0
        else:
            counts_home = counts
        counts0 = (
            counts_home[:, 0] - replicas if route else counts_home[:, 0]
        )
        accesses = np.zeros((num_tiers, num_devices), dtype=np.int64)
        traffic = np.zeros((num_tiers, num_devices), dtype=np.float64)
        home_bytes = (
            np.zeros(num_devices, dtype=np.int64) if route else None
        )
        for t in range(num_tiers):
            col = counts0 if t == 0 else counts_home[:, t]
            np.add.at(accesses[t], self.device_of, col)
            traffic[t] = np.bincount(
                self.device_of,
                weights=col * self.row_bytes,
                minlength=num_devices,
            )
            if route:
                np.add.at(
                    home_bytes, self.device_of, col * self._row_bytes_int
                )
        for j, devices, dims, shard_bytes in self._column_tables:
            accesses[:, devices] += proportional_split(counts[j], dims)
            traffic[:, devices] += (
                counts[j][:, None].astype(np.float64) * shard_bytes[None, :]
            )
        for j, devices, n_cuts in self._twrw_tables:
            pb = np.concatenate(([0], np.cumsum(counts[j])))
            pc = np.concatenate(([0], cuts[j, :n_cuts], [pb[-1]]))
            cells = crossing_cells(pb[:, None], pc[:-1], pc[1:])
            accesses[:, devices] += cells
            traffic[:, devices] += cells * self.row_bytes[j]
        self.last_dropped[:] = 0
        if faulty:
            dead = ~alive
            self.last_dropped[dead] = accesses[:, dead].sum(axis=0)
            accesses[:, dead] = 0
            traffic[:, dead] = 0.0
            if route:
                home_bytes[dead] = 0
        replica_accesses = np.zeros(num_devices, dtype=np.int64)
        if route:
            self._replica_load += home_bytes
            replica_accesses, replica_bytes = self._route_replicas(replicas)
            accesses[0] += replica_accesses
            traffic[0] += replica_bytes
        times = (traffic * self._tier_inv_bw[:, None]).sum(axis=0)
        tier_hits = np.zeros((num_tiers, num_devices), dtype=np.int64)
        if self.cache is not None or self.staging is not None:
            for t in range(num_tiers):
                if not hits[:, t].any():
                    continue
                np.add.at(tier_hits[t], self.device_of, hits[:, t])
                hit_bytes = np.bincount(
                    self.device_of, weights=hits[:, t] * self.row_bytes,
                    minlength=num_devices,
                )
                if faulty:
                    tier_hits[t][dead] = 0
                    hit_bytes[dead] = 0.0
                fast_inv_bw = (
                    1.0 / self.cache.bandwidth if t == 0
                    else self._tier_inv_bw[t - 1]
                )
                times -= hit_bytes * self._tier_inv_bw[t]
                times += hit_bytes * fast_inv_bw
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
