"""Scalar reference engine: per-lookup remap-table classification.

The shipped :class:`~repro.engine.executor.ShardedExecutor` classifies
by gathering one-byte lane codes and routes replicated lookups with the
closed-form :func:`~repro.engine.executor.least_loaded_counts`.
:class:`ScalarExecutor` is the implementation it is pinned against: it
resolves every lookup through the Section 4.3 remapping tables
(:class:`~repro.core.remap.RemappingTable`), derives each lane's count
from the resolved ``(tier, offset)`` pairs, and assigns replicated
lookups one at a time to the argmin device.  Classification is
independent; reduction is the shipped :meth:`_reduce_counts`, so agreeing
classifications give bit-identical metrics.

:func:`scalar_executors` swaps the class into a module's
``ShardedExecutor`` global for the duration of a block, which is how
the server oracle builds its executors.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from repro.core.remap import RemappingLayer, RemappingTable
from repro.data.batch import JaggedBatch
from repro.engine.executor import ShardedExecutor


def zero_counts(executor: ShardedExecutor):
    """Zeroed ``(counts, hits, replicas, cuts)`` for one batch, in the
    shapes ``_reduce_counts`` takes (``None`` for absent lanes)."""
    num_tables = len(executor.plan)
    num_tiers = executor.topology.num_tiers
    return (
        np.zeros((num_tables, num_tiers), dtype=np.int64),
        np.zeros((num_tables, num_tiers), dtype=np.int64),
        np.zeros(num_tables, dtype=np.int64) if executor._has_replicas else None,
        np.zeros((num_tables, executor._num_cut_lanes), dtype=np.int64)
        if executor._num_cut_lanes
        else None,
    )


class ScalarExecutor(ShardedExecutor):
    """The executor's per-lookup reference path."""

    @functools.cached_property
    def remap_tables(self) -> list[RemappingTable]:
        """Per-table (tier, offset) remapping, built on first use."""
        return RemappingLayer.from_plan(self.plan, self.profile).tables

    def run_batch(self, batch: JaggedBatch):
        return self._reduce_counts(*self._classify_scalar(batch))

    def classify_batch(self, batch: JaggedBatch):
        return self._classify_scalar(batch)

    def _classify_scalar(self, batch: JaggedBatch):
        """Per-lookup remap-table classification of one batch (no reduce)."""
        num_tiers = self.topology.num_tiers
        counts, hits, replicas, cuts = zero_counts(self)
        scan_hits = self.cache is not None or self.staging is not None
        for j, feature in enumerate(batch):
            if feature.values.size == 0:
                continue
            cut = int(self._replica_cut[j])
            table_cuts = self._cut_points[j] if cuts is not None else None
            has_cuts = table_cuts is not None and bool(table_cuts.any())
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


@contextlib.contextmanager
def scalar_executors(module):
    """Within the block, ``module.ShardedExecutor`` is the scalar oracle."""
    real = module.ShardedExecutor
    module.ShardedExecutor = ScalarExecutor
    try:
        yield
    finally:
        module.ShardedExecutor = real

