"""Seed-loop parity: the multi-tier executor vs the scalar per-lookup
oracle (``tests.oracles.engine.ScalarExecutor``).

The lane-code paths (``run_jagged`` and ``run_ranked``, gathering
codes by hashed id and by rank) must reproduce the per-lookup
remap-table reference *bit for bit* on hierarchies of any depth —
identical per-tier access counts, identical fast-lane hits, and, since
all paths share one reduction, identical device times — across tier
counts, seeds, batch sizes, and staging configurations.
"""

import numpy as np
import pytest

from repro.core import MultiTierSharder
from repro.data.synthetic import TraceGenerator
from repro.engine import (
    CacheModel,
    ShardedExecutor,
    TierStagingModel,
    replay_trace,
    staged_rows_per_table,
)
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.engine import ScalarExecutor
from tests.test_core.conftest import build_model


def build_topology(total_bytes: int, num_tiers: int, num_devices: int = 2):
    """An ``num_tiers``-deep hierarchy with pressure on every boundary."""
    names = ("hbm", "dram", "ssd", "hdd", "tape")
    bandwidths = (200e9, 20e9, 2e9, 0.5e9, 0.1e9)
    tiers = []
    for t in range(num_tiers):
        if t == num_tiers - 1:
            capacity = total_bytes  # the tail always fits the last tier
        else:
            # Shrinking per-tier budgets force rows into every level.
            capacity = int(total_bytes * 0.18 / num_devices)
        tiers.append(MemoryTier(names[t], capacity, bandwidths[t]))
    return SystemTopology(num_devices=num_devices, tiers=tuple(tiers))


def build_world(num_tiers: int, seed: int, batch_size: int):
    model = build_model(num_tables=6, seed=seed)
    profile = analytic_profile(model)
    topology = build_topology(model.total_bytes, num_tiers)
    plan = MultiTierSharder(batch_size=batch_size, steps=12).shard(
        model, profile, topology
    )
    return model, profile, topology, plan


def assert_exact_parity(vectorized, scalar, batch):
    """Times, per-tier accesses, and fast-lane hits all bit-identical."""
    tv, av, hv, rv = vectorized.run_batch(batch)
    ts, as_, hs, rs = scalar.run_batch(batch)
    np.testing.assert_array_equal(tv, ts)
    np.testing.assert_array_equal(av, as_)
    np.testing.assert_array_equal(hv, hs)
    np.testing.assert_array_equal(rv, rs)
    return tv, av, hv


class TestMultiTierParity:
    @pytest.mark.parametrize("num_tiers", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seed_loop_parity(self, num_tiers, seed):
        batch_size = 64
        model, profile, topology, plan = build_world(num_tiers, seed, batch_size)
        vectorized = ShardedExecutor(model, plan, profile, topology)
        scalar = ScalarExecutor(
            model, plan, profile, topology
        )
        touched = np.zeros(num_tiers, dtype=np.int64)
        for batch in TraceGenerator(model, batch_size, seed=seed + 100).batches(3):
            _, accesses, _ = assert_exact_parity(vectorized, scalar, batch)
            touched += accesses.sum(axis=1)
        # The topology is engineered so the trace actually reaches
        # every tier — otherwise deep-tier parity would be vacuous.
        assert (touched > 0).all(), touched

    @pytest.mark.parametrize("batch_size", [1, 16, 256])
    def test_batch_size_sweep(self, batch_size):
        model, profile, topology, plan = build_world(3, 5, batch_size)
        vectorized = ShardedExecutor(model, plan, profile, topology)
        scalar = ScalarExecutor(
            model, plan, profile, topology
        )
        for batch in TraceGenerator(model, batch_size, seed=77).batches(2):
            assert_exact_parity(vectorized, scalar, batch)

    @pytest.mark.parametrize("num_tiers", [3, 4])
    def test_staging_parity_and_speed(self, num_tiers):
        """Staged cold rows hit in both paths, identically, and help."""
        batch_size = 96
        model, profile, topology, plan = build_world(num_tiers, 3, batch_size)
        staging = TierStagingModel(capacity_bytes=model.total_bytes // 24)
        vectorized = ShardedExecutor(
            model, plan, profile, topology, staging=staging
        )
        scalar = ScalarExecutor(
            model, plan, profile, topology, staging=staging
        )
        plain = ShardedExecutor(model, plan, profile, topology)
        staged_time = plain_time = 0.0
        staged_hits = 0
        for batch in TraceGenerator(model, batch_size, seed=9).batches(3):
            tv, av, hv = assert_exact_parity(vectorized, scalar, batch)
            tp, ap, _, _ = plain.run_batch(batch)
            # Staging is a bandwidth effect only: access counts match
            # the unstaged executor's exactly.
            np.testing.assert_array_equal(av, ap)
            staged_time += tv.sum()
            plain_time += tp.sum()
            staged_hits += hv[1:].sum()
            # The fastest tier's staging lane is CacheModel's job.
            assert hv[0].sum() == 0
        assert staged_hits > 0
        assert staged_time < plain_time

    def test_staging_with_cache_parity(self):
        model, profile, topology, plan = build_world(3, 4, 64)
        cache = CacheModel(capacity_bytes=4096, bandwidth=800e9)
        staging = TierStagingModel(capacity_bytes=model.total_bytes // 24)
        vectorized = ShardedExecutor(
            model, plan, profile, topology, cache=cache, staging=staging
        )
        scalar = ScalarExecutor(
            model, plan, profile, topology, cache=cache, staging=staging,
        )
        for batch in TraceGenerator(model, 64, seed=11).batches(3):
            assert_exact_parity(vectorized, scalar, batch)

    def test_per_tier_staging_budgets(self):
        """A tuple budget stages only the tiers it names."""
        model, profile, topology, plan = build_world(3, 6, 64)
        only_mid = TierStagingModel(
            capacity_bytes=(model.total_bytes // 16,)
        )
        executor = ShardedExecutor(
            model, plan, profile, topology, staging=only_mid
        )
        scalar = ScalarExecutor(
            model, plan, profile, topology, staging=only_mid,
        )
        got_mid = False
        for batch in TraceGenerator(model, 64, seed=12).batches(2):
            _, _, hits = assert_exact_parity(executor, scalar, batch)
            got_mid = got_mid or hits[1].sum() > 0
            assert hits[2].sum() == 0  # tier 2 had no budget
        assert got_mid

    def test_ranked_and_jagged_paths_agree(self):
        model, profile, topology, plan = build_world(4, 8, 64)
        staging = TierStagingModel(capacity_bytes=model.total_bytes // 24)
        executor = ShardedExecutor(
            model, plan, profile, topology, staging=staging
        )
        batches = list(TraceGenerator(model, 64, seed=13).batches(2))
        for batch, ranked in zip(batches, executor.prepare(batches)):
            tj, aj, hj, rj = executor.run_jagged(batch)
            tr, ar, hr, rr = executor.run_ranked(ranked)
            np.testing.assert_array_equal(tj, tr)
            np.testing.assert_array_equal(aj, ar)
            np.testing.assert_array_equal(hj, hr)
            np.testing.assert_array_equal(rj, rr)

    def test_fused_replay_matches_individual_runs(self):
        model, profile, topology, _ = build_world(3, 2, 64)[:4]
        profile = analytic_profile(model)
        plans = [
            MultiTierSharder(batch_size=b, steps=12).shard(
                model, profile, topology
            )
            for b in (64, 512)
        ]
        staging = TierStagingModel(capacity_bytes=model.total_bytes // 24)
        executors = [
            ShardedExecutor(model, p, profile, topology, staging=staging)
            for p in plans
        ]
        batches = list(TraceGenerator(model, 64, seed=14).batches(3))
        fused = replay_trace(executors, batches)
        for executor, metrics in zip(executors, fused):
            alone = executor.run(batches)
            np.testing.assert_array_equal(metrics.times_ms, alone.times_ms)
            for tier in alone.tier_accesses:
                np.testing.assert_array_equal(
                    metrics.tier_accesses[tier], alone.tier_accesses[tier]
                )
            np.testing.assert_array_equal(
                metrics.staged_hits, alone.staged_hits
            )

    def test_run_metrics_staged_views(self):
        model, profile, topology, plan = build_world(3, 1, 64)
        staging = TierStagingModel(capacity_bytes=model.total_bytes // 16)
        executor = ShardedExecutor(
            model, plan, profile, topology, staging=staging
        )
        metrics = executor.run(
            TraceGenerator(model, 64, seed=15).batches(2)
        )
        assert metrics.staged_hits is not None
        assert metrics.cache_hits is None  # no CacheModel configured
        fractions = [
            metrics.staged_fraction(t.name) for t in topology.tiers[1:]
        ]
        assert any(f > 0 for f in fractions)
        assert all(0.0 <= f <= 1.0 for f in fractions)


class TestStagedRowSelection:
    def test_budget_respected_per_tier(self):
        model, profile, topology, plan = build_world(3, 0, 64)
        staging = TierStagingModel(capacity_bytes=8192)
        for device in range(topology.num_devices):
            staged = staged_rows_per_table(
                staging, plan, profile, model, topology.num_tiers, device
            )
            assert (staged[:, 0] == 0).all()
            for tier in range(1, topology.num_tiers):
                used = sum(
                    int(staged[j, tier]) * model.tables[j].row_bytes
                    for j in range(model.num_tables)
                )
                assert used <= staging.capacity_for(tier)

    def test_staged_rows_stay_within_tier_blocks(self):
        model, profile, topology, plan = build_world(3, 0, 64)
        staging = TierStagingModel(capacity_bytes=model.total_bytes)
        for device in range(topology.num_devices):
            staged = staged_rows_per_table(
                staging, plan, profile, model, topology.num_tiers, device
            )
            for placement in plan.tables_on_device(device):
                j = placement.table_index
                for tier in range(1, topology.num_tiers):
                    assert staged[j, tier] <= placement.rows_per_tier[tier]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TierStagingModel(capacity_bytes=-1)
        with pytest.raises(ValueError):
            TierStagingModel(capacity_bytes=(8, -8))
        with pytest.raises(ValueError):
            TierStagingModel(capacity_bytes=8).capacity_for(0)

    def test_missing_tuple_entries_mean_no_staging(self):
        staging = TierStagingModel(capacity_bytes=(4096,))
        assert staging.capacity_for(1) == 4096
        assert staging.capacity_for(2) == 0
