"""Replica lane execution: routing parity, conservation, multi-plan replay.

The executor's replica lane has three classification entry points
(jagged and ranked batches through the lane-code loop, and the
per-lookup remap of ``tests.oracles.engine.ScalarExecutor``) and two routing
disciplines (the water-fill :func:`least_loaded_counts`, the oracle's
per-lookup argmin).  Every
combination must produce bit-identical metrics, and the routed
accesses must conserve the batch's lookups.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    MultiTierSharder,
    PlannerWorkspace,
    RecShardFastSharder,
    ReplicationPolicy,
    plan_with_replication,
)
from repro.data.synthetic import TraceGenerator
from repro.engine import (
    CacheModel,
    ShardedExecutor,
    TierStagingModel,
    least_loaded_counts,
    replay_trace,
)
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.engine import ScalarExecutor, assert_same_times
from tests.test_core.conftest import build_model


def two_tier(total: int, num_devices: int = 4):
    return SystemTopology.two_tier(
        num_devices=num_devices,
        hbm_capacity=int(total * 0.45 / num_devices),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


def three_tier(total: int, num_devices: int = 4):
    return SystemTopology(
        num_devices=num_devices,
        tiers=(
            MemoryTier("hbm", int(total * 0.2 / num_devices), 200e9),
            MemoryTier("dram", int(total * 0.2 / num_devices), 20e9),
            MemoryTier("ssd", total, 2e9),
        ),
    )


def _unreplicated(plan):
    return dataclasses.replace(
        plan, replica_rows=None, replica_budget_bytes=None
    )


def build_world(seed: int, tiers: int = 2, num_devices: int = 4):
    model = build_model(num_tables=8, seed=seed)
    profile = analytic_profile(model)
    topology = (
        two_tier(model.total_bytes, num_devices)
        if tiers == 2
        else three_tier(model.total_bytes, num_devices)
    )
    if tiers == 2:
        sharder = RecShardFastSharder(batch_size=64, steps=40)
        ws = PlannerWorkspace(model, profile, steps=40)
    else:
        sharder = MultiTierSharder(batch_size=64, steps=20)
        ws = PlannerWorkspace(model, profile, steps=20)
    policy = ReplicationPolicy(
        capacity_bytes=int(model.total_bytes * 0.04 / num_devices)
    )
    plan = plan_with_replication(
        sharder, model, profile, topology, policy, workspace=ws
    )
    assert plan.num_replicated_rows > 0
    return model, profile, topology, plan


class TestLeastLoadedCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_item_greedy(self, seed):
        rng = np.random.default_rng(seed)
        for case in range(300):
            devices = int(rng.integers(1, 10))
            n = int(rng.integers(0, 80))
            w = int(rng.integers(1, 100))
            if case % 3 == 0:
                load = rng.integers(0, 2000, size=devices)
            elif case % 3 == 1:  # counters far above the batch's bytes
                load = rng.integers(0, 10**12, size=devices)
            else:  # one residue mod w shared by every device
                load = rng.integers(0, 20, size=devices) * w + int(
                    rng.integers(0, w)
                )
            load = load.astype(np.int64)
            fast = least_loaded_counts(load, n, w)
            reference = np.zeros(devices, dtype=np.int64)
            running = load.copy()
            for _ in range(n):
                device = int(np.argmin(running))
                reference[device] += 1
                running[device] += w
            np.testing.assert_array_equal(fast, reference)
            assert fast.sum() == n

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            least_loaded_counts(np.zeros(2, dtype=np.int64), 1, 0)

    def test_ties_resolve_to_lowest_device(self):
        counts = least_loaded_counts(np.zeros(4, dtype=np.int64), 2, 8)
        np.testing.assert_array_equal(counts, [1, 1, 0, 0])


class TestReplicatedExecutionParity:
    @pytest.mark.parametrize("tiers", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scalar_vectorized_bit_parity(self, tiers, seed):
        model, profile, topology, plan = build_world(seed, tiers=tiers)
        vectorized = ShardedExecutor(model, plan, profile, topology)
        scalar = ScalarExecutor(
            model, plan, profile, topology
        )
        routed_total = 0
        for batch in TraceGenerator(model, 64, seed=seed + 50).batches(3):
            tv, av, hv, rv = vectorized.run_batch(batch)
            ts, as_, hs, rs = scalar.run_batch(batch)
            np.testing.assert_array_equal(tv, ts)
            np.testing.assert_array_equal(av, as_)
            np.testing.assert_array_equal(hv, hs)
            np.testing.assert_array_equal(rv, rs)
            # Routed lookups are counted (on the fastest tier), never
            # duplicated or dropped.
            assert av.sum() == batch.total_lookups
            routed_total += rv.sum()
        # The stateful routing counters advanced identically.
        np.testing.assert_array_equal(
            vectorized._replica_load, scalar._replica_load
        )
        assert routed_total > 0

    def test_parity_with_cache_and_staging(self):
        model, profile, topology, plan = build_world(7, tiers=3)
        cache = CacheModel(capacity_bytes=2048, bandwidth=800e9)
        staging = TierStagingModel(capacity_bytes=model.total_bytes // 64)
        vectorized = ShardedExecutor(
            model, plan, profile, topology, cache=cache, staging=staging
        )
        scalar = ScalarExecutor(
            model, plan, profile, topology, cache=cache, staging=staging,
        )
        for batch in TraceGenerator(model, 64, seed=99).batches(3):
            tv, av, hv, rv = vectorized.run_batch(batch)
            ts, as_, hs, rs = scalar.run_batch(batch)
            assert_same_times(tv, ts, vectorized)
            np.testing.assert_array_equal(av, as_)
            np.testing.assert_array_equal(hv, hs)
            np.testing.assert_array_equal(rv, rs)

    def test_ranked_and_jagged_paths_agree(self):
        model, profile, topology, plan = build_world(3)
        executor = ShardedExecutor(model, plan, profile, topology)
        twin = ShardedExecutor(model, plan, profile, topology)
        batches = list(TraceGenerator(model, 64, seed=5).batches(2))
        for batch, ranked in zip(batches, executor.prepare(batches)):
            tj, aj, hj, rj = executor.run_jagged(batch)
            tr, ar, hr, rr = twin.run_ranked(ranked)
            np.testing.assert_array_equal(tj, tr)
            np.testing.assert_array_equal(aj, ar)
            np.testing.assert_array_equal(rj, rr)

    def test_fused_replay_matches_individual_runs(self):
        model, profile, topology, plan = build_world(4)
        batches = list(TraceGenerator(model, 64, seed=21).batches(2))
        executors = [
            ShardedExecutor(model, plan, profile, topology),
            ShardedExecutor(model, _unreplicated(plan), profile, topology),
        ]
        fused = replay_trace(executors, batches)
        singles = [
            ShardedExecutor(model, plan, profile, topology).run(batches),
            ShardedExecutor(model, _unreplicated(plan), profile, topology).run(batches),
        ]
        for merged, alone in zip(fused, singles):
            np.testing.assert_array_equal(merged.times_ms, alone.times_ms)
            for tier in merged.tier_accesses:
                np.testing.assert_array_equal(
                    merged.tier_accesses[tier], alone.tier_accesses[tier]
                )
            if alone.replica_hits is None:
                assert merged.replica_hits is None
            else:
                np.testing.assert_array_equal(
                    merged.replica_hits, alone.replica_hits
                )

    def test_replication_balances_device_accesses(self):
        """Routing spreads the replica lane: imbalance never worsens
        and replica metrics are populated."""
        model, profile, topology, plan = build_world(6)
        batches = list(TraceGenerator(model, 128, seed=8).batches(3))
        plain = ShardedExecutor(
            model, _unreplicated(plan), profile, topology
        ).run(batches)
        replicated = ShardedExecutor(
            model, plan, profile, topology
        ).run(batches)
        assert replicated.replica_hits is not None
        assert replicated.replica_hits.sum() > 0
        assert 0.0 < replicated.replica_fraction() < 1.0
        assert plain.replica_fraction() == 0.0
        assert (
            replicated.device_access_totals().sum()
            == plain.device_access_totals().sum()
        )
        assert replicated.load_imbalance() <= plain.load_imbalance() + 1e-9
