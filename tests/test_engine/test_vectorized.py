"""Parity tests: the vectorized rank-space engine vs the scalar reference.

The vectorized path (frequency-rank translation + threshold counting)
must reproduce the scalar per-feature remap path exactly — same access
counts, same cache hits, and times equal to float tolerance — across
cache configurations, tier counts, and degenerate batches.
"""

import numpy as np
import pytest

from repro.core import MultiTierSharder, RecShardFastSharder
from repro.data.batch import JaggedBatch, JaggedFeature
from repro.data.synthetic import TraceGenerator
from repro.engine import (
    CacheModel,
    RankRemapper,
    ShardedExecutor,
    replay_trace,
)
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

BATCH = 128


@pytest.fixture
def world():
    model = build_model(num_tables=6, seed=21)
    profile = analytic_profile(model)
    total = model.total_bytes
    topology = SystemTopology.two_tier(
        num_devices=2,
        hbm_capacity=int(total * 0.4 / 2),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )
    plan = RecShardFastSharder(batch_size=BATCH).shard(model, profile, topology)
    return model, profile, topology, plan


def _pair(world, cache=None):
    model, profile, topology, plan = world
    vectorized = ShardedExecutor(
        model, plan, profile, topology, cache=cache, vectorized=True
    )
    scalar = ShardedExecutor(
        model, plan, profile, topology, cache=cache, vectorized=False
    )
    return vectorized, scalar


def assert_batch_parity(vectorized, scalar, batch):
    tv, av, hv, rv = vectorized.run_batch(batch)
    ts, as_, hs, rs = scalar.run_batch(batch)
    np.testing.assert_allclose(tv, ts, rtol=1e-9)
    assert np.array_equal(av, as_)
    assert np.array_equal(hv, hs)
    assert np.array_equal(rv, rs)


class TestVectorizedParity:
    def test_matches_scalar_on_seeded_trace(self, world):
        vectorized, scalar = _pair(world)
        gen = TraceGenerator(world[0], batch_size=BATCH, seed=31)
        for batch in gen.batches(3):
            assert_batch_parity(vectorized, scalar, batch)

    def test_matches_scalar_with_cache(self, world):
        cache = CacheModel(capacity_bytes=4096, bandwidth=800e9)
        vectorized, scalar = _pair(world, cache=cache)
        gen = TraceGenerator(world[0], batch_size=BATCH, seed=32)
        for batch in gen.batches(3):
            assert_batch_parity(vectorized, scalar, batch)
        # The cache must actually be exercised for this test to mean much.
        metrics = vectorized.run(TraceGenerator(world[0], BATCH, seed=33).batches(2))
        assert metrics.cache_hits.sum() > 0

    def test_matches_scalar_three_tier(self):
        model = build_model(num_tables=6, seed=22)
        profile = analytic_profile(model)
        total = model.total_bytes
        topology = SystemTopology(
            num_devices=2,
            tiers=(
                MemoryTier("hbm", int(total * 0.2 / 2), 200e9),
                MemoryTier("uvm", int(total * 0.4 / 2), 10e9),
                MemoryTier("ssd", total, 1e9),
            ),
        )
        plan = MultiTierSharder(batch_size=BATCH, steps=10).shard(
            model, profile, topology
        )
        vectorized = ShardedExecutor(model, plan, profile, topology)
        scalar = ShardedExecutor(
            model, plan, profile, topology, vectorized=False
        )
        gen = TraceGenerator(model, batch_size=BATCH, seed=34)
        for batch in gen.batches(2):
            assert_batch_parity(vectorized, scalar, batch)

    def test_empty_and_null_features(self, world):
        model, profile, topology, plan = world
        vectorized, scalar = _pair(world)
        features = []
        for table in model.tables:
            features.append(
                JaggedFeature(
                    np.empty(0, dtype=np.int64),
                    np.zeros(5, dtype=np.int64),
                )
            )
        batch = JaggedBatch(features)
        assert_batch_parity(vectorized, scalar, batch)
        times, accesses, hits, _ = vectorized.run_batch(batch)
        assert accesses.sum() == 0
        assert np.all(times == 0)

    def test_run_metrics_parity(self, world):
        vectorized, scalar = _pair(world)
        batches = list(TraceGenerator(world[0], BATCH, seed=35).batches(4))
        mv = vectorized.run(batches)
        ms = scalar.run(batches)
        np.testing.assert_allclose(mv.times_ms, ms.times_ms, rtol=1e-9)
        for tier in ms.tier_accesses:
            assert np.array_equal(mv.tier_accesses[tier], ms.tier_accesses[tier])

    def test_pre_ranked_batches_match(self, world):
        model, profile, topology, plan = world
        vectorized, scalar = _pair(world)
        batches = list(TraceGenerator(model, BATCH, seed=36).batches(2))
        ranked = vectorized.prepare(batches)
        for batch, ranked_batch in zip(batches, ranked):
            tv, av, _, _ = vectorized.run_batch(ranked_batch)
            ts, as_, _, _ = scalar.run_batch(batch)
            np.testing.assert_allclose(tv, ts, rtol=1e-9)
            assert np.array_equal(av, as_)


class TestReplayTrace:
    def test_fused_replay_matches_individual_runs(self, world):
        model, profile, topology, _ = world
        sharders = [
            RecShardFastSharder(batch_size=BATCH, name="A"),
            RecShardFastSharder(batch_size=4 * BATCH, name="B"),
        ]
        plans = [s.shard(model, profile, topology) for s in sharders]
        executors = [
            ShardedExecutor(model, p, profile, topology) for p in plans
        ]
        batches = list(TraceGenerator(model, BATCH, seed=37).batches(3))
        fused = replay_trace(executors, batches)
        for executor, metrics in zip(executors, fused):
            alone = executor.run(batches)
            np.testing.assert_allclose(metrics.times_ms, alone.times_ms, rtol=1e-9)
            for tier in alone.tier_accesses:
                assert np.array_equal(
                    metrics.tier_accesses[tier], alone.tier_accesses[tier]
                )

    def test_empty_executor_list(self, world):
        assert replay_trace([], []) == []

    def test_mismatched_tier_counts_rejected(self, world):
        model, profile, topology, plan = world
        total = model.total_bytes
        ex = ShardedExecutor(model, plan, profile, topology)
        three = SystemTopology(
            num_devices=2,
            tiers=(
                MemoryTier("hbm", total, 200e9),
                MemoryTier("uvm", total, 10e9),
                MemoryTier("ssd", total, 1e9),
            ),
        )
        plan3 = MultiTierSharder(batch_size=BATCH, steps=10).shard(
            model, profile, three
        )
        ex3 = ShardedExecutor(model, plan3, profile, three)
        with pytest.raises(ValueError):
            replay_trace([ex, ex3], [])


class TestRankRemapper:
    def test_rank_of_hottest_row_is_zero(self, world):
        model, profile, _, _ = world
        remapper = RankRemapper(profile)
        for j, stats in enumerate(profile):
            hottest = int(stats.cdf.row_order[0])
            feature = JaggedFeature(
                np.array([hottest], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
            )
            ranked = remapper.rank_feature(j, feature)
            assert ranked.ranks[0] == 0

    def test_ranks_are_a_permutation(self, world):
        model, profile, _, _ = world
        remapper = RankRemapper(profile)
        j = 0
        num_rows = model.tables[j].num_rows
        all_rows = JaggedFeature(
            np.arange(num_rows, dtype=np.int64),
            np.array([0, num_rows], dtype=np.int64),
        )
        ranked = remapper.rank_feature(j, all_rows)
        assert sorted(ranked.ranks.tolist()) == list(range(num_rows))

    def test_int32_storage_for_normal_tables(self, world):
        _, profile, _, _ = world
        remapper = RankRemapper(profile)
        for j in range(remapper.num_tables):
            assert remapper.rank_dtype(j) == np.int32

    def test_feature_count_mismatch_rejected(self, world):
        model, profile, _, _ = world
        remapper = RankRemapper(profile)
        bad = JaggedBatch(
            [
                JaggedFeature(
                    np.empty(0, dtype=np.int64), np.zeros(2, dtype=np.int64)
                )
            ]
        )
        with pytest.raises(ValueError):
            remapper.rank_batch(bad)
