"""Tests for the optional GPU cache model."""

import pytest

from repro.core import RecShardFastSharder
from repro.core.plan import ShardingPlan, TablePlacement
from repro.data.synthetic import TraceGenerator
from repro.engine import ShardedExecutor
from repro.engine.cache import CacheModel, fast_lane_cutoffs
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

BATCH = 128


def cached_rows_per_table(cache, plan, profile, model, device):
    """{table: cached leading ranks} for the device's tables: an
    unsplit plan's shard ``j`` is table ``j``, its tier-0 block starts
    at rank 0."""
    cutoffs = fast_lane_cutoffs(
        cache, None, plan, profile, model, len(plan[0].rows_per_tier)
    )
    return {
        p.table_index: int(cutoffs[p.table_index, 0])
        for p in plan.tables_on_device(device)
    }


@pytest.fixture
def world():
    model = build_model(num_tables=5, seed=31)
    profile = analytic_profile(model)
    total = model.total_bytes
    topology = SystemTopology.two_tier(
        num_devices=2,
        hbm_capacity=total,
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )
    plan = RecShardFastSharder(batch_size=BATCH).shard(model, profile, topology)
    return model, profile, topology, plan


class TestCacheModel:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CacheModel(capacity_bytes=-1, bandwidth=1.0)
        with pytest.raises(ValueError):
            CacheModel(capacity_bytes=10, bandwidth=0.0)

    def test_zero_capacity_caches_nothing(self, world):
        model, profile, topology, plan = world
        cache = CacheModel(capacity_bytes=0, bandwidth=1e12)
        for device in range(topology.num_devices):
            cached = cached_rows_per_table(cache, plan, profile, model, device)
            assert all(rows == 0 for rows in cached.values())

    def test_capacity_bound_respected(self, world):
        model, profile, topology, plan = world
        cache = CacheModel(capacity_bytes=4096, bandwidth=1e12)
        for device in range(topology.num_devices):
            cached = cached_rows_per_table(cache, plan, profile, model, device)
            used = sum(
                rows * model.tables[j].row_bytes for j, rows in cached.items()
            )
            assert used <= cache.capacity_bytes

    def test_hottest_rows_selected_first(self, world):
        # With capacity for exactly one row, the single globally hottest
        # row on the device must be the one cached.
        model, profile, topology, plan = world
        row_bytes = model.tables[0].row_bytes
        cache = CacheModel(capacity_bytes=row_bytes, bandwidth=1e12)
        for device in range(topology.num_devices):
            cached = cached_rows_per_table(cache, plan, profile, model, device)
            chosen = [j for j, rows in cached.items() if rows > 0]
            if not chosen:
                continue
            assert len(chosen) == 1
            top_counts = {
                p.table_index: profile[p.table_index].counts.max()
                for p in plan.tables_on_device(device)
            }
            assert top_counts[chosen[0]] == max(top_counts.values())

    def test_huge_capacity_caches_all_hbm_rows(self, world):
        model, profile, topology, plan = world
        cache = CacheModel(capacity_bytes=model.total_bytes * 2, bandwidth=1e12)
        for device in range(topology.num_devices):
            cached = cached_rows_per_table(cache, plan, profile, model, device)
            for placement in plan.tables_on_device(device):
                stats = profile[placement.table_index]
                live_in_hbm = min(
                    placement.rows_per_tier[0], stats.cdf.live_rows
                )
                # Only rows with nonzero expected counts compete.
                assert cached[placement.table_index] >= live_in_hbm


class TestExecutorWithCache:
    def test_cache_reduces_time(self, world):
        model, profile, topology, plan = world
        batches = list(TraceGenerator(model, batch_size=BATCH, seed=1).batches(3))
        plain = ShardedExecutor(model, plan, profile, topology).run(batches)
        cached = ShardedExecutor(
            model, plan, profile, topology,
            cache=CacheModel(model.total_bytes // 8, bandwidth=2e12),
        ).run(batches)
        assert cached.times_ms.sum() < plain.times_ms.sum()
        # Access conservation is unaffected by caching.
        assert (
            sum(a.sum() for a in cached.tier_accesses.values())
            == sum(a.sum() for a in plain.tier_accesses.values())
        )

    def test_cache_hit_fraction_reported(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(
            model, plan, profile, topology,
            cache=CacheModel(model.total_bytes // 8, bandwidth=2e12),
        )
        metrics = executor.run(
            TraceGenerator(model, batch_size=BATCH, seed=2).batches(2)
        )
        assert metrics.cache_hits is not None
        assert 0.0 < metrics.cache_hit_fraction() < 1.0

    def test_no_cache_reports_zero(self, world):
        model, profile, topology, plan = world
        metrics = ShardedExecutor(model, plan, profile, topology).run(
            TraceGenerator(model, batch_size=BATCH, seed=3).batches(1)
        )
        assert metrics.cache_hits is None
        assert metrics.cache_hit_fraction() == 0.0

    def test_skewed_tables_cache_better_when_concentrated(self):
        """A device serving few hot tables out-caches a scattered one.

        This is the mechanism behind the paper's RM1 mean-time gains:
        remapped, well-placed hot rows fit the cache.
        """
        model = build_model(num_tables=4, seed=33)
        profile = analytic_profile(model)
        total = model.total_bytes
        topology = SystemTopology.two_tier(
            2, total, 200e9, total, 10e9
        )
        cache = CacheModel(capacity_bytes=total // 10, bandwidth=2e12)
        # Concentrated: hottest two tables together on device 0.
        mass = [
            profile[j].coverage * profile[j].avg_pooling
            for j in range(model.num_tables)
        ]
        order = sorted(range(model.num_tables), key=lambda j: -mass[j])
        concentrated = ShardingPlan(
            strategy="conc",
            placements=[
                TablePlacement(
                    j, 0 if j in order[:2] else 1, (model.tables[j].num_rows, 0)
                )
                for j in range(model.num_tables)
            ],
        )
        batches = list(TraceGenerator(model, batch_size=BATCH, seed=4).batches(3))
        metrics = ShardedExecutor(
            model, concentrated, profile, topology, cache=cache
        ).run(batches)
        assert metrics.cache_hit_fraction() > 0.2
