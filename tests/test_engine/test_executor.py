"""Tests for the trace-driven execution engine."""

import numpy as np
import pytest

from repro.core import RecShardFastSharder
from repro.core.plan import ShardingPlan, TablePlacement
from repro.data.synthetic import TraceGenerator
from repro.engine import ShardedExecutor
from repro.stats import analytic_profile
from tests.oracles.engine import ScalarExecutor
from tests.test_core.conftest import build_model

from repro.memory.topology import SystemTopology

BATCH = 128


@pytest.fixture
def world():
    model = build_model(num_tables=5, seed=11)
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


class TestShardedExecutor:
    def test_conservation_of_accesses(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=5)
        batch = gen.next_batch()
        times, accesses, _, _ = executor.run_batch(batch)
        assert accesses.sum() == batch.total_lookups
        assert times.shape == (2,)
        assert np.all(times >= 0)

    def test_times_match_bandwidth_model(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        reference = ScalarExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=6)
        batch = gen.next_batch()
        times, accesses, _, _ = executor.run_batch(batch)
        # Recompute manually per device.
        for device in range(topology.num_devices):
            expected = 0.0
            for j, feature in enumerate(batch):
                if plan[j].device != device or feature.values.size == 0:
                    continue
                counts = reference.remap_tables[j].tier_counts(feature.values)
                row_bytes = model.tables[j].row_bytes
                expected += counts[0] * row_bytes / topology.hbm.bandwidth
                expected += counts[1] * row_bytes / topology.uvm.bandwidth
            assert times[device] == pytest.approx(expected * 1e3, rel=1e-9)

    def test_run_collects_metrics(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=7)
        metrics = executor.run(gen.batches(3))
        assert metrics.num_iterations == 3
        assert metrics.num_devices == 2
        assert set(metrics.tier_accesses) == {"hbm", "uvm"}

    def test_invalid_plan_rejected(self, world):
        model, profile, topology, _ = world
        bad = ShardingPlan(
            strategy="bad",
            placements=[
                TablePlacement(j, 0, (t.num_rows, 0))
                for j, t in enumerate(model.tables)
            ],
        )
        from repro.core.plan import PlanError

        with pytest.raises(PlanError):
            ShardedExecutor(model, bad, profile, topology)

    def test_expected_costs_close_to_measured(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=9)
        metrics = executor.run(gen.batches(8))
        expected = executor.expected_device_costs_ms(BATCH)
        measured = metrics.per_device_avg_times()
        for e, m in zip(expected, measured):
            assert m == pytest.approx(e, rel=0.35)  # trace noise

    def test_hot_rows_hit_hbm(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=10)
        metrics = executor.run(gen.batches(4))
        hbm = sum(counts.sum() for counts in [metrics.tier_accesses["hbm"]])
        uvm = metrics.tier_accesses["uvm"].sum()
        # RecShard puts the hot mass in HBM: HBM accesses dominate.
        assert hbm > 5 * uvm


class TestRunMetrics:
    def test_iteration_stats(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=12)
        metrics = executor.run(gen.batches(4))
        stats = metrics.iteration_stats()
        assert stats.min <= stats.mean <= stats.max
        assert stats.std >= 0
        row = stats.as_row()
        assert row.count("/") == 3

    def test_bound_time_is_max(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=13)
        metrics = executor.run(gen.batches(2))
        assert metrics.bound_time_ms() == pytest.approx(
            metrics.per_device_avg_times().max()
        )

    def test_tier_access_fraction_sums_to_one(self, world):
        model, profile, topology, plan = world
        executor = ShardedExecutor(model, plan, profile, topology)
        gen = TraceGenerator(model, batch_size=BATCH, seed=14)
        metrics = executor.run(gen.batches(2))
        total = sum(
            metrics.tier_access_fraction(t) for t in ("hbm", "uvm")
        )
        assert total == pytest.approx(1.0)
