"""Executor tests for strategy plans and the composable lane framework.

The lane registry promises that every registered lane classifies
bit-identically to the scalar parity oracle
(``tests.oracles.engine.ScalarExecutor``).  These tests pin that promise for the new
strategy lanes (column scatter, twrw cut lanes, table-wise rehoming),
the classify/reduce serving seam, ``replay_trace``, and the scoping
rules (no replication/cache composition, no brownout with twrw).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    PlanError,
    RecShardFastSharder,
    ReplicationPolicy,
    TablePlacement,
    TableStrategy,
    plan_with_replication,
    plan_with_strategies,
)
from repro.core.plan import ShardingPlan
from repro.data.synthetic import TraceGenerator
from repro.engine import (
    CacheModel,
    ShardedExecutor,
    build_lanes,
    replay_trace,
)
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.engine import ScalarExecutor
from tests.test_core.conftest import build_model

BATCH = 128


@pytest.fixture(scope="module")
def strategy_world():
    model = build_model(num_tables=8, rows=512, dim=16, seed=3)
    profile = analytic_profile(model)
    total = model.total_bytes
    # Roomy per-device HBM: capacity is not under test here, and the
    # hand-built column/twrw shards stack extra bytes on devices 0-2.
    topology = SystemTopology.two_tier(
        num_devices=4,
        hbm_capacity=total,
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )
    plan = RecShardFastSharder(batch_size=BATCH, steps=40).shard(
        model, profile, topology
    )
    return model, profile, topology, plan


def _mixed_plan(model, plan, num_devices):
    strategies = [TableStrategy("row") for _ in range(len(plan))]
    t0 = model.tables[0]
    strategies[0] = TableStrategy(
        "column", devices=(0, 1), dims=(t0.dim // 2, t0.dim - t0.dim // 2)
    )
    t1 = model.tables[1]
    third = t1.num_rows // 3
    strategies[1] = TableStrategy(
        "twrw", devices=(0, 1, 2), row_cuts=(third, 2 * third)
    )
    strategies[2] = TableStrategy("table")
    placements = list(plan)
    p2 = placements[2]
    rows = [0] * len(p2.rows_per_tier)
    rows[0] = p2.total_rows
    placements[2] = TablePlacement(
        table_index=p2.table_index,
        device=(p2.device + 1) % num_devices,
        rows_per_tier=tuple(rows),
    )
    return ShardingPlan(
        placements=tuple(placements),
        strategy=plan.strategy,
        metadata=dict(plan.metadata),
        table_strategies=tuple(strategies),
    )


def _row_only(plan):
    return dataclasses.replace(
        plan, table_strategies=(TableStrategy("row"),) * len(plan)
    )


def _batches(model, n=4, seed=9):
    gen = TraceGenerator(model, batch_size=BATCH, seed=seed)
    return [gen.next_batch() for _ in range(n)]


class TestStrategyExecution:
    def test_scalar_vectorized_bit_parity(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        fast = ShardedExecutor(model, sp, profile, topology)
        slow = ScalarExecutor(model, sp, profile, topology)
        for batch in _batches(model):
            ft, fa, fh, fr = fast.run_batch(batch)
            st, sa, sh, sr = slow.run_batch(batch)
            np.testing.assert_array_equal(fa, sa)
            np.testing.assert_array_equal(fh, sh)
            np.testing.assert_array_equal(fr, sr)
            np.testing.assert_array_equal(ft, st)

    def test_lookup_counts_conserved(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        executor = ShardedExecutor(model, sp, profile, topology)
        for batch in _batches(model):
            _, accesses, _, _ = executor.run_batch(batch)
            assert accesses.sum() == batch.total_lookups

    def test_all_row_matches_plain_executor(self, strategy_world):
        model, profile, topology, plan = strategy_world
        wrapped = ShardedExecutor(model, _row_only(plan), profile, topology)
        plain = ShardedExecutor(model, plan, profile, topology)
        for batch in _batches(model):
            wt, wa, wh, wr = wrapped.run_batch(batch)
            pt, pa, ph, pr = plain.run_batch(batch)
            np.testing.assert_array_equal(wa, pa)
            np.testing.assert_array_equal(wt, pt)
            np.testing.assert_array_equal(wh, ph)
            np.testing.assert_array_equal(wr, pr)

    def test_classify_reduce_seam_parity(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        direct = ShardedExecutor(model, sp, profile, topology)
        split = ShardedExecutor(model, sp, profile, topology)
        for batch in _batches(model):
            dt, da, dh, dr = direct.run_batch(batch)
            counts, hits, replicas, cuts = split.classify_batch(batch)
            assert cuts is not None and cuts.shape == (len(plan), 2)
            st, sa, sh, sr = split.reduce_classified(
                counts, hits, replicas, cuts
            )
            np.testing.assert_array_equal(da, sa)
            np.testing.assert_array_equal(dt, st)
            np.testing.assert_array_equal(dh, sh)
            np.testing.assert_array_equal(dr, sr)

    def test_scalar_classify_seam_matches_vectorized(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        fast = ShardedExecutor(model, sp, profile, topology)
        slow = ScalarExecutor(model, sp, profile, topology)
        for batch in _batches(model, n=2):
            fc, fh, fr, fcuts = fast.classify_batch(batch)
            sc, sh, sr, scuts = slow.classify_batch(batch)
            np.testing.assert_array_equal(fc, sc)
            np.testing.assert_array_equal(fh, sh)
            np.testing.assert_array_equal(fcuts, scuts)
            assert fr is None and sr is None

    def test_replay_trace_matches_individual_runs(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        row_only = _row_only(plan)
        ex_mixed = ShardedExecutor(model, sp, profile, topology)
        ex_row = ShardedExecutor(model, row_only, profile, topology)
        batches = _batches(model)
        fused = replay_trace([ex_mixed, ex_row], batches)
        solo = [
            ShardedExecutor(model, sp, profile, topology).run(batches),
            ShardedExecutor(model, row_only, profile, topology).run(batches),
        ]
        for merged, alone in zip(fused, solo):
            np.testing.assert_array_equal(merged.times_ms, alone.times_ms)
            assert merged.tier_accesses.keys() == alone.tier_accesses.keys()
            for tier in merged.tier_accesses:
                np.testing.assert_array_equal(
                    merged.tier_accesses[tier], alone.tier_accesses[tier]
                )

    def test_replay_trace_mixes_lane_sets(self, strategy_world):
        """Plain, cache, replication, and twrw executors go through one
        classification loop in the same call; each must match its own
        ``run`` exactly, on jagged and on pre-ranked batches."""
        model, profile, topology, plan = strategy_world
        replicated = plan_with_replication(
            RecShardFastSharder(batch_size=BATCH, steps=40),
            model, profile, topology,
            ReplicationPolicy(capacity_bytes=4096),
        )
        cache = CacheModel(capacity_bytes=4096, bandwidth=1e12)
        twrw = _mixed_plan(model, plan, topology.num_devices)

        def executors():
            return [
                ShardedExecutor(model, plan, profile, topology),
                ShardedExecutor(model, plan, profile, topology, cache=cache),
                ShardedExecutor(model, replicated, profile, topology),
                ShardedExecutor(model, twrw, profile, topology),
            ]

        jagged = _batches(model)
        ranked = executors()[0].prepare(jagged)
        solo = [ex.run(jagged) for ex in executors()]
        assert solo[1].cache_hits.sum() > 0
        assert solo[2].replica_hits.sum() > 0
        for batches in (jagged, ranked):
            merged = replay_trace(executors(), batches)
            for got, want in zip(merged, solo):
                np.testing.assert_array_equal(got.times_ms, want.times_ms)
                assert got.tier_accesses.keys() == want.tier_accesses.keys()
                for tier in got.tier_accesses:
                    np.testing.assert_array_equal(
                        got.tier_accesses[tier], want.tier_accesses[tier]
                    )
                for field in ("cache_hits", "replica_hits"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert (a is None) == (b is None)
                    if a is not None:
                        np.testing.assert_array_equal(a, b)

    def test_expected_costs_use_strategy_model(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        wrapped = ShardedExecutor(model, sp, profile, topology)
        plain = ShardedExecutor(model, plan, profile, topology)
        wc = wrapped.expected_device_costs_ms(BATCH)
        pc = plain.expected_device_costs_ms(BATCH)
        assert wc.shape == pc.shape
        # The split tables move traffic off their home device, so the
        # two cost vectors must differ (while conserving the total).
        assert not np.array_equal(wc, pc)
        assert wc.sum() == pytest.approx(pc.sum(), rel=1e-6)


class TestStrategyScoping:
    def test_rejects_replication(self, strategy_world):
        model, profile, topology, plan = strategy_world
        replicated = plan_with_replication(
            RecShardFastSharder(batch_size=BATCH, steps=40),
            model, profile, topology,
            ReplicationPolicy(capacity_bytes=4096),
        )
        with pytest.raises(PlanError, match="replication"):
            ShardedExecutor(model, _row_only(replicated), profile, topology)

    def test_rejects_cache_and_staging(self, strategy_world):
        model, profile, topology, plan = strategy_world
        with pytest.raises(ValueError, match="cache/staging"):
            ShardedExecutor(
                model, _row_only(plan), profile, topology,
                cache=CacheModel(capacity_bytes=4096, bandwidth=400e9),
            )

    def test_quantized_strategy_plan_builds_validated_executor(self):
        """Regression: plan_with_strategies output under an fp16 HBM was
        refused by the validating executor (shards charged at fp32)."""
        model = build_model(num_tables=8, rows=512, dim=16, seed=3)
        profile = analytic_profile(model)
        total = model.total_bytes
        topology = SystemTopology.two_tier(
            num_devices=4,
            hbm_capacity=int(total * 0.45 / 4),
            hbm_bandwidth=200e9,
            uvm_capacity=total,
            uvm_bandwidth=10e9,
        ).with_precisions("hbm=fp16")
        sp = plan_with_strategies(
            RecShardFastSharder(batch_size=BATCH, steps=40),
            model, profile, topology,
        )
        executor = ShardedExecutor(model, sp, profile, topology, validate=True)
        batch = _batches(model, n=1)[0]
        _, accesses, _, _ = executor.run_batch(batch)
        assert accesses.sum() == batch.total_lookups

    def test_brownout_rejected_with_twrw(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        executor = ShardedExecutor(model, sp, profile, topology)
        with pytest.raises(ValueError, match="table-wise-row-wise"):
            executor.set_brownout(True)

    def test_brownout_allowed_with_column_only(self, strategy_world):
        model, profile, topology, plan = strategy_world
        strategies = [TableStrategy("row") for _ in range(len(plan))]
        t0 = model.tables[0]
        strategies[0] = TableStrategy(
            "column", devices=(0, 1), dims=(t0.dim // 2, t0.dim - t0.dim // 2)
        )
        sp = dataclasses.replace(plan, table_strategies=tuple(strategies))
        fast = ShardedExecutor(model, sp, profile, topology)
        slow = ScalarExecutor(model, sp, profile, topology)
        fast.set_brownout(True)
        slow.set_brownout(True)
        for batch in _batches(model, n=2):
            ft, fa, fh, fr = fast.run_batch(batch)
            st, sa, sh, sr = slow.run_batch(batch)
            np.testing.assert_array_equal(fa, sa)
            np.testing.assert_array_equal(ft, st)
            np.testing.assert_array_equal(
                fast.last_browned, slow.last_browned
            )
            # Browned lookups are dropped, the rest still conserve.
            assert fa.sum() + fast.last_browned.sum() == batch.total_lookups


class TestLaneRegistry:
    def test_build_order_and_roles(self):
        bounds = np.array([[4, 10], [6, 12]], dtype=np.int64)
        cutoffs = np.array([[2, 0], [3, 0]], dtype=np.int64)
        cuts = np.array([[3], [0]], dtype=np.int64)
        replica = np.array([1, 2], dtype=np.int64)
        registry = build_lanes(
            bounds, cutoffs, hit_tiers=(0,),
            replica_cut=replica, strategy_cuts=cuts,
        )
        assert registry.names == ("replica", "cut:0", "hit:0", "bound:0")
        assert registry.replica is not None
        assert registry.replica.edges_list == (1, 2)
        assert len(registry.cuts) == 1
        assert registry.cuts[0].index == 0
        assert registry.hit(0).edges_list == (2, 3)
        assert registry.hit(1) is None
        assert registry.bound(0).edges_list == (4, 6)
        # The last tier never registers a bound lane: its count is the
        # remainder after all earlier bounds.
        assert registry.bound(1) is None

    def test_minimal_registry(self):
        bounds = np.array([[5, 9]], dtype=np.int64)
        cutoffs = np.zeros((1, 2), dtype=np.int64)
        registry = build_lanes(bounds, cutoffs, hit_tiers=())
        assert registry.names == ("bound:0",)
        assert registry.replica is None and registry.cuts == ()

    def test_cut_slots_sorted(self):
        bounds = np.array([[8, 16]], dtype=np.int64)
        cutoffs = np.zeros((1, 2), dtype=np.int64)
        cuts = np.array([[2, 5]], dtype=np.int64)
        registry = build_lanes(bounds, cutoffs, hit_tiers=(), strategy_cuts=cuts)
        assert [lane.index for lane in registry.cuts] == [0, 1]
        assert registry.names == ("cut:0", "cut:1", "bound:0")

    def test_executor_registers_strategy_cut_lanes(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        executor = ShardedExecutor(model, sp, profile, topology)
        names = executor._lanes.names
        assert "cut:0" in names and "cut:1" in names
        plain = ShardedExecutor(model, plan, profile, topology)
        assert not any(n.startswith("cut:") for n in plain._lanes.names)
