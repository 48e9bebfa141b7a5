"""Executor tests for strategy plans and the per-executor segment table.

Every lane edge — tier boundaries, twrw shard ranges — cuts a table's
rank line into segments, and every segment must reduce bit-identically
to the scalar parity oracle (``tests.oracles.engine.ScalarExecutor``).
These tests pin that for the strategy shards (column scatter, twrw
rank ranges, table-wise rehoming), the classify/reduce serving seam,
``replay_trace``, the scoping rules (no replication/cache
composition), and brownout on twrw.
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
    expected_device_costs_ms,
    expected_device_costs_ms_many,
    expected_max_cost_ms,
    plan_with_replication,
    plan_with_strategies,
)
from repro.core.plan import ShardingPlan
from repro.data.synthetic import TraceGenerator
from repro.engine import (
    CacheModel,
    ShardedExecutor,
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


def _cold_twrw_plan(model, plan, num_devices):
    """:func:`_mixed_plan` with the twrw table's tier-0 block ending
    before its first cut, so cold lookups land on every shard."""
    sp = _mixed_plan(model, plan, num_devices)
    placements = list(sp.placements)
    hot = model.tables[1].num_rows // 6
    placements[1] = dataclasses.replace(
        placements[1], rows_per_tier=(hot, model.tables[1].num_rows - hot)
    )
    return dataclasses.replace(sp, placements=placements)


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
            counts = split.classify_batch(batch)
            assert counts.shape == (split._codes.num_segments,)
            assert counts.sum() == batch.total_lookups
            st, sa, sh, sr = split.reduce_classified(counts)
            np.testing.assert_array_equal(da, sa)
            np.testing.assert_array_equal(dt, st)
            np.testing.assert_array_equal(dh, sh)
            np.testing.assert_array_equal(dr, sr)

    def test_scalar_classify_seam_matches_vectorized(self, strategy_world):
        """Segment counts fold into the oracle's per-(table, tier)
        counts and twrw cut prefixes."""
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        fast = ShardedExecutor(model, sp, profile, topology)
        slow = ScalarExecutor(model, sp, profile, topology)
        seg_lo = np.array(
            [r for edges in fast._codes.edges for r in (0, *edges)]
        )
        seg_table = fast._seg_table
        seg_tier = (
            fast._tier_bounds[seg_table, :-1] <= seg_lo[:, None]
        ).sum(axis=1)
        for batch in _batches(model, n=2):
            segments = fast.classify_batch(batch)
            sc, sh, sr, scuts = slow.classify_batch(batch)
            fc = np.zeros_like(sc)
            np.add.at(fc, (seg_table, seg_tier), segments)
            np.testing.assert_array_equal(fc, sc)
            assert not sh.any() and sr is None
            for j, strat in enumerate(sp.table_strategies):
                for s, cut in enumerate(strat.row_cuts):
                    below = segments[(seg_table == j) & (seg_lo < cut)]
                    assert below.sum() == scuts[j, s]

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

    def test_one_plan_entry_points_match_batched_evaluator(
        self, strategy_world
    ):
        # Regression: the one-plan evaluator charged every column and
        # twrw table to its base device.
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        batched = expected_device_costs_ms_many(
            [sp], model, profile, topology, BATCH
        )[0]
        np.testing.assert_array_equal(
            expected_device_costs_ms(sp, model, profile, topology, BATCH),
            batched,
        )
        assert expected_max_cost_ms(
            sp, model, profile, topology, BATCH
        ) == batched.max()


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
        executor = ShardedExecutor(model, sp, profile, topology)
        batch = _batches(model, n=1)[0]
        _, accesses, _, _ = executor.run_batch(batch)
        assert accesses.sum() == batch.total_lookups

    def test_brownout_keeps_exactly_twrw_tier0_cells(self, strategy_world):
        # Brownout drops every cold home segment, so a twrw table keeps
        # exactly its tier-0 segments on their shard devices — also
        # when the table's cuts lie past its tier-0 boundary.
        model, profile, topology, plan = strategy_world
        sp = _cold_twrw_plan(model, plan, topology.num_devices)
        full = ShardedExecutor(model, sp, profile, topology)
        browned = ShardedExecutor(model, sp, profile, topology)
        browned.set_brownout(True)
        for batch in _batches(model):
            _, fa, _, _ = full.run_batch(batch)
            _, ba, _, _ = browned.run_batch(batch)
            assert fa[1:].sum() > 0
            np.testing.assert_array_equal(ba[0], fa[0])
            assert not ba[1:].any()
            assert not browned.last_browned[0].any()
            assert browned.last_browned.sum() == fa[1:].sum()
            assert ba.sum() + browned.last_browned.sum() == (
                batch.total_lookups
            )

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
    """Lane edges and the per-executor segment table they cut."""

    def test_build_order_and_roles(self, strategy_world):
        """Segments run table by table, hottest first; within tier 0
        the replica lane comes first, then the cache's fast lane, then
        the home lane."""
        model, profile, topology, plan = strategy_world
        replicated = plan_with_replication(
            RecShardFastSharder(batch_size=BATCH, steps=40),
            model, profile, topology,
            ReplicationPolicy(capacity_bytes=4096),
        )
        executor = ShardedExecutor(
            model, replicated, profile, topology,
            cache=CacheModel(capacity_bytes=8192, bandwidth=1e12),
        )
        seg_table = executor._seg_table
        assert (np.diff(seg_table) >= 0).all()
        replica = np.zeros(seg_table.size, dtype=bool)
        replica[executor._replica_segs] = True
        fast = np.zeros(seg_table.size, dtype=bool)
        fast[executor._cell_seg[executor._fast_cells]] = True
        assert replica.any() and fast.any() and not (replica & fast).any()
        for j in range(len(replicated)):
            roles = [
                "replica" if replica[k] else "fast" if fast[k] else "home"
                for k in np.flatnonzero(seg_table == j)
            ]
            order = {"replica": 0, "fast": 1, "home": 2}
            assert roles == sorted(roles, key=order.__getitem__)
            assert roles.count("replica") <= 1
            assert roles[-1] == "home"

    def test_minimal_registry(self, strategy_world):
        """A plain plan cuts each table at its tier boundaries only:
        one home-lane segment per nonempty tier, one cell each."""
        model, profile, topology, plan = strategy_world
        executor = ShardedExecutor(model, plan, profile, topology)
        for j, placement in enumerate(plan):
            tiers = np.count_nonzero(placement.rows_per_tier)
            assert len(executor._codes.edges[j]) + 1 == tiers
        assert executor._replica_segs.size == 0
        assert executor._fast_cells.size == 0
        np.testing.assert_array_equal(
            executor._cell_seg, np.arange(executor._seg_table.size)
        )
        assert executor._shared is None

    def test_cut_slots_sorted(self, strategy_world):
        """A twrw table's segments land on its shard devices in cut
        order; a column table's segments land on every shard."""
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        executor = ShardedExecutor(model, sp, profile, topology)
        num_devices = topology.num_devices
        seg_lo = np.array(
            [r for edges in executor._codes.edges for r in (0, *edges)]
        )
        cell_table = executor._seg_table[executor._cell_seg]
        cell_device = executor._cell_at % num_devices
        twrw = sp.table_strategies[1]
        cells = np.flatnonzero(cell_table == 1)
        bounds = (0, *twrw.row_cuts)
        lo = seg_lo[executor._cell_seg[cells]]
        shard = np.searchsorted(bounds, lo, side="right") - 1
        np.testing.assert_array_equal(
            cell_device[cells], np.array(twrw.devices)[shard]
        )
        column = sp.table_strategies[0]
        segments = np.flatnonzero(executor._seg_table == 0)
        for k in segments:
            on = cell_device[executor._cell_seg == k]
            assert tuple(on) == column.devices

    def test_executor_registers_strategy_cut_lanes(self, strategy_world):
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        executor = ShardedExecutor(model, sp, profile, topology)
        cuts = sp.table_strategies[1].row_cuts
        assert set(cuts) <= set(executor._codes.edges[1])
        plain = ShardedExecutor(model, plan, profile, topology)
        rows = model.tables[1].num_rows
        bounds = np.cumsum(plan[1].rows_per_tier)[:-1].tolist()
        assert set(plain._codes.edges[1]) == {
            b for b in bounds if 0 < b < rows
        }
