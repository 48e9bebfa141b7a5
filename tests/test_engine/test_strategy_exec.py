"""Executor tests for strategy plans and the per-executor segment table.

Every lane edge — tier boundaries, twrw shard ranges — cuts a table's
rank line into segments, and every segment must reduce bit-identically
to the scalar parity oracle (``tests.oracles.engine.ScalarExecutor``).
These tests pin that for the strategy shards (column scatter, twrw
rank ranges, table-wise rehoming), the classify/reduce serving seam,
``replay_trace``, brownout on twrw, and the composition of every
strategy kind with cache, staging, replicas, brownout and a dead device.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
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
from repro.data.batch import JaggedBatch, JaggedFeature
from repro.data.feature import SparseFeatureSpec
from repro.data.model import EmbeddingTableSpec, ModelSpec
from repro.data.synthetic import TraceGenerator
from repro.engine import (
    CacheModel,
    ShardedExecutor,
    TierStagingModel,
    fast_lane_cutoffs,
    replay_trace,
)
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.engine import ScalarExecutor, assert_same_times
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
        """Segment counts fold into the oracle's per-(tier, lane vector)
        groups: per (table, tier), and per shard of every table."""
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
            groups = slow.classify_batch(batch)
            for j, (keys, counts) in enumerate(groups):
                shards = slow._table_shards[j]
                tiers = keys // 4 ** len(shards)
                on = seg_table == j
                for t in range(topology.num_tiers):
                    assert counts[tiers == t].sum() == (
                        segments[on & (seg_tier == t)].sum()
                    )
                for k, (_, lo, hi, _, _) in enumerate(shards):
                    lane = keys // 4 ** (len(shards) - 1 - k) % 4
                    held = on & (lo <= seg_lo) & (seg_lo < hi)
                    assert counts[lane > 0].sum() == segments[held].sum()

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


@pytest.fixture(scope="module")
def three_tier_world():
    """:func:`_mixed_plan`'s shards on a three-tier hierarchy whose
    tier-0 block holds half of every table, so the twrw cuts cross
    tier boundaries and every tier has rows to stage."""
    model = build_model(num_tables=8, rows=512, dim=16, seed=3)
    profile = analytic_profile(model)
    total = model.total_bytes
    topology = SystemTopology(
        num_devices=4,
        tiers=(
            MemoryTier("hbm", total, 200e9),
            MemoryTier("dram", total, 20e9),
            MemoryTier("ssd", total, 2e9),
        ),
    )
    plan = ShardingPlan("tiers", [
        TablePlacement(j, j % 4, (n // 2, n // 4, n - n // 2 - n // 4))
        for j, n in enumerate(model.num_rows.tolist())
    ])
    return model, profile, topology, _mixed_plan(model, plan, 4)


def _with_replicas(model, plan, rows: dict):
    replica_rows = np.zeros(len(plan), dtype=np.int64)
    for j, count in rows.items():
        replica_rows[j] = count
    return dataclasses.replace(
        plan, replica_rows=replica_rows,
        replica_budget_bytes=model.total_bytes,
    )


#: Device states every composition is served under: brownout, and
#: device 1 (a column and a twrw shard's home) failed.
STATES = [(False, None), (True, None), (False, 1), (True, 1)]


def _serve_against_oracle(world, plan, state, **lanes):
    """Serve a few batches on the shipped executor and the scalar
    oracle; metrics and tallies must agree and every lookup must be
    accessed, dropped or browned.  Returns the shipped run's rows."""
    model, profile, topology, _ = world
    brownout, dead = state
    fast = ShardedExecutor(model, plan, profile, topology, **lanes)
    slow = ScalarExecutor(model, plan, profile, topology, **lanes)
    for executor in (fast, slow):
        executor.set_brownout(brownout)
        if dead is not None:
            executor.fail_device(dead)
    rows = []
    for batch in _batches(model, n=2):
        got, want = fast.run_batch(batch), slow.run_batch(batch)
        assert_same_times(got[0], want[0], fast)
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(fast.last_dropped, slow.last_dropped)
        np.testing.assert_array_equal(fast.last_browned, slow.last_browned)
        assert (
            got[1].sum() + fast.last_dropped.sum() + fast.last_browned.sum()
            == batch.total_lookups
        )
        rows.append(got)
    np.testing.assert_array_equal(fast.browned_by_table, slow.browned_by_table)
    np.testing.assert_array_equal(fast._replica_load, slow._replica_load)
    return rows


class TestLaneComposition:
    """Every strategy kind composes with cache, staging, replicas,
    brownout and a dead device: hot sets are selected per shard."""

    @pytest.mark.parametrize("state", STATES)
    def test_column_replicas_are_routed_once(self, strategy_world, state):
        # Regression: the column split wrote replicated lookups back
        # onto their shards, so accesses exceeded the lookups.
        model, _, topology, plan = strategy_world
        sp = _with_replicas(
            model, _mixed_plan(model, plan, topology.num_devices), {0: 40}
        )
        rows = _serve_against_oracle(strategy_world, sp, state)
        assert sum(r[3].sum() for r in rows) > 0

    @pytest.mark.parametrize("state", STATES)
    def test_twrw_replicas_across_a_cut(self, strategy_world, state):
        # Regression: only the last replica segment of a twrw table was
        # routed; the others' lookups were lost.
        model, profile, topology, plan = strategy_world
        sp = _mixed_plan(model, plan, topology.num_devices)
        third = model.tables[1].num_rows // 3
        sp = _with_replicas(model, sp, {1: third + 20})
        rows = _serve_against_oracle(strategy_world, sp, state)
        if state == (False, None):
            ranker = ShardedExecutor(model, sp, profile, topology).ranker
            below = sum(
                np.count_nonzero(
                    ranker.rank_feature(1, batch.features[1]).ranks
                    < third + 20
                )
                for batch in _batches(model, n=2)
            )
            assert sum(r[3].sum() for r in rows) == below > 0

    @pytest.mark.parametrize("state", STATES)
    def test_every_kind_with_every_lane(self, three_tier_world, state):
        model, _, _, plan = three_tier_world
        third = model.tables[1].num_rows // 3
        sp = _with_replicas(model, plan, {0: 40, 1: third + 20, 2: 30, 3: 8})
        rows = _serve_against_oracle(
            three_tier_world, sp, state,
            cache=CacheModel(capacity_bytes=4096, bandwidth=1e12),
            staging=TierStagingModel(capacity_bytes=4096),
        )
        hits = sum(r[2] for r in rows)
        assert hits[0].any() and hits[1:].any()

    def test_brownout_drops_a_cold_shard_without_a_share(self):
        """Regression: brownout dropped a column segment's cold cells
        only when their lookup shares were nonzero.  A lone lookup of a
        column table goes wholly to its wide shard, staged on device 1;
        device 0 spends its staging budget on a hotter table, so the
        narrow shard's cell is cold with a zero share, and its traffic
        must still drop."""
        def spec(name, pooling, seed):
            feature = SparseFeatureSpec(
                name=name, cardinality=128, hash_size=64, alpha=1.2,
                avg_pooling=pooling, coverage=1.0, hash_seed=seed,
            )
            return EmbeddingTableSpec(feature=feature, dim=16)

        model = ModelSpec("cold_share", (spec("a", 2.0, 0), spec("b", 30.0, 1)))
        profile = analytic_profile(model)
        topology = SystemTopology.two_tier(
            2, model.total_bytes, 200e9, model.total_bytes, 10e9
        )
        plan = ShardingPlan(
            "drawn",
            [TablePlacement(0, 0, (0, 64)), TablePlacement(1, 0, (0, 64))],
            table_strategies=(
                TableStrategy("column", devices=(0, 1), dims=(1, 15)),
                TableStrategy("row"),
            ),
        )
        staging = TierStagingModel(capacity_bytes=600)
        cutoffs = fast_lane_cutoffs(None, staging, plan, profile, model, 2)
        assert cutoffs[0, 1] == 0 < cutoffs[1, 1]
        row = profile[0].cdf.row_order[0]
        batch = JaggedBatch([
            JaggedFeature(np.array([row]), np.array([0, 1])),
            JaggedFeature(np.zeros(0, dtype=np.int64), np.array([0, 0])),
        ])
        fast = ShardedExecutor(model, plan, profile, topology, staging=staging)
        slow = ScalarExecutor(model, plan, profile, topology, staging=staging)
        for executor in (fast, slow):
            executor.set_brownout(True)
        got, want = fast.run_batch(batch), slow.run_batch(batch)
        assert_same_times(got[0], want[0], fast)
        for g, w in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(g, w)
        assert got[0][0] == 0.0 and got[0][1] > 0.0
        assert got[1].sum() == 1 and fast.last_browned.sum() == 0

    def test_split_tables_select_per_shard(self, three_tier_world):
        """Each shard's hot set competes on its own device: the
        selection matches the oracle's per-device greedy fill, and a
        column shard's cutoff reflects its own slice's bytes."""
        model, profile, topology, plan = three_tier_world
        cache = CacheModel(capacity_bytes=4096, bandwidth=1e12)
        staging = TierStagingModel(capacity_bytes=4096)
        cutoffs = fast_lane_cutoffs(
            cache, staging, plan, profile, model, topology.num_tiers
        )
        oracle = ScalarExecutor(
            model, plan, profile, topology, cache=cache, staging=staging
        )
        np.testing.assert_array_equal(
            cutoffs, np.concatenate(oracle._fast_end)
        )
        # The column table's shards hold different dim slices on
        # different devices, so their hot sets differ.
        column = plan.shards(model).table == 0
        assert len(set(cutoffs[column, 0].tolist())) > 1


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
