"""Lane-code classification and the segment reduce: parity with the
scalar reference and with rank-then-threshold-scan counting.

The executor classifies a lookup by gathering one code per hashed id
from a per-table :class:`~repro.engine.lanes.LaneCodes` table — the
rank segment its row falls in — and pools the per-segment counts over
static segment labels.  These property tests pin that the segment
counts are exactly those of ranking every lookup and counting
``rank < edge`` once per lane edge, and that the reduce gives exactly
the metrics of the per-lookup remap-table oracle with its per-group
reduce (``tests.oracles.engine.ScalarExecutor``), and that every
shard's fast-lane cutoffs are the oracle's per-device greedy fill —
over 2- and 3-tier topologies, plain and column/twrw plans with any
mix of replicas and cache/staging fast lanes, brownout, failed and
degraded devices, duplicate edges, edges at 0 and at ``num_rows``,
empty features, jagged and pre-ranked input, multi-plan replays over
different lane sets, and code tables too wide for ``uint8``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TablePlacement, TableStrategy
from repro.core.plan import ShardingPlan
from repro.data.batch import JaggedBatch, JaggedFeature
from repro.engine import (
    CacheModel,
    RankRemapper,
    ShardedExecutor,
    TierStagingModel,
    fast_lane_cutoffs,
    replay_trace,
)
from repro.engine.executor import _classify_lanes, _joint_codes
from repro.engine.lanes import LaneCodes
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.engine import (
    FAST_LANE_RTOL,
    ScalarExecutor,
    assert_same_times,
)
from tests.test_core.conftest import build_model

NUM_DEVICES = 4


def _world(num_tiers: int):
    # Every tier of every device holds the whole model twice (its
    # shards, plus replica copies of rows it does not hold whole), so
    # any drawn split, shard set and replica set is a valid plan.
    model = build_model(num_tables=4, rows=48, dim=8, seed=5)
    profile = analytic_profile(model)
    names = ("hbm", "dram", "ssd")
    bandwidths = (200e9, 20e9, 2e9)
    topology = SystemTopology(
        num_devices=NUM_DEVICES,
        tiers=tuple(
            MemoryTier(names[t], 2 * model.total_bytes, bandwidths[t])
            for t in range(num_tiers)
        ),
    )
    return model, profile, topology


WORLDS = {2: _world(2), 3: _world(3)}


def _edge(rows: int):
    """A rank edge, often exactly 0 or ``rows``."""
    return st.one_of(st.just(0), st.just(rows), st.integers(0, rows))


@st.composite
def table_strategies(draw, model):
    """Per-table row, column or twrw strategies."""
    strategies = []
    for table in model.tables:
        kind = draw(st.sampled_from(("row", "column", "twrw")))
        shards = draw(st.integers(2, NUM_DEVICES))
        devices = tuple(draw(st.permutations(range(NUM_DEVICES)))[:shards])
        if kind == "column":
            cuts = sorted(draw(st.sets(
                st.integers(1, table.dim - 1),
                min_size=shards - 1, max_size=shards - 1,
            )))
            dims = tuple(np.diff([0, *cuts, table.dim]).tolist())
            strategies.append(TableStrategy("column", devices, dims=dims))
        elif kind == "twrw":
            row_cuts = sorted(draw(st.sets(
                st.integers(1, table.num_rows - 1),
                min_size=shards - 1, max_size=shards - 1,
            )))
            strategies.append(
                TableStrategy("twrw", devices, row_cuts=tuple(row_cuts))
            )
        else:
            strategies.append(TableStrategy("row"))
    return tuple(strategies)


@st.composite
def lane_configs(draw, num_tiers: int):
    """A drawn plan and executor keyword arguments: one lane set.

    Tier boundaries, column/twrw shards, replica cutoffs and
    cache/staging capacities are drawn freely and together within a
    valid plan, so edges coincide across lanes and shards and sit at 0
    and ``num_rows``.
    """
    model, profile, topology = WORLDS[num_tiers]
    placements = []
    for j, table in enumerate(model.tables):
        rows = table.num_rows
        cuts = sorted(draw(st.lists(
            _edge(rows), min_size=num_tiers - 1, max_size=num_tiers - 1
        )))
        placements.append(TablePlacement(
            table_index=j,
            device=draw(st.integers(0, NUM_DEVICES - 1)),
            rows_per_tier=tuple(np.diff([0, *cuts, rows]).tolist()),
        ))
    plan = ShardingPlan("drawn", placements)
    kwargs = {}
    if draw(st.booleans()):
        plan = dataclasses.replace(
            plan, table_strategies=draw(table_strategies(model))
        )
    if draw(st.booleans()):
        replica = [draw(_edge(p.rows_per_tier[0])) for p in placements]
        plan = dataclasses.replace(
            plan, replica_rows=np.array(replica),
            replica_budget_bytes=model.total_bytes,
        )
    if draw(st.booleans()):
        kwargs["cache"] = CacheModel(
            capacity_bytes=draw(st.integers(0, model.total_bytes)),
            bandwidth=1e12,
        )
    if draw(st.booleans()):
        kwargs["staging"] = TierStagingModel(
            capacity_bytes=draw(st.integers(0, model.total_bytes))
        )
    return plan, kwargs


@st.composite
def device_states(draw):
    """Brownout on or off; each device alive, failed or degraded."""
    faults = [
        draw(st.sampled_from(("alive", "failed", "degraded")))
        for _ in range(NUM_DEVICES)
    ]
    return draw(st.booleans()), faults


def _apply(executor, state):
    brownout, faults = state
    executor.set_brownout(brownout)
    for device, fault in enumerate(faults):
        if fault == "failed":
            executor.fail_device(device)
        elif fault == "degraded":
            executor.degrade_device(device, 2.5)
    return executor


def random_batch(model, rng, batch_size: int, empty=()) -> JaggedBatch:
    """Up to 5 uniform ids per sample; features in ``empty`` get none."""
    features = []
    for j, table in enumerate(model.tables):
        lengths = rng.integers(0, 6, batch_size) * (j not in empty)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.integers(0, table.num_rows, int(offsets[-1]))
        features.append(JaggedFeature(
            values.astype(np.int64), offsets.astype(np.int64)
        ))
    return JaggedBatch(features)


@st.composite
def batches(draw, num_tiers: int, count: int = 1):
    """Random jagged batches; some features drawn empty."""
    model = WORLDS[num_tiers][0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    empty = draw(st.sets(st.integers(0, model.num_tables - 1)))
    batch_size = draw(st.integers(0, 6))
    return [random_batch(model, rng, batch_size, empty) for _ in range(count)]


def _executor(num_tiers, config, cls=ShardedExecutor, state=None):
    model, profile, topology = WORLDS[num_tiers]
    plan, kwargs = config
    executor = cls(model, plan, profile, topology, **kwargs)
    return executor if state is None else _apply(executor, state)


def threshold_scan_counts(executor, batch):
    """Rank every lookup, then count ``rank < edge`` once per code edge.

    The classification the code tables replaced, kept as an oracle:
    a segment's count is the difference of the threshold counts at its
    two edges, the last segment taking the remainder.
    """
    ranker = RankRemapper(executor.profile)
    counts = []
    for j, feature in enumerate(batch):
        ranks = ranker.rank_feature(j, feature).ranks
        below = [
            int(np.count_nonzero(ranks < edge))
            for edge in executor._codes.edges[j]
        ]
        counts += np.diff([0, *below, ranks.size]).tolist()
    return np.array(counts, dtype=np.int64)


def assert_same_metrics(got, want, executor):
    """``run_batch`` rows: accesses, hits and replica accesses equal,
    times bit-identical (within ``FAST_LANE_RTOL`` with a fast lane)."""
    assert_same_times(got[0], want[0], executor)
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(g, w)


def assert_same_state(got, want):
    """Per-batch drop/brownout tallies and the cumulative brownout."""
    np.testing.assert_array_equal(got.last_dropped, want.last_dropped)
    np.testing.assert_array_equal(got.last_browned, want.last_browned)
    np.testing.assert_array_equal(got.browned_by_table, want.browned_by_table)


def assert_same_run(got, want, executor):
    """Two :class:`RunMetrics` of the same trace."""
    if executor.cache is None and executor.staging is None:
        np.testing.assert_array_equal(got.times_ms, want.times_ms)
    else:
        np.testing.assert_allclose(
            got.times_ms, want.times_ms, rtol=FAST_LANE_RTOL, atol=0
        )
    for tier, accesses in want.tier_accesses.items():
        np.testing.assert_array_equal(got.tier_accesses[tier], accesses)
    for field in ("cache_hits", "staged_hits", "replica_hits", "browned_out"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None)
        if b is not None:
            np.testing.assert_array_equal(a, b)


class TestCodeTableParity:
    @pytest.mark.parametrize("num_tiers", [2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_and_threshold_scans(self, num_tiers, data):
        config = data.draw(lane_configs(num_tiers))
        (batch,) = data.draw(batches(num_tiers))
        fast = _executor(num_tiers, config)
        slow = _executor(num_tiers, config, ScalarExecutor)
        model, profile, _ = WORLDS[num_tiers]
        plan, lanes = config
        np.testing.assert_array_equal(
            fast_lane_cutoffs(
                lanes.get("cache"), lanes.get("staging"), plan, profile,
                model, num_tiers,
            ),
            np.concatenate(slow._fast_end),
        )
        got = fast.classify_batch(batch)
        assert got.sum() == batch.total_lookups
        np.testing.assert_array_equal(got, threshold_scan_counts(fast, batch))
        ranked = fast.ranker.rank_batch(batch)
        np.testing.assert_array_equal(
            _classify_lanes([fast], ranked, *_joint_codes([fast]))[0], got
        )
        assert_same_metrics(fast.run_batch(batch), slow.run_batch(batch), fast)
        assert_same_metrics(
            _executor(num_tiers, config).run_batch(ranked),
            _executor(num_tiers, config, ScalarExecutor).run_batch(batch),
            fast,
        )

    @pytest.mark.parametrize("num_tiers", [2, 3])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_replay_over_different_lane_sets(self, num_tiers, data):
        configs = [data.draw(lane_configs(num_tiers)) for _ in range(3)]
        trace = data.draw(batches(num_tiers, count=2))
        fused = replay_trace(
            [_executor(num_tiers, c) for c in configs], trace
        )
        ranked_trace = [
            RankRemapper(WORLDS[num_tiers][1]).rank_batch(b) for b in trace
        ]
        fused_ranked = replay_trace(
            [_executor(num_tiers, c) for c in configs], ranked_trace
        )
        for config, metrics, ranked_metrics in zip(
            configs, fused, fused_ranked
        ):
            slow = _executor(num_tiers, config, ScalarExecutor)
            alone = slow.run(trace)
            for m in (metrics, ranked_metrics):
                assert_same_run(m, alone, slow)

    def test_table_with_more_than_255_edges(self):
        """300 plans cut one table at 300 distinct ranks: the joint code
        table needs ``uint16`` codes, and every plan still replays
        exactly."""
        model = build_model(num_tables=2, rows=400, seed=2)
        profile = analytic_profile(model)
        topology = SystemTopology.two_tier(
            num_devices=NUM_DEVICES,
            hbm_capacity=model.total_bytes,
            hbm_bandwidth=200e9,
            uvm_capacity=model.total_bytes,
            uvm_bandwidth=10e9,
        )
        wide = max(range(2), key=lambda j: model.tables[j].num_rows)
        rows = model.tables[wide].num_rows
        assert rows > 301
        plans = [
            ShardingPlan("cut", [
                TablePlacement(
                    j, cut % NUM_DEVICES,
                    (cut, rows - cut) if j == wide
                    else (t.num_rows // 2, t.num_rows - t.num_rows // 2),
                )
                for j, t in enumerate(model.tables)
            ])
            for cut in range(1, 301)
        ]
        executors = [
            ShardedExecutor(model, p, profile, topology) for p in plans
        ]
        codes, _ = _joint_codes(executors)
        assert codes.by_row[wide].dtype == np.uint16
        assert executors[0]._codes.by_row[wide].dtype == np.uint8
        rng = np.random.default_rng(9)
        trace = [random_batch(model, rng, 8) for _ in range(2)]
        fused = replay_trace(executors, trace)
        for plan, metrics in zip(plans, fused):
            alone = ScalarExecutor(model, plan, profile, topology).run(trace)
            np.testing.assert_array_equal(metrics.times_ms, alone.times_ms)
            for tier, accesses in alone.tier_accesses.items():
                np.testing.assert_array_equal(
                    metrics.tier_accesses[tier], accesses
                )

    def test_out_of_range_id_raises(self):
        model, profile, topology = WORLDS[2]
        plan = ShardingPlan("all-hbm", [
            TablePlacement(j, 0, (t.num_rows, 0))
            for j, t in enumerate(model.tables)
        ])
        executor = ShardedExecutor(model, plan, profile, topology)
        batch = random_batch(model, np.random.default_rng(1), 4)
        bad = batch.features[0].values.copy()
        bad[0] = model.tables[0].num_rows
        batch.features[0] = JaggedFeature(bad, batch.features[0].offsets)
        with pytest.raises(IndexError):
            executor.classify_batch(batch)


class TestReduceParity:
    """The segment reduce against the oracle's per-lane reduce, under
    brownout and device faults, on every entry point."""

    @pytest.mark.parametrize("num_tiers", [2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_jagged_and_ranked_batches(self, num_tiers, data):
        config = data.draw(lane_configs(num_tiers))
        state = data.draw(device_states())
        trace = data.draw(batches(num_tiers, count=2))
        jagged = _executor(num_tiers, config, state=state)
        ranked = _executor(num_tiers, config, state=state)
        slow = _executor(num_tiers, config, ScalarExecutor, state=state)
        for batch in trace:
            want = slow.run_batch(batch)
            assert_same_metrics(jagged.run_batch(batch), want, slow)
            assert_same_state(jagged, slow)
            assert_same_metrics(
                ranked.run_batch(ranked.ranker.rank_batch(batch)), want, slow
            )
            assert_same_state(ranked, slow)
        np.testing.assert_array_equal(jagged._replica_load, slow._replica_load)

    @pytest.mark.parametrize("num_tiers", [2, 3])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_multi_plan_replay(self, num_tiers, data):
        configs = [data.draw(lane_configs(num_tiers)) for _ in range(3)]
        states = [data.draw(device_states()) for _ in configs]
        trace = data.draw(batches(num_tiers, count=2))
        fast = [
            _executor(num_tiers, c, state=s) for c, s in zip(configs, states)
        ]
        fused = replay_trace(fast, trace)
        for config, state, executor, metrics in zip(
            configs, states, fast, fused
        ):
            slow = _executor(num_tiers, config, ScalarExecutor, state=state)
            assert_same_run(metrics, slow.run(trace), slow)
            assert_same_state(executor, slow)


class TestLaneCodes:
    def test_codes_count_edges_at_or_below_each_rank(self):
        model, profile, _ = WORLDS[3]
        rows = [t.num_rows for t in model.tables]
        orders = [profile[j].cdf.row_order for j in range(len(rows))]
        # 0 and num_rows are not edges; r // 3 appears twice.
        codes = LaneCodes(
            [(r // 3, r // 3, r // 5, r // 2, 0, 1, r) for r in rows], orders
        )
        for j, r in enumerate(rows):
            assert codes.edges[j] == tuple(sorted({1, r // 5, r // 3, r // 2}))
            want = np.searchsorted(codes.edges[j], np.arange(r), side="right")
            np.testing.assert_array_equal(codes.by_rank(j), want)
            np.testing.assert_array_equal(codes.by_row[j][orders[j]], want)
            assert codes.by_row[j].dtype == np.uint8
        assert codes.num_segments == sum(len(e) + 1 for e in codes.edges)

    @pytest.mark.parametrize(
        "num_edges, dtype", [(0, np.uint8), (255, np.uint8), (256, np.uint16)]
    )
    def test_smallest_code_dtype(self, num_edges, dtype):
        rows = 300
        codes = LaneCodes([range(1, num_edges + 1)], [np.arange(rows)])
        assert len(codes.edges[0]) == num_edges
        assert codes.by_row[0].dtype == dtype

    def test_replays_reuse_the_joint_table(self):
        model, profile, topology = WORLDS[2]
        plans = [
            ShardingPlan("split", [
                TablePlacement(j, 0, (t.num_rows // k, t.num_rows - t.num_rows // k))
                for j, t in enumerate(model.tables)
            ])
            for k in (2, 3)
        ]
        executors = [
            ShardedExecutor(model, p, profile, topology) for p in plans
        ]
        codes, _ = _joint_codes(executors)
        assert _joint_codes(executors)[0] is codes
        assert _joint_codes(executors[::-1])[0] is not codes
