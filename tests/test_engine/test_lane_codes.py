"""Lane-code classification: parity with the scalar reference and with
rank-then-threshold-scan counting.

The vectorized executor classifies a lookup by gathering one code per
hashed id from a per-table :class:`~repro.engine.lanes.LaneCodes`
table.  These property tests pin that this gives exactly the counts of
the per-lookup remap-table reference (``_classify_scalar``) and of
ranking every lookup and counting ``rank < edge`` once per registered
lane — over 2- and 3-tier topologies, cache/staging hit lanes, replica
lanes, twrw cuts, duplicate edges, edges at 0 and at ``num_rows``,
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
    build_lanes,
    replay_trace,
)
from repro.engine.executor import _classify_lanes, _joint_codes
from repro.engine.lanes import LaneCodes
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

NUM_DEVICES = 4


def _world(num_tiers: int):
    model = build_model(num_tables=4, rows=48, dim=8, seed=5)
    profile = analytic_profile(model)
    names = ("hbm", "dram", "ssd")
    bandwidths = (200e9, 20e9, 2e9)
    topology = SystemTopology(
        num_devices=NUM_DEVICES,
        tiers=tuple(
            MemoryTier(names[t], model.total_bytes, bandwidths[t])
            for t in range(num_tiers)
        ),
    )
    return model, profile, topology


WORLDS = {2: _world(2), 3: _world(3)}


def _edge(rows: int):
    """A rank edge, often exactly 0 or ``rows``."""
    return st.one_of(st.just(0), st.just(rows), st.integers(0, rows))


@st.composite
def lane_configs(draw, num_tiers: int):
    """A drawn plan and executor keyword arguments: one lane set.

    Tier boundaries, replica cutoffs and cache/staging capacities are
    drawn freely (plans are not validated), so edges coincide across
    lanes and sit at 0 and ``num_rows``; twrw cuts replace the fast
    lanes, which they do not compose with.
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
        strategies = []
        for table in model.tables:
            shards = draw(st.integers(1, NUM_DEVICES))
            if shards == 1:
                strategies.append(TableStrategy("row"))
                continue
            row_cuts = sorted(draw(st.sets(
                st.integers(1, table.num_rows),
                min_size=shards - 1, max_size=shards - 1,
            )))
            devices = draw(st.permutations(range(NUM_DEVICES)))[:shards]
            strategies.append(TableStrategy(
                "twrw", devices=tuple(devices), row_cuts=tuple(row_cuts)
            ))
        plan = dataclasses.replace(plan, table_strategies=tuple(strategies))
    else:
        if draw(st.booleans()):
            replica = [draw(_edge(t.num_rows)) for t in model.tables]
            plan = dataclasses.replace(
                plan, replica_rows=np.array(replica), replica_budget_bytes=1
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


def _executor(num_tiers, config, vectorized=True):
    model, profile, topology = WORLDS[num_tiers]
    plan, kwargs = config
    return ShardedExecutor(
        model, plan, profile, topology, validate=False,
        vectorized=vectorized, **kwargs,
    )


def threshold_scan_counts(executor, batch):
    """Rank every lookup, then count ``rank < edge`` once per lane.

    The classification the code tables replaced, kept as an oracle:
    the replica count is excluded from the tier-0 hit baseline, a hit
    lane reads only where its cutoff sits above the tier's lower
    boundary, and the last tier takes the remainder.
    """
    ranker = RankRemapper(executor.profile)
    registry = executor._lanes
    counts, hits, replicas, cuts = executor._zero_counts()
    for j, feature in enumerate(batch):
        ranks = ranker.rank_feature(j, feature).ranks

        def below(edge):
            return int(np.count_nonzero(ranks < edge))

        replicated = 0
        if registry.replica is not None:
            replicated = replicas[j] = below(registry.replica.edges_list[j])
        for lane in registry.cuts:
            cuts[j, lane.index] = below(lane.edges_list[j])
        prev = lower = 0
        for t in range(counts.shape[1]):
            hit = registry.hit(t)
            if hit is not None and hit.edges_list[j] > lower:
                baseline = replicated if t == 0 else prev
                hits[j, t] = below(hit.edges_list[j]) - baseline
            bound = registry.bound(t)
            if bound is None:
                counts[j, t] = ranks.size - prev
            else:
                lower = bound.edges_list[j]
                counts[j, t] = below(lower) - prev
                prev = below(lower)
    return counts, hits, replicas, cuts


def assert_same_classification(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g, w)


def assert_same_metrics(got, want):
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


class TestCodeTableParity:
    @pytest.mark.parametrize("num_tiers", [2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_and_threshold_scans(self, num_tiers, data):
        config = data.draw(lane_configs(num_tiers))
        (batch,) = data.draw(batches(num_tiers))
        fast = _executor(num_tiers, config)
        slow = _executor(num_tiers, config, vectorized=False)
        got = fast.classify_batch(batch)
        assert_same_classification(got, slow.classify_batch(batch))
        assert_same_classification(got, threshold_scan_counts(fast, batch))
        ranked = fast.ranker.rank_batch(batch)
        assert_same_classification(
            _classify_lanes([fast], ranked, *_joint_codes([fast]))[0], got
        )
        assert_same_metrics(fast.run_batch(batch), slow.run_batch(batch))
        assert_same_metrics(
            _executor(num_tiers, config).run_batch(ranked),
            _executor(num_tiers, config, vectorized=False).run_batch(batch),
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
            alone = _executor(num_tiers, config, vectorized=False).run(trace)
            for m in (metrics, ranked_metrics):
                np.testing.assert_array_equal(m.times_ms, alone.times_ms)
                for tier, accesses in alone.tier_accesses.items():
                    np.testing.assert_array_equal(
                        m.tier_accesses[tier], accesses
                    )
                for field in ("cache_hits", "staged_hits", "replica_hits"):
                    want = getattr(alone, field)
                    if want is None:
                        assert getattr(m, field) is None
                    else:
                        np.testing.assert_array_equal(getattr(m, field), want)

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
            ShardedExecutor(model, p, profile, topology, validate=False)
            for p in plans
        ]
        codes, _ = _joint_codes(executors)
        assert codes.by_row[wide].dtype == np.uint16
        assert executors[0]._codes.by_row[wide].dtype == np.uint8
        rng = np.random.default_rng(9)
        trace = [random_batch(model, rng, 8) for _ in range(2)]
        fused = replay_trace(executors, trace)
        for plan, metrics in zip(plans, fused):
            alone = ShardedExecutor(
                model, plan, profile, topology, validate=False,
                vectorized=False,
            ).run(trace)
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
        executor = ShardedExecutor(
            model, plan, profile, topology, validate=False
        )
        batch = random_batch(model, np.random.default_rng(1), 4)
        bad = batch.features[0].values.copy()
        bad[0] = model.tables[0].num_rows
        batch.features[0] = JaggedFeature(bad, batch.features[0].offsets)
        with pytest.raises(IndexError):
            executor.classify_batch(batch)


class TestLaneCodes:
    def test_codes_count_edges_at_or_below_each_rank(self):
        model, profile, _ = WORLDS[3]
        rows = [t.num_rows for t in model.tables]
        registry = build_lanes(
            np.array([[r // 3, r // 3] for r in rows]),
            np.array([[r // 5, r // 2] for r in rows]),
            hit_tiers=(0, 1),
            replica_cut=np.array([0] * len(rows)),
            strategy_cuts=np.array([[1, r] for r in rows]),
        )
        orders = [profile[j].cdf.row_order for j in range(len(rows))]
        codes = LaneCodes((registry,), orders)
        for j, r in enumerate(rows):
            # 0 and num_rows are not edges; r // 3 appears twice.
            assert codes.edges[j] == tuple(sorted({1, r // 5, r // 3, r // 2}))
            want = np.searchsorted(codes.edges[j], np.arange(r), side="right")
            np.testing.assert_array_equal(codes.by_rank(j), want)
            np.testing.assert_array_equal(codes.by_row[j][orders[j]], want)
            assert codes.by_row[j].dtype == np.uint8

    @pytest.mark.parametrize(
        "num_edges, dtype", [(0, np.uint8), (255, np.uint8), (256, np.uint16)]
    )
    def test_smallest_code_dtype(self, num_edges, dtype):
        rows = 300
        registry = build_lanes(
            np.array([[rows, rows]]),
            np.zeros((1, 2), dtype=np.int64),
            hit_tiers=(),
            strategy_cuts=np.arange(1, num_edges + 1).reshape(1, num_edges),
        )
        codes = LaneCodes((registry,), [np.arange(rows)])
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
            ShardedExecutor(model, p, profile, topology, validate=False)
            for p in plans
        ]
        codes, _ = _joint_codes(executors)
        assert _joint_codes(executors)[0] is codes
        assert _joint_codes(executors[::-1])[0] is not codes
