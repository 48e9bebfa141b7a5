"""Parity tests for the vectorized planner engine.

The workspace sharder and batched evaluator must be *exact* drop-ins
for their scalar references (the heapq sharder is
``tests.oracles.planner.ScalarFastSharder``): the hypothesis-style seed loops here
generate random specs, topologies (two-tier and HBM/DRAM/SSD), and
warm-start replans, and pin plan equality / evaluator agreement for
every draw.  Four planner kernels are also pinned on their own: the
bulk take against a one-entry-at-a-time oracle, the per-device refill
against an unpruned per-device loop, the LPT assignment against the
oracle's state-walking one, and the bounded replica scan against the
prefix computation over every candidate.
"""

import re

import numpy as np
import pytest

from repro.core import (
    MultiTierSharder,
    PlannerWorkspace,
    RecShardFastSharder,
    ReplicationPolicy,
    ShardingPlan,
    TablePlacement,
    build_replication,
    expected_device_costs_ms,
    expected_device_costs_ms_many,
    shard_sweep,
)
from repro import rm2
from repro.core import fast as fast_module
from repro.core.fast import _TAKE_WINDOW
from repro.core.plan import PlanError
from repro.baselines import make_baseline
from repro.memory import paper_node, paper_scales
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from repro.stats.profiler import TraceProfiler
from repro.data.synthetic import TraceGenerator
from tests.oracles.icdf import fractional_rows_for_coverage, table_inputs
from tests.oracles.planner import (
    ScalarFastSharder,
    coverage_of_rows_many,
    scalar_device_costs_ms,
)

from .conftest import build_model
from .test_replicate import hottest_first_charges

BATCH = 256


def assert_plans_identical(scalar_plan, fast_plan):
    assert len(scalar_plan) == len(fast_plan)
    for a, b in zip(scalar_plan, fast_plan):
        assert a.rows_per_tier == b.rows_per_tier, f"table {a.table_index}"
        assert a.device == b.device, f"table {a.table_index}"


def random_two_tier(model, rng):
    total = model.total_bytes
    devices = int(rng.integers(1, 4))
    hbm_frac = float(rng.choice([0.15, 0.3, 0.45, 0.7, 1.1]))
    return SystemTopology.two_tier(
        num_devices=devices,
        hbm_capacity=int(total * hbm_frac / devices),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


def observed_profile(model, seed):
    profiler = TraceProfiler(model, sample_rate=1.0, seed=seed)
    generator = TraceGenerator(model, batch_size=512, seed=seed + 1000)
    for batch in generator.batches(2):
        profiler.consume(batch)
    return profiler.finish()


class TestSharderParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_cold_plans_identical(self, seed):
        rng = np.random.default_rng(seed)
        model = build_model(
            num_tables=int(rng.integers(4, 12)),
            rows=int(rng.integers(150, 900)),
            seed=seed,
        )
        profile = analytic_profile(model)
        topology = random_two_tier(model, rng)
        scalar = ScalarFastSharder(batch_size=BATCH)
        fast = RecShardFastSharder(batch_size=BATCH)
        plan_scalar = scalar.shard(model, profile, topology)
        plan_fast = fast.shard(model, profile, topology)
        assert_plans_identical(plan_scalar, plan_fast)
        plan_fast.validate(model, topology)
        # Derived metadata agrees too (same loads, same accumulation).
        assert plan_scalar.metadata["estimated_device_costs_ms"] == (
            plan_fast.metadata["estimated_device_costs_ms"]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_start_replans_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = build_model(num_tables=8, rows=500, seed=seed)
        topology = random_two_tier(model, rng)
        scalar = ScalarFastSharder(batch_size=BATCH)
        fast = RecShardFastSharder(batch_size=BATCH)
        profile = analytic_profile(model)
        plan_scalar = scalar.shard(model, profile, topology)
        workspace = PlannerWorkspace(model, profile, steps=fast.steps)
        plan_fast = fast.shard(model, profile, topology, workspace=workspace)
        assert_plans_identical(plan_scalar, plan_fast)
        # Replan from a drifted (trace-observed) profile, warm-started
        # from the outgoing plan; the workspace refreshes in place.
        observed = observed_profile(model, seed)
        workspace.refresh(observed)
        warm_fast = fast.shard(
            model, observed, topology,
            warm_start=plan_fast, workspace=workspace,
        )
        warm_scalar = scalar.shard(
            model, observed, topology, warm_start=plan_scalar
        )
        assert_plans_identical(warm_scalar, warm_fast)
        assert warm_fast.metadata.get("warm_started") is True

    @pytest.mark.parametrize(
        "flags",
        [
            dict(use_coverage=False),
            dict(use_pooling=False),
            dict(use_coverage=False, use_pooling=False),
            dict(reclaim_dead=True),
            dict(steps=37),
        ],
    )
    def test_flag_variants_identical(self, flags, small_model, tight_topology):
        profile = analytic_profile(small_model)
        scalar = ScalarFastSharder(
            batch_size=BATCH, **flags
        )
        fast = RecShardFastSharder(batch_size=BATCH, **flags)
        assert_plans_identical(
            scalar.shard(small_model, profile, tight_topology),
            fast.shard(small_model, profile, tight_topology),
        )

    def test_workspace_refresh_matches_fresh_build(self, small_model):
        p0 = analytic_profile(small_model)
        p1 = observed_profile(small_model, 3)
        refreshed = PlannerWorkspace(small_model, p0, steps=20)
        refreshed.refresh(p1)
        fresh = PlannerWorkspace(small_model, p1, steps=20)
        np.testing.assert_array_equal(refreshed.frac_rows, fresh.frac_rows)
        np.testing.assert_array_equal(refreshed.grid_rows, fresh.grid_rows)
        np.testing.assert_array_equal(
            refreshed.total_accesses, fresh.total_accesses
        )

    def test_workspace_rejects_mismatched_profile(self, small_model):
        other = build_model(num_tables=3, seed=9)
        workspace = PlannerWorkspace(
            small_model, analytic_profile(small_model), steps=10
        )
        with pytest.raises(ValueError):
            workspace.refresh(analytic_profile(other))

    def test_sharder_rejects_mismatched_workspace_steps(
        self, small_model, tight_topology
    ):
        profile = analytic_profile(small_model)
        workspace = PlannerWorkspace(small_model, profile, steps=10)
        sharder = RecShardFastSharder(batch_size=BATCH, steps=20)
        with pytest.raises(ValueError):
            sharder.shard(
                small_model, profile, tight_topology, workspace=workspace
            )


class TestSweep:
    def test_budget_sweep_matches_direct_shards(self, small_model):
        profile = analytic_profile(small_model)
        total = small_model.total_bytes
        base = SystemTopology.two_tier(2, int(total * 0.6 / 2), 200e9, total, 10e9)
        sharder = RecShardFastSharder(batch_size=BATCH)
        workspace = PlannerWorkspace(small_model, profile, steps=sharder.steps)
        budgets = (0.5, 1.0, 1.5)
        plans = shard_sweep(
            workspace, sharder=sharder, budgets=budgets, base_topology=base
        )
        assert [p.metadata["sweep_key"] for p in plans] == [
            "hbm_scale=0.5", "hbm_scale=1", "hbm_scale=1.5",
        ]
        for scale, plan in zip(budgets, plans):
            scaled = SystemTopology.two_tier(
                2, int(round(int(total * 0.6 / 2) * scale)), 200e9, total, 10e9
            )
            direct = sharder.shard(small_model, profile, scaled)
            assert_plans_identical(direct, plan)

    def test_topology_sweep_and_bad_args(self, small_model):
        profile = analytic_profile(small_model)
        total = small_model.total_bytes
        sharder = RecShardFastSharder(batch_size=BATCH)
        workspace = PlannerWorkspace(small_model, profile, steps=sharder.steps)
        topologies = [
            SystemTopology.two_tier(d, int(total * 0.5 / d), 200e9, total, 10e9)
            for d in (1, 2)
        ]
        plans = shard_sweep(workspace, sharder=sharder, topologies=topologies)
        assert [p.metadata["sweep_key"] for p in plans] == ["gpus=1", "gpus=2"]
        with pytest.raises(ValueError):
            shard_sweep(workspace, sharder=sharder)
        with pytest.raises(ValueError):
            shard_sweep(
                workspace, sharder=sharder,
                topologies=topologies, budgets=(1.0,),
            )
        with pytest.raises(ValueError):
            shard_sweep(workspace, sharder=sharder, budgets=(1.0,))
        with pytest.raises(ValueError, match="ICDF steps"):
            shard_sweep(
                PlannerWorkspace(small_model, profile, steps=7),
                sharder=sharder, topologies=topologies,
            )


class TestBatchedEvaluator:
    def _plan_population(self, model, profile, topology):
        plans = [
            RecShardFastSharder(batch_size=BATCH).shard(model, profile, topology),
            make_baseline("Size-Based").shard(model, profile, topology),
            make_baseline("Lookup-Based").shard(model, profile, topology),
        ]
        # A degenerate hand-built plan exercises the 0 / hash_size edges.
        plans.append(
            ShardingPlan(
                strategy="all-uvm",
                placements=[
                    TablePlacement(j, 0, (0, t.num_rows))
                    for j, t in enumerate(model.tables)
                ],
            )
        )
        return plans

    @pytest.mark.parametrize("seed", range(5))
    def test_many_matches_scalar_two_tier(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = build_model(num_tables=int(rng.integers(3, 9)), seed=seed)
        profile = (
            analytic_profile(model) if seed % 2 else observed_profile(model, seed)
        )
        topology = random_two_tier(model, rng)
        plans = self._plan_population(model, profile, topology)
        batched = expected_device_costs_ms_many(
            plans, model, profile, topology, BATCH
        )
        assert batched.shape == (len(plans), topology.num_devices)
        for plan, row in zip(plans, batched):
            np.testing.assert_allclose(
                row,
                scalar_device_costs_ms(plan, model, profile, topology, BATCH),
                rtol=1e-12, atol=1e-15,
            )

    def test_many_matches_scalar_three_tier(self, small_model, small_profile):
        total = small_model.total_bytes
        topo3 = SystemTopology(
            num_devices=2,
            tiers=(
                MemoryTier("hbm", int(total * 0.2 / 2), 200e9),
                MemoryTier("dram", int(total * 0.4 / 2), 10e9),
                MemoryTier("ssd", total, 1e9),
            ),
        )
        plan = MultiTierSharder(batch_size=BATCH, steps=10).shard(
            small_model, small_profile, topo3
        )
        batched = expected_device_costs_ms_many(
            [plan], small_model, small_profile, topo3, BATCH
        )[0]
        np.testing.assert_allclose(
            batched,
            scalar_device_costs_ms(
                plan, small_model, small_profile, topo3, BATCH
            ),
            rtol=1e-12, atol=1e-15,
        )
        # Multi-tier plans carry evaluator-backed metadata now.
        assert plan.metadata["estimated_max_cost_ms"] == pytest.approx(
            float(batched.max())
        )

    def test_ablation_flags_match(self, small_model, small_profile, tight_topology):
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, tight_topology
        )
        for flags in [
            dict(use_coverage=False),
            dict(use_pooling=False),
            dict(use_coverage=False, use_pooling=False),
        ]:
            np.testing.assert_allclose(
                expected_device_costs_ms_many(
                    [plan], small_model, small_profile, tight_topology,
                    BATCH, **flags,
                )[0],
                scalar_device_costs_ms(
                    plan, small_model, small_profile, tight_topology,
                    BATCH, **flags,
                ),
                rtol=1e-12, atol=1e-15,
            )

    def test_workspace_reuse_gives_same_answer(
        self, small_model, small_profile, tight_topology
    ):
        """A profile whose stack the sharder's workspace filled scores
        like a fresh one the evaluator fills itself."""
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, tight_topology
        )
        fresh = analytic_profile(small_model)
        np.testing.assert_array_equal(
            expected_device_costs_ms_many(
                [plan], small_model, small_profile, tight_topology, BATCH
            ),
            expected_device_costs_ms_many(
                [plan], small_model, fresh, tight_topology, BATCH
            ),
        )

    def test_empty_population(self, small_model, small_profile, tight_topology):
        out = expected_device_costs_ms_many(
            [], small_model, small_profile, tight_topology, BATCH
        )
        assert out.shape == (0, tight_topology.num_devices)


class TestTierCountGuard:
    def _three_tier_plan(self, model):
        return ShardingPlan(
            strategy="3tier",
            placements=[
                TablePlacement(j, 0, (t.num_rows, 0, 0))
                for j, t in enumerate(model.tables)
            ],
        )

    def test_scalar_evaluator_rejects_extra_tiers(
        self, small_model, small_profile, tight_topology
    ):
        plan = self._three_tier_plan(small_model)
        with pytest.raises(ValueError, match="tiers"):
            expected_device_costs_ms(
                plan, small_model, small_profile, tight_topology, BATCH
            )

    def test_batched_evaluator_rejects_extra_tiers(
        self, small_model, small_profile, tight_topology
    ):
        plan = self._three_tier_plan(small_model)
        with pytest.raises(ValueError, match="tiers"):
            expected_device_costs_ms_many(
                [plan], small_model, small_profile, tight_topology, BATCH
            )

    def test_fewer_tiers_than_topology_still_allowed(
        self, small_model, small_profile
    ):
        # A two-tier split under a three-tier topology charges only the
        # listed tiers (the extra tier simply holds nothing).
        total = small_model.total_bytes
        topo3 = SystemTopology(
            num_devices=1,
            tiers=(
                MemoryTier("hbm", total, 200e9),
                MemoryTier("dram", total, 10e9),
                MemoryTier("ssd", total, 1e9),
            ),
        )
        plan = ShardingPlan(
            strategy="2tier",
            placements=[
                TablePlacement(j, 0, (t.num_rows, 0))
                for j, t in enumerate(small_model.tables)
            ],
        )
        costs = expected_device_costs_ms(
            plan, small_model, small_profile, topo3, BATCH
        )
        assert costs.shape == (1,)
        assert costs[0] > 0


class TestVectorizedCdfQueries:
    @pytest.mark.parametrize("seed", range(4))
    def test_coverage_of_rows_many_matches_scalar(self, seed):
        rng = np.random.default_rng(300 + seed)
        counts = rng.integers(0, 50, size=200).astype(float)
        if seed == 3:
            counts[:] = 0.0  # the zero-total edge case
        from repro.stats.cdf import FrequencyCDF

        cdf = FrequencyCDF(counts)
        queries = np.array(
            [-5, 0, 1, 2, 50, 199, 200, 201, 10_000], dtype=np.int64
        )
        np.testing.assert_array_equal(
            coverage_of_rows_many(cdf, queries),
            np.array([cdf.coverage_of_rows(int(q)) for q in queries]),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_fractional_rows_many_matches_scalar(self, seed):
        rng = np.random.default_rng(400 + seed)
        counts = rng.pareto(1.1, size=300)
        counts[rng.random(300) < 0.3] = 0.0
        if seed == 3:
            counts[:] = 0.0
        from repro.stats.cdf import FrequencyCDF

        cdf = FrequencyCDF(counts)
        fractions = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(
            cdf.fractional_rows_for_coverage_many(fractions),
            np.array(
                [fractional_rows_for_coverage(cdf, float(f)) for f in fractions]
            ),
        )
        with pytest.raises(ValueError):
            cdf.fractional_rows_for_coverage_many(np.array([0.5, 1.5]))


def sequential_take(
    eff, d_bytes, tables, steps, steps_out, budget, stop_on_exhausted
):
    """Reference bulk take: the scalar heap loop, one entry at a time.

    Pops entries in ``(-eff, table, step)`` order; an entry larger than
    the remaining budget retires its table (a dropped heap entry).
    """
    pops = sorted(range(len(eff)), key=lambda i: (-eff[i], tables[i], steps[i]))
    blocked = set()
    remaining = int(budget)
    for i in pops:
        if stop_on_exhausted and remaining <= 0:
            break
        table = int(tables[i])
        if table in blocked:
            continue
        if d_bytes[i] > remaining:
            blocked.add(table)
            continue
        steps_out[table] = max(steps_out[table], int(steps[i]) + 1)
        remaining -= int(d_bytes[i])
    return remaining


def random_take_input(rng, num_tables, max_steps):
    """Per-table step runs in (table, step) order, with tied running-min
    densities and zero-byte steps (density +inf, as in the planner)."""
    start = rng.integers(0, 3, size=num_tables)
    eff, sizes, tables, steps = [], [], [], []
    for table in range(num_tables):
        n = int(rng.integers(0, max_steps + 1))
        size = rng.choice([0, 1, 3, 8, 64], size=n)
        density = rng.choice([0.5, 1.0, 2.0, 4.0], size=n)
        density = np.where(size == 0, np.inf, density)
        eff.append(np.minimum.accumulate(density))
        sizes.append(size.astype(np.int64))
        tables.append(np.full(n, table, dtype=np.int64))
        steps.append(start[table] + np.arange(n, dtype=np.int64))
    return (
        np.concatenate(eff),
        np.concatenate(sizes),
        np.concatenate(tables),
        np.concatenate(steps),
        start.astype(np.int64),
    )


def assert_take_matches(eff, sizes, tables, steps, start, budget, stop):
    """``_bulk_take`` leaves the same steps and budget as the oracle."""
    expected = np.array(start, dtype=np.int64)
    want = sequential_take(eff, sizes, tables, steps, expected, budget, stop)
    got_steps = np.array(start, dtype=np.int64)
    got = RecShardFastSharder._bulk_take(
        eff, sizes, tables, steps, got_steps, budget, stop_on_exhausted=stop
    )
    assert got == want, f"budget {budget}"
    np.testing.assert_array_equal(got_steps, expected)


class TestBulkTakeOracle:
    """``_bulk_take`` (blocked-table flags, growing window) equals the
    one-entry-at-a-time reference on every input."""

    @staticmethod
    def budgets(eff, sizes, tables, steps, rng):
        pops = sorted(range(len(eff)), key=lambda i: (-eff[i], tables[i], steps[i]))
        cum = np.concatenate(([0], np.cumsum(sizes[pops])))
        out = {0, int(cum[-1]), int(rng.integers(0, cum[-1] + 2))}
        # Exact fits and near misses around the window edges.
        for edge in (_TAKE_WINDOW, 2 * _TAKE_WINDOW, 3 * _TAKE_WINDOW):
            for w in (edge - 1, edge, edge + 1):
                if w < cum.size:
                    fit = int(cum[w])
                    out.update({fit, fit + 1, max(fit - 1, 0)})
        return sorted(out)

    @pytest.mark.parametrize("stop_on_exhausted", [True, False])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sequential_reference(self, seed, stop_on_exhausted):
        rng = np.random.default_rng(9000 + seed)
        num_tables = int(rng.integers(1, 40))
        eff, sizes, tables, steps, start = random_take_input(
            rng, num_tables, max_steps=int(rng.choice([3, 20, 80]))
        )
        for budget in self.budgets(eff, sizes, tables, steps, rng):
            assert_take_matches(
                eff, sizes, tables, steps, start, budget, stop_on_exhausted
            )

    @pytest.mark.parametrize("stop_on_exhausted", [True, False])
    def test_long_input_blocks_at_every_window_edge(self, stop_on_exhausted):
        """Single-step tables in strictly falling density: entry ``i`` is
        the ``i``-th pop.  Every entry at a window edge is too large for
        what is left and blocks; every other one is a 1-byte step."""
        n = 6 * _TAKE_WINDOW
        edges = {k * _TAKE_WINDOW + d for k in range(1, 6) for d in (-1, 0)}
        sizes = np.array(
            [10**6 if i in edges else 1 for i in range(n)], dtype=np.int64
        )
        eff = np.arange(n, 0, -1, dtype=np.float64)
        tables = np.arange(n, dtype=np.int64)
        steps = np.zeros(n, dtype=np.int64)
        start = np.zeros(n, dtype=np.int64)
        for budget in (0, n - len(edges), n - len(edges) - 3, 10**6 + 5):
            assert_take_matches(
                eff, sizes, tables, steps, start, budget, stop_on_exhausted
            )

    def test_zero_byte_steps_after_exhaustion(self):
        """At a spent budget the global waterfill stops, the refill still
        drains zero-byte steps; a blocked table's zero-byte steps stay."""
        eff = np.array([4.0, 3.0, np.inf, 2.0, 1.0])
        sizes = np.array([5, 0, 0, 7, 0], dtype=np.int64)
        tables = np.array([0, 1, 2, 3, 3], dtype=np.int64)
        steps = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        for stop, want_steps in ((True, [1, 0, 1, 0]), (False, [1, 1, 1, 0])):
            got_steps = np.zeros(4, dtype=np.int64)
            left = RecShardFastSharder._bulk_take(
                eff, sizes, tables, steps, got_steps, 5, stop_on_exhausted=stop
            )
            assert left == 0
            assert got_steps.tolist() == want_steps
            assert_take_matches(eff, sizes, tables, steps, np.zeros(4), 5, stop)


def halving_take_input(levels, budget, rng):
    """A take in which the budget left halves ``levels`` times, each
    halving making one *victim* table's next step oversize.

    Pop order (strictly falling densities): per level, one taker step of
    ``budget / 2**(k+1)`` bytes, then the victim's first step, sized
    between the budget left before and after that take, then 1-byte
    filler steps; every victim also holds three 1-byte steps that pop
    last.  Victims fit the budget when the take starts, so only a
    prune made after earlier takes can drop them.  Entries are returned
    in (table, step) order, each table's densities running minima.
    """
    pops = []  # (table, step, size), in pop order
    table = 0
    victims = []
    for k in range(levels):
        pops.append((table, 0, budget >> (k + 1)))
        victims.append(table + 1)
        pops.append((table + 1, 0, 3 * (budget >> (k + 2))))
        table += 2
        for _ in range(int(rng.integers(0, 2 * _TAKE_WINDOW))):
            pops.append((table, 0, 1))
            table += 1
    for victim in victims:
        pops.extend((victim, step, 1) for step in (1, 2, 3))
    density = np.arange(len(pops), 0, -1, dtype=np.float64)
    rows = sorted(
        (t, step, size, d) for (t, step, size), d in zip(pops, density)
    )
    tables, steps, sizes, eff = (np.array(col) for col in zip(*rows))
    return (
        eff.astype(np.float64), sizes.astype(np.int64),
        tables.astype(np.int64), steps.astype(np.int64),
        np.zeros(table, dtype=np.int64),
    )


class TestBulkTakePrune:
    """The budget prune drops only steps that can never be admitted."""

    @staticmethod
    def count_prunes(monkeypatch):
        calls = []
        admissible = fast_module._admissible

        def counting(sizes, tables, budget, blocked):
            calls.append(int(budget))
            return admissible(sizes, tables, budget, blocked)

        monkeypatch.setattr(fast_module, "_admissible", counting)
        return calls

    @pytest.mark.parametrize("stop_on_exhausted", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_halving_mid_scan(self, seed, stop_on_exhausted, monkeypatch):
        rng = np.random.default_rng(9500 + seed)
        budget = 1 << 12
        eff, sizes, tables, steps, start = halving_take_input(5, budget, rng)
        prunes = self.count_prunes(monkeypatch)
        assert_take_matches(
            eff, sizes, tables, steps, start, budget, stop_on_exhausted
        )
        # One prune before the sort, then one per halving.
        assert len(prunes) >= 4
        assert all(b > 0 for b in prunes[1:4])

    @pytest.mark.parametrize("stop_on_exhausted", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_geometric_sizes_match_sequential_reference(
        self, seed, stop_on_exhausted
    ):
        """Step sizes spanning twelve octaves, so that many prunes fire."""
        rng = np.random.default_rng(9700 + seed)
        eff, _, tables, steps, start = random_take_input(rng, 30, 40)
        sizes = (2 ** rng.integers(0, 12, size=eff.size)).astype(np.int64)
        sizes[rng.random(eff.size) < 0.05] = 0
        eff = np.where(sizes == 0, np.inf, eff)
        for table in np.unique(tables):
            run = tables == table
            eff[run] = np.minimum.accumulate(eff[run])
        total = int(sizes.sum())
        for budget in (total // 64, total // 8, total // 2, total):
            assert_take_matches(
                eff, sizes, tables, steps, start, budget, stop_on_exhausted
            )

    @pytest.mark.parametrize("stop_on_exhausted", [True, False])
    def test_zero_budget_with_zero_byte_steps_terminates(
        self, stop_on_exhausted
    ):
        """At a budget of 0 the refill drains each table's zero-byte
        steps up to its first positive one; the waterfill takes none."""
        eff = np.array([np.inf, np.inf, 5.0, np.inf, 4.0, np.inf, np.inf])
        sizes = np.array([0, 0, 3, 0, 1, 0, 0], dtype=np.int64)
        tables = np.array([0, 0, 0, 1, 1, 2, 2], dtype=np.int64)
        steps = np.array([0, 1, 2, 0, 1, 4, 5], dtype=np.int64)
        start = np.array([0, 0, 4], dtype=np.int64)
        got = start.copy()
        left = RecShardFastSharder._bulk_take(
            eff, sizes, tables, steps, got, 0,
            stop_on_exhausted=stop_on_exhausted,
        )
        assert left == 0
        want = [0, 0, 4] if stop_on_exhausted else [2, 1, 6]
        assert got.tolist() == want
        assert_take_matches(
            eff, sizes, tables, steps, start, 0, stop_on_exhausted
        )

    def test_budget_spent_mid_scan_then_zero_byte_steps(self, monkeypatch):
        """The refill spends its budget exactly, prunes once at 0, and
        still drains the zero-byte steps that pop later."""
        n = 3 * _TAKE_WINDOW
        eff = np.arange(n, 0, -1, dtype=np.float64)
        sizes = np.where(np.arange(n) % 3 == 0, 0, 5).astype(np.int64)
        tables = np.arange(n, dtype=np.int64)
        steps = np.zeros(n, dtype=np.int64)
        start = np.zeros(n, dtype=np.int64)
        prunes = self.count_prunes(monkeypatch)
        assert_take_matches(eff, sizes, tables, steps, start, 40, False)
        assert prunes[-1] == 0


def lpt_world(seed):
    """RM2 on 4 GPUs at ``paper_scales``, HBM and host slices shrunk."""
    rng = np.random.default_rng(seed)
    topo_scale, row_scale = paper_scales(40, 4)
    model = rm2(num_features=40, row_scale=row_scale, seed=seed)
    node = paper_node(num_gpus=4, scale=topo_scale)
    # Host slices of 0.28-0.3 make the assignment pad splits with dead
    # rows; (1/8, 0.28) fits no device at all.
    hbm = (1 / 8, 1 / 4, 1.0)[seed % 3]
    host = (0.28, 0.3, 1.0)[seed // 3 % 3]
    topology = SystemTopology.two_tier(
        4, int(node.hbm.capacity_bytes * hbm), node.hbm.bandwidth,
        int(node.uvm.capacity_bytes * host), node.uvm.bandwidth,
    )
    return model, analytic_profile(model), topology, rng


def waterfilled(sharder, model, profile, topology):
    workspace = PlannerWorkspace(model, profile, steps=sharder.steps)
    splits = sharder._splits(workspace, topology)
    sharder._waterfill_arrays(
        splits, topology.hbm.capacity_bytes * topology.num_devices
    )
    return splits


class TestLptOracle:
    """The array LPT assigns, resizes and pads exactly like the oracle's
    walk over per-table state objects."""

    def test_matches_state_walking_oracle(self):
        seen = {"resized": 0, "padded": 0, "hinted": 0, "infeasible": 0}
        switches = [{}, dict(reclaim_dead=True), dict(use_pooling=False)]
        for seed in range(27):
            model, profile, topology, rng = lpt_world(seed)
            flags = switches[seed % 3]
            sharder = RecShardFastSharder(batch_size=BATCH, **flags)
            oracle = ScalarFastSharder(batch_size=BATCH, **flags)
            splits = waterfilled(sharder, model, profile, topology)
            tables, devices = model.num_tables, topology.num_devices
            if seed % 4 == 3:  # splits far from any waterfill's
                splits.step[:] = rng.integers(0, sharder.steps + 1, tables)
                splits.extra[:] = rng.integers(0, 50, tables)
            preferred = None
            if seed % 2:
                preferred = rng.integers(0, devices, tables).tolist()
            states = oracle.table_states(
                table_inputs(model, profile, sharder.steps), topology
            )
            for state, step, extra in zip(states, splits.step, splits.extra):
                state.step, state.extra_rows = int(step), int(extra)
            step0, extra0 = splits.step.copy(), splits.extra.copy()
            try:
                want = oracle.assign_states(states, topology, preferred)
            except PlanError as error:
                with pytest.raises(PlanError, match=re.escape(str(error))):
                    sharder._assign(splits, topology, preferred)
                seen["infeasible"] += 1
                continue
            device_of, hbm_free, host_free = sharder._assign(
                splits, topology, preferred
            )
            assert device_of.tolist() == want[0], f"seed {seed}"
            assert hbm_free.tolist() == want[2]
            assert host_free.tolist() == want[3]
            assert splits.step.tolist() == [s.step for s in states]
            assert splits.extra.tolist() == [s.extra_rows for s in states]
            changed = (splits.step != step0) | (splits.extra != extra0)
            seen["resized"] += int(changed.any())
            seen["padded"] += int((splits.extra > extra0).any())
            if preferred is not None:
                seen["hinted"] += int((device_of == preferred).any())
        assert seen["resized"] >= 4 and seen["padded"] >= 2, seen
        assert seen["hinted"] >= 4 and seen["infeasible"] >= 1, seen


def unpruned_refill(splits, device_of, hbm_free):
    """The per-device refill over every step of every table, each
    device's steps admitted one at a time by the sequential take."""
    ws = splits.ws
    rows = np.arange(ws.num_tables)
    steps, extra = splits.step.copy(), splits.extra.copy()
    base = ws.grid_rows[rows, steps]
    unabsorbed = np.maximum(
        0, extra[:, None] - (ws.grid_rows[:, :-1] - base[:, None])
    )
    adj_bytes = np.maximum(0, ws.d_grid_rows - unabsorbed) * splits.hbm_rb[:, None]
    density = splits.marginal_density(adj_bytes)
    valid = splits.active[:, None] & (
        np.arange(ws.steps)[None, :] >= steps[:, None]
    )
    free = list(hbm_free)
    for device in range(len(free)):
        members = np.flatnonzero(device_of == device)
        eff = np.minimum.accumulate(
            np.where(valid[members], density[members], np.inf), axis=1
        )
        flat = np.flatnonzero(valid[members])
        member_pos, step_ids = np.divmod(flat, ws.steps)
        free[device] = sequential_take(
            eff.ravel()[flat], adj_bytes[members].ravel()[flat],
            members[member_pos], step_ids, steps, free[device], False,
        )
    extra = np.maximum(0, extra - (ws.grid_rows[rows, steps] - base))
    return steps, extra, free


class TestRefillPrune:
    """The refill that admits only each table's fitting prefix equals
    the unpruned per-device loop, at HBM an eighth of ``paper_scales``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_unpruned_reference(self, seed):
        rng = np.random.default_rng(600 + seed)
        topo_scale, row_scale = paper_scales(40, 4)
        model = rm2(num_features=40, row_scale=row_scale, seed=seed)
        node = paper_node(num_gpus=4, scale=topo_scale)
        topology = SystemTopology.two_tier(
            4, node.hbm.capacity_bytes // 8, node.hbm.bandwidth,
            node.uvm.capacity_bytes, node.uvm.bandwidth,
        )
        sharder = RecShardFastSharder(batch_size=BATCH)
        splits = waterfilled(sharder, model, analytic_profile(model), topology)
        device_of, hbm_free, _ = sharder._assign(splits, topology)
        cases = [hbm_free]
        # Padding rows to absorb, and free HBM from none to a lot.
        splits.extra[:] = rng.integers(0, 40, model.num_tables) * (
            rng.random(model.num_tables) < 0.3
        )
        cases.append(rng.integers(0, 4 * hbm_free.max() + 2, hbm_free.size))
        # Exact fits: each device's free HBM is the next step's bytes of
        # one of its tables, so admission hinges on ``bytes <= free``.
        nxt = np.minimum(splits.step + 1, sharder.steps)
        next_bytes = (
            splits.ws.grid_rows[np.arange(model.num_tables), nxt]
            - splits.grid_rows() - splits.extra
        ) * splits.hbm_rb
        exact = hbm_free.copy()
        for device in range(topology.num_devices):
            fits = np.flatnonzero((device_of == device) & (next_bytes > 0))
            if fits.size:
                exact[device] = next_bytes[rng.choice(fits)]
        cases.append(exact)
        for free in cases:
            want_steps, want_extra, want_free = unpruned_refill(
                splits, device_of, free
            )
            got_free = np.array(free, dtype=np.int64)
            step0, extra0 = splits.step.copy(), splits.extra.copy()
            sharder._refill_arrays(splits, device_of, got_free)
            assert splits.step.tolist() == want_steps.tolist()
            assert splits.extra.tolist() == want_extra.tolist()
            assert got_free.tolist() == want_free
            assert (splits.step > step0).any()
            splits.step[:], splits.extra[:] = step0, extra0


class TestReplicaBound:
    """The replica scan cut at ``budget * D / (D-1)`` bytes selects what
    the prefix computation over every candidate selects."""

    @pytest.mark.parametrize("devices", [2, 3, 16])
    def test_bounded_scan_matches_unbounded_prefix(self, devices):
        model = build_model(num_tables=max(8, 2 * devices), seed=devices)
        profile = analytic_profile(model)
        topology = SystemTopology.two_tier(
            num_devices=devices,
            hbm_capacity=int(model.total_bytes * 0.6 / devices),
            hbm_bandwidth=200e9,
            uvm_capacity=model.total_bytes,
            uvm_bandwidth=10e9,
        )
        plan = RecShardFastSharder(batch_size=64, steps=40).shard(
            model, profile, topology
        )
        tables, total, charge = hottest_first_charges(
            plan, profile, model, topology
        )
        n = charge.size
        for k in (0, n // 50, n // 10, n // 4):
            # Exact fit: the prefix ending at candidate k uses the whole
            # budget; one byte less must admit a shorter prefix.
            for budget in (int(charge[k]), int(charge[k]) - 1):
                if budget <= 0:
                    continue
                # The bound cuts: candidates lie past budget * D / (D-1).
                assert total[-1] * (devices - 1) > budget * devices
                take = int(np.searchsorted(charge, budget, side="right"))
                want = np.bincount(tables[:take], minlength=len(plan))
                got = build_replication(
                    ReplicationPolicy(capacity_bytes=budget),
                    plan, profile, model, topology,
                )
                np.testing.assert_array_equal(got.replica_rows, want)
