"""Hot-row replication: selection, capacity accounting, golden pin.

Covers the planner side of the replication subsystem
(:mod:`repro.core.replicate`): budget carving, hottest-first selection
(on trace-profiled worlds, whose tied integer counts pin the
``(-count, table, rank)`` order), the monotone-in-budget and
never-over-capacity invariants as randomized property tests, and one
golden fixture pinning absolute selection output.

Regenerate the golden fixture (after an intentional selection change)::

    PYTHONPATH=src python -m tests.test_core.test_replicate
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    PlanError,
    PlannerWorkspace,
    RecShardFastSharder,
    ReplicationPolicy,
    ShardingPlan,
    TableStrategy,
    build_replication,
    carve_replica_budget,
    plan_with_replication,
    plan_with_strategies,
)
from repro.data.synthetic import TraceGenerator
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile, profile_trace
from tests.test_core.conftest import build_model
from tests.test_core.test_strategies import build_wide_model

FIXTURES = Path(__file__).parent.parent / "fixtures"


def two_tier(total: int, num_devices: int = 4, hbm_share: float = 0.45):
    return SystemTopology.two_tier(
        num_devices=num_devices,
        hbm_capacity=int(total * hbm_share / num_devices),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


def build_world(seed: int, num_tables: int = 8, num_devices: int = 4):
    model = build_model(num_tables=num_tables, seed=seed)
    profile = analytic_profile(model)
    topology = two_tier(model.total_bytes, num_devices=num_devices)
    return model, profile, topology


def traced_world(seed: int):
    """:func:`build_world` profiled from a short trace: integer counts,
    so many candidate rows tie."""
    model, _, topology = build_world(seed)
    profile = profile_trace(
        model, TraceGenerator(model, batch_size=256, seed=seed),
        num_batches=4, sample_rate=1.0, seed=seed,
    )
    return model, profile, topology


def replicate(seed: int, budget_fraction: float, world=build_world):
    """Carve, shard and select with a shared workspace, the path drift
    replans and ``shard_sweep`` take."""
    model, profile, topology = world(seed)
    policy = ReplicationPolicy(
        capacity_bytes=int(
            model.total_bytes * budget_fraction / topology.num_devices
        )
    )
    sharder = RecShardFastSharder(batch_size=64, steps=40)
    ws = PlannerWorkspace(model, profile, steps=40)
    plan = plan_with_replication(
        sharder, model, profile, topology, policy, workspace=ws
    )
    return model, profile, topology, plan


def holder(plan, table: int, rank: int) -> int:
    """The device holding ``table``'s ``rank`` whole: the home of an
    unsplit table, the shard whose range holds the rank for twrw, none
    (-1) for a column table."""
    strat = plan.table_strategies[table] if plan.table_strategies else None
    if strat is None or not strat.devices:
        return plan[table].device
    if strat.kind == "column":
        return -1
    return strat.devices[sum(rank >= cut for cut in strat.row_cuts)]


def hottest_first_charges(plan, profile, model, topology):
    """Every live fastest-tier candidate sorted by (-count, table, rank):
    its table, and the per-device copy charge of each prefix (every
    device pays for each row it does not hold whole)."""
    counts, tables, ranks = [], [], []
    for j, stats in enumerate(profile):
        tier0 = plan[j].rows_per_tier[0]
        ranked = stats.counts[stats.cdf.row_order[:tier0]]
        live = np.flatnonzero(ranked > 0)
        counts.append(ranked[live])
        tables.append(np.full(live.size, j))
        ranks.append(live)
    counts, tables, ranks = map(np.concatenate, (counts, tables, ranks))
    order = np.lexsort((ranks, tables, -counts))
    fastest = topology.tiers[0]
    row_bytes = np.array(
        [fastest.row_bytes_for(t.row_bytes) for t in model.tables]
    )
    homes = np.array(
        [holder(plan, j, r) for j, r in zip(tables[order], ranks[order])]
    )
    sizes = row_bytes[tables[order]]
    total = np.cumsum(sizes)
    homed = np.array(
        [
            np.cumsum(np.where(homes == d, sizes, 0))
            for d in range(topology.num_devices)
        ]
    )
    return tables[order], total, total - homed.min(axis=0)


class TestCarving:
    def test_carve_shrinks_fastest_tier_only(self):
        model, _, topology = build_world(0)
        policy = ReplicationPolicy(
            capacity_bytes=topology.tiers[0].capacity_bytes // 8
        )
        carved = carve_replica_budget(topology, policy)
        assert carved.tiers[0].capacity_bytes == (
            topology.tiers[0].capacity_bytes - policy.capacity_bytes
        )
        assert carved.tiers[1:] == topology.tiers[1:]
        assert carved.num_devices == topology.num_devices

    def test_zero_budget_is_identity(self):
        _, _, topology = build_world(0)
        assert carve_replica_budget(
            topology, ReplicationPolicy(capacity_bytes=0)
        ) is topology

    def test_budget_swallowing_the_tier_is_an_error(self):
        _, _, topology = build_world(0)
        policy = ReplicationPolicy(
            capacity_bytes=topology.tiers[0].capacity_bytes
        )
        with pytest.raises(PlanError):
            carve_replica_budget(topology, policy)

    def test_carve_keeps_fastest_tier_precision(self):
        """Regression: the carved tier used to fall back to fp32, so a
        1-byte budget under an fp16 HBM halved the plannable HBM rows."""
        model, profile, topology = build_world(0)
        topology = topology.with_precisions("hbm=fp16")
        carved = carve_replica_budget(topology, ReplicationPolicy(1))
        sharder = RecShardFastSharder(batch_size=64, steps=40)
        plain = sharder.shard(model, profile, topology)
        thin = sharder.shard(model, profile, carved)
        assert thin.tier_rows_total(0) == plain.tier_rows_total(0)
        assert carved.tiers[0] == dataclasses.replace(
            topology.tiers[0], capacity_bytes=carved.tiers[0].capacity_bytes
        )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(capacity_bytes=-1)


class TestSelection:
    def test_end_to_end_validates_and_replicates(self):
        model, _, topology, plan = replicate(0, budget_fraction=0.05)
        assert isinstance(plan, ShardingPlan)
        assert plan.replica_rows is not None
        plan.validate(model, topology)
        assert plan.num_replicated_rows > 0
        assert "replication" in plan.metadata

    def test_replicas_are_fastest_tier_prefixes(self):
        model, _, topology, plan = replicate(1, budget_fraction=0.05)
        for placement, rows in zip(plan, plan.replica_rows):
            assert 0 <= rows <= placement.rows_per_tier[0]

    def test_selection_is_globally_hottest_first(self):
        """No unselected candidate row is hotter than a selected one."""
        model, profile, topology, plan = replicate(2, budget_fraction=0.04)
        selected_min = np.inf
        unselected_max = 0.0
        for j, stats in enumerate(profile):
            tier0 = plan[j].rows_per_tier[0]
            take = int(plan.replica_rows[j])
            ranked = stats.counts[stats.cdf.row_order[:tier0]]
            if take:
                selected_min = min(selected_min, float(ranked[:take].min()))
            if take < tier0:
                live = ranked[take:]
                live = live[live > 0]
                if live.size:
                    unselected_max = max(unselected_max, float(live.max()))
        assert plan.num_replicated_rows > 0
        assert selected_min >= unselected_max - 1e-9

    @pytest.mark.parametrize("budget_fraction", [0.01, 0.03, 0.05])
    @pytest.mark.parametrize("seed", [3, 7, 15])
    def test_traced_selection_is_hottest_prefix_by_count_table_rank(
        self, seed, budget_fraction
    ):
        """Regression: counts read back as differences of the coverage
        prefix were rounded, so tied integer counts left the documented
        (table, rank) order and the admitted prefix changed."""
        model, profile, topology, plan = replicate(
            seed, budget_fraction, world=traced_world
        )
        for stats in profile:
            np.testing.assert_array_equal(stats.counts, np.round(stats.counts))
        tables, _, charge = hottest_first_charges(
            plan, profile, model, topology
        )
        take = int(
            np.searchsorted(charge, plan.replica_budget_bytes, side="right")
        )
        assert take > 0
        np.testing.assert_array_equal(
            plan.replica_rows, np.bincount(tables[:take], minlength=len(plan))
        )

    def test_traced_seed15_selection_is_pinned(self):
        _, _, _, plan = replicate(15, 0.03, world=traced_world)
        assert plan.replica_rows.tolist() == [2, 6, 11, 2, 10, 8, 5, 4]

    def test_single_device_policy_is_inert(self):
        """One device means nowhere to route: nothing is carved (the
        budget must not shrink the plannable HBM) and nothing selected."""
        model = build_model(num_tables=4, seed=4)
        profile = analytic_profile(model)
        topology = two_tier(model.total_bytes, num_devices=1, hbm_share=0.9)
        policy = ReplicationPolicy(capacity_bytes=1 << 12)
        assert carve_replica_budget(topology, policy) is topology
        plan = RecShardFastSharder(batch_size=64, steps=40).shard(
            model, profile, topology
        )
        replicated = build_replication(
            policy, plan, profile, model, topology
        )
        assert replicated.num_replicated_rows == 0


class TestProperties:
    """Randomized invariants: monotone in budget, never over capacity."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_monotone_in_budget_and_within_capacity(self, seed):
        model, profile, topology = build_world(seed)
        plan = RecShardFastSharder(batch_size=64, steps=40).shard(
            model, profile, topology,
        )
        rng = np.random.default_rng(seed)
        hbm_cap = topology.tiers[0].capacity_bytes
        budgets = np.sort(
            rng.integers(0, hbm_cap // 2, size=6)
        )
        previous = None
        for budget in budgets:
            policy = ReplicationPolicy(capacity_bytes=int(budget))
            replicated = build_replication(
                policy, plan, profile, model, topology
            )
            # Never violates the budget (and the budget is the only
            # thing that can be violated here: the base plan was built
            # on the full topology, so the physical check is run on a
            # roomier-than-carved world and must use the budget bound).
            charged = replicated.replica_bytes_per_device(model, topology)
            assert (charged <= budget).all()
            for placement, rows in zip(plan, replicated.replica_rows):
                assert rows <= placement.rows_per_tier[0]
            if previous is not None:
                assert (replicated.replica_rows >= previous).all(), (
                    "selection must be monotone in the budget"
                )
            previous = replicated.replica_rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planned_replication_validates_on_physical_topology(self, seed):
        """The carve-then-select pipeline always emits a plan whose
        base + replica bytes fit the physical fastest tier."""
        model, _, topology, plan = replicate(seed, budget_fraction=0.06)
        plan.validate(model, topology)
        charged = plan.replica_bytes_per_device(model, topology)
        usage = plan.tier_usage(model, topology)
        base = dataclasses.replace(
            plan, replica_rows=None, replica_budget_bytes=None
        ).tier_usage(model, topology)
        np.testing.assert_array_equal(usage[:, 0], base[:, 0] + charged)
        assert (usage[:, 0] <= topology.tiers[0].capacity_bytes).all()

    def test_validate_rejects_over_budget_replicas(self):
        model, profile, topology, plan = replicate(0, budget_fraction=0.03)
        rows = plan.replica_rows.copy()
        fat = int(np.argmax(
            [p.rows_per_tier[0] - r for p, r in zip(plan, rows)]
        ))
        rows[fat] = plan[fat].rows_per_tier[0]
        bloated = dataclasses.replace(plan, replica_rows=rows)
        with pytest.raises(PlanError):
            bloated.validate(model, topology)

    def test_validate_rejects_non_resident_replicas(self):
        model, _, topology, plan = replicate(1, budget_fraction=0.03)
        rows = plan.replica_rows.copy()
        rows[0] = plan[0].rows_per_tier[0] + 1
        with pytest.raises(PlanError, match="resident on the fastest"):
            dataclasses.replace(plan, replica_rows=rows).validate(
                model, topology
            )


def split_world(seed: int):
    """:func:`build_world`'s plan with table 0 column-split over devices
    0 and 1 and table 1 twrw-split over devices 1 and 2 a tenth into
    its fastest-tier rows, so large budgets replicate across the cut
    (selection reads no capacity, so the plan is not validated)."""
    model, profile, topology = build_world(seed)
    plan = RecShardFastSharder(batch_size=64, steps=40).shard(
        model, profile, topology
    )
    strategies = [TableStrategy("row")] * len(plan)
    dim = model.tables[0].dim
    strategies[0] = TableStrategy(
        "column", devices=(0, 1), dims=(dim // 2, dim - dim // 2)
    )
    strategies[1] = TableStrategy(
        "twrw", devices=(1, 2), row_cuts=(plan[1].rows_per_tier[0] // 10,)
    )
    plan = dataclasses.replace(plan, table_strategies=tuple(strategies))
    return model, profile, topology, plan


class TestStrategyPlans:
    """Replicas of split tables: each candidate's holder is read per
    shard, and each device pays for the rows it does not hold whole."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selection_matches_per_shard_oracle(self, seed):
        model, profile, topology, plan = split_world(seed)
        tables, _, charge = hottest_first_charges(
            plan, profile, model, topology
        )
        n = charge.size
        for k in (0, n // 50, n // 10, n // 4):
            for budget in (int(charge[k]), int(charge[k]) - 1):
                if budget <= 0:
                    continue
                take = int(np.searchsorted(charge, budget, side="right"))
                got = build_replication(
                    ReplicationPolicy(capacity_bytes=budget),
                    plan, profile, model, topology,
                )
                np.testing.assert_array_equal(
                    got.replica_rows,
                    np.bincount(tables[:take], minlength=len(plan)),
                )
                charged = got.replica_bytes_per_device(model, topology)
                assert charged.max() == (charge[take - 1] if take else 0)

    def test_charges_per_device(self):
        """Device 1 holds table 1's leading ranks whole, device 2 its
        tail; nobody holds table 0 (column) whole."""
        model, _, topology, plan = split_world(0)
        fastest = topology.tiers[0]
        row_bytes = [fastest.row_bytes_for(t.row_bytes) for t in model.tables]
        cut = plan.table_strategies[1].row_cuts[0]
        replica_rows = np.zeros(len(plan), dtype=np.int64)
        replica_rows[:2] = (5, cut + 3)
        replicated = dataclasses.replace(
            plan, replica_rows=replica_rows, replica_budget_bytes=0
        )
        total = 5 * row_bytes[0] + (cut + 3) * row_bytes[1]
        want = np.full(topology.num_devices, total)
        want[1] -= cut * row_bytes[1]
        want[2] -= 3 * row_bytes[1]
        np.testing.assert_array_equal(
            replicated.replica_bytes_per_device(model, topology), want
        )

    def test_column_rows_have_no_holder(self):
        """With every unsplit table on device 1, device 0 holds no row
        whole — a column shard holds a slice — so it pays for every
        replicated row, and it is the device that binds admission."""
        model, profile, topology = build_world(0, num_devices=2)
        plan = RecShardFastSharder(batch_size=64, steps=40).shard(
            model, profile, topology
        )
        dim = model.tables[0].dim
        plan = dataclasses.replace(
            plan,
            placements=[dataclasses.replace(p, device=1) for p in plan],
            table_strategies=(
                TableStrategy("column", (0, 1), dims=(dim // 2, dim // 2)),
                *[TableStrategy("row")] * (len(plan) - 1),
            ),
        )
        tables, total, charge = hottest_first_charges(
            plan, profile, model, topology
        )
        np.testing.assert_array_equal(charge, total)
        budget = int(total[total.size // 10])
        got = build_replication(
            ReplicationPolicy(capacity_bytes=budget),
            plan, profile, model, topology,
        )
        take = int(np.searchsorted(total, budget, side="right"))
        np.testing.assert_array_equal(
            got.replica_rows, np.bincount(tables[:take], minlength=len(plan))
        )
        assert got.replica_rows[0] > 0
        assert got.replica_bytes_per_device(model, topology)[0] == total[
            take - 1
        ]

    def test_carve_strategies_then_replicate(self):
        """The ``plan --strategies --replicate-gib`` path: carve, plan
        strategies on the carved topology, spend the carved bytes; the
        result validates on the physical topology."""
        model = build_wide_model(seed=0)
        profile = analytic_profile(model)
        topology = two_tier(model.total_bytes, hbm_share=1.5)
        policy = ReplicationPolicy(
            capacity_bytes=topology.tiers[0].capacity_bytes // 20
        )
        sp = plan_with_strategies(
            RecShardFastSharder(batch_size=128, steps=40), model, profile,
            carve_replica_budget(topology, policy),
        )
        replicated = build_replication(policy, sp, profile, model, topology)
        replicated.validate(model, topology)
        counts = replicated.strategy_counts()
        assert counts["column"] + counts["twrw"] >= 1
        assert replicated.num_replicated_rows > 0


# ---------------------------------------------------------------------
# Golden fixture: absolute selection output pinned for a fixed world.
# ---------------------------------------------------------------------
GOLDEN_NAME = "replicated_plan_seed0"


def build_golden() -> ShardingPlan:
    _, _, _, plan = replicate(0, budget_fraction=0.05)
    return plan


def serialize(plan: ShardingPlan) -> dict:
    return {
        "strategy": plan.strategy,
        "budget_bytes_per_device": int(plan.replica_budget_bytes),
        "replica_rows": [int(r) for r in plan.replica_rows],
        "placements": [
            {
                "table": p.table_index,
                "device": p.device,
                "rows_per_tier": list(p.rows_per_tier),
            }
            for p in plan
        ],
    }


def test_replicated_plan_matches_golden_fixture():
    path = FIXTURES / f"plan_{GOLDEN_NAME}.json"
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "`PYTHONPATH=src python -m tests.test_core.test_replicate`"
    )
    golden = json.loads(path.read_text())
    current = serialize(build_golden())
    assert current == golden, (
        "replica selection drifted from the pinned fixture — if "
        "intentional, regenerate and review the diff"
    )


def test_golden_builder_is_deterministic():
    assert serialize(build_golden()) == serialize(build_golden())


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    path = FIXTURES / f"plan_{GOLDEN_NAME}.json"
    path.write_text(json.dumps(serialize(build_golden()), indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
