"""Tests for per-table sharding-strategy enumeration.

Covers the strategy value object (:class:`TableStrategy`), plans
carrying ``table_strategies`` and their one ``validate``, the integer
split helpers whose conservation
laws the executor's reduce step relies on, evaluator parity between an
all-row strategy plan and its plain base plan, the greedy
:func:`plan_with_strategies` refinement, the ``strategies=`` sweep arm,
and a golden fixture pinning the auto-picked plan on a wide-dim
workload.  Regenerate the fixture with::

    PYTHONPATH=src python -m tests.test_core.test_strategies
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
    TablePlacement,
    TableStrategy,
    crossing_cells,
    expected_device_costs_ms_many,
    plan_with_strategies,
    proportional_split,
    resolve_strategy_kinds,
    shard_sweep,
    validate_scale_grid,
)
from repro.core.plan import ShardingPlan
from repro.engine import ShardedExecutor
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

FIXTURES = Path(__file__).parent.parent / "fixtures"


def _roomy(total: int, num_devices: int = 4) -> SystemTopology:
    return SystemTopology.two_tier(
        num_devices=num_devices,
        hbm_capacity=int(total * 1.5 / num_devices),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


def build_wide_model(seed: int = 0, wide_dim: int = 2048):
    """A workload with one dominant wide table.

    LPT already balances workloads of similar-sized tables, so the
    strategy menu only pays off when a single table dwarfs the rest —
    the shape column/twrw splits exist for.
    """
    base = build_model(num_tables=12, rows=512, dim=16, seed=seed)
    tables = list(base.tables)
    tables[0] = dataclasses.replace(tables[0], dim=wide_dim)
    return dataclasses.replace(base, name="wide", tables=tuple(tables))


def _tight(total: int, num_devices: int = 4) -> SystemTopology:
    return SystemTopology.two_tier(
        num_devices=num_devices,
        hbm_capacity=int(total * 0.45 / num_devices),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


def _world(num_tables=8, seed=0, dim=16, num_devices=4):
    model = build_model(num_tables=num_tables, rows=512, dim=dim, seed=seed)
    profile = analytic_profile(model)
    return model, profile, _roomy(model.total_bytes, num_devices)


def _base_plan(model, profile, topology):
    return RecShardFastSharder(batch_size=128, steps=40).shard(
        model, profile, topology
    )


def _mixed_strategies(model, plan, num_devices):
    """One column, one twrw, one table-wise, rest row — all valid."""
    strategies = [TableStrategy("row") for _ in range(len(plan))]
    t0 = model.tables[0]
    half = t0.dim // 2
    strategies[0] = TableStrategy(
        "column", devices=(0, 1), dims=(half, t0.dim - half)
    )
    t1 = model.tables[1]
    strategies[1] = TableStrategy(
        "twrw", devices=(1, 2), row_cuts=(t1.num_rows // 2,)
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


def _with_strategies(plan, strategies=None):
    """``plan`` with per-table strategies (all ``row`` by default)."""
    if strategies is None:
        strategies = (TableStrategy("row"),) * len(plan)
    return dataclasses.replace(plan, table_strategies=tuple(strategies))


def _outcome(plan, model, topology):
    """``None`` if ``plan`` validates, else the PlanError text."""
    try:
        plan.validate(model, topology)
    except PlanError as error:
        return str(error)
    return None


# ----------------------------------------------------------------------
# Token resolution and value-object validation
# ----------------------------------------------------------------------


class TestResolveKinds:
    def test_auto_expands_to_all_kinds(self):
        assert set(resolve_strategy_kinds(["auto"])) == {
            "row", "table", "column", "twrw",
        }

    def test_row_always_appended(self):
        assert "row" in resolve_strategy_kinds(["column"])

    def test_string_input_is_one_token(self):
        assert resolve_strategy_kinds("table") == ("table", "row")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="diagonal"):
            resolve_strategy_kinds(["row", "diagonal"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            resolve_strategy_kinds([])


class TestTableStrategy:
    def test_row_and_table_take_no_shard_spec(self):
        with pytest.raises(PlanError, match="takes no shard spec"):
            TableStrategy("table", devices=(3,))
        with pytest.raises(PlanError, match="takes no shard spec"):
            TableStrategy("row", dims=(4, 4))

    def test_unknown_kind(self):
        with pytest.raises(PlanError, match="unknown strategy kind"):
            TableStrategy("diagonal")

    def test_column_needs_dim_per_device(self):
        with pytest.raises(PlanError, match="one dim per device"):
            TableStrategy("column", devices=(0, 1), dims=(8,))

    def test_column_rejects_zero_dim(self):
        with pytest.raises(PlanError, match=">= 1"):
            TableStrategy("column", devices=(0, 1), dims=(8, 0))

    def test_split_needs_two_distinct_devices(self):
        with pytest.raises(PlanError, match=">= 2 shard devices"):
            TableStrategy("column", devices=(0,), dims=(8,))
        with pytest.raises(PlanError, match="distinct"):
            TableStrategy("twrw", devices=(1, 1), row_cuts=(4,))

    def test_twrw_cuts_must_increase(self):
        with pytest.raises(PlanError):
            TableStrategy("twrw", devices=(0, 1, 2), row_cuts=(9, 4))

    def test_num_shards(self):
        assert TableStrategy("row").num_shards == 1
        strat = TableStrategy("column", devices=(0, 1), dims=(4, 4))
        assert strat.num_shards == 2


# ----------------------------------------------------------------------
# Integer split helpers: exact cases + conservation laws
# ----------------------------------------------------------------------


class TestProportionalSplit:
    def test_exact(self):
        out = proportional_split([10, 7, 0], [3, 1])
        assert out.tolist() == [[8, 2], [5, 2], [0, 0]]
        # A weight vector per row; zero weights pad and get nothing.
        out = proportional_split([10, 7], [[3, 1, 0], [1, 1, 1]])
        assert out.tolist() == [[8, 2, 0], [3, 2, 2]]

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            proportional_split([4], [0, 0])

    def test_randomized_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(0, 10_000, size=rng.integers(1, 12))
            weights = rng.integers(1, 512, size=rng.integers(1, 6))
            out = proportional_split(counts, weights)
            assert out.dtype == np.int64
            assert (out >= 0).all()
            # Law 1: every row's shares sum exactly to its count.
            np.testing.assert_array_equal(out.sum(axis=1), counts)
            # Law 2: each share is within one lookup of exact
            # proportionality.
            exact = counts[:, None] * weights[None, :] / weights.sum()
            assert np.abs(out - exact).max() < 1.0


class TestTwrwCellRows:
    def test_exact(self):
        cells = crossing_cells(
            np.array([0, 5, 12])[:, None], [0, 4, 9], [4, 9, 12]
        )
        assert cells.tolist() == [[4, 1, 0], [0, 4, 3]]

    def test_randomized_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            total = int(rng.integers(4, 5_000))
            n_tiers = int(rng.integers(1, 4))
            n_cuts = int(rng.integers(1, 4))
            bounds = np.sort(rng.integers(0, total, size=n_tiers))
            bounds[-1] = total
            cuts = np.unique(rng.integers(1, total, size=n_cuts))
            shard_edges = np.concatenate(([0], cuts, [total]))
            cells = crossing_cells(
                np.concatenate(([0], bounds))[:, None],
                shard_edges[:-1],
                shard_edges[1:],
            )
            # Rows conserve in every direction: overall, per tier
            # (matching the base plan's split), and per shard
            # (matching the cut ranges).
            assert int(cells.sum()) == total
            np.testing.assert_array_equal(
                cells.sum(axis=1), np.diff(np.concatenate(([0], bounds)))
            )
            np.testing.assert_array_equal(
                cells.sum(axis=0),
                np.diff(np.concatenate(([0], cuts, [total]))),
            )


# ----------------------------------------------------------------------
# Strategy plans: validation + byte conservation
# ----------------------------------------------------------------------


class TestStrategyPlan:
    def test_length_mismatch(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        with pytest.raises(PlanError, match="strategies for"):
            _with_strategies(plan, (TableStrategy("row"),))

    def test_column_dims_must_cover_table_dim(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        strategies = [TableStrategy("row") for _ in range(len(plan))]
        strategies[0] = TableStrategy("column", devices=(0, 1), dims=(4, 4))
        sp = _with_strategies(plan, strategies)
        with pytest.raises(PlanError, match="dims sum"):
            sp.validate(model, topology)

    def test_twrw_cut_beyond_rows(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        strategies = [TableStrategy("row") for _ in range(len(plan))]
        strategies[0] = TableStrategy(
            "twrw", devices=(0, 1), row_cuts=(10**9,)
        )
        sp = _with_strategies(plan, strategies)
        with pytest.raises(PlanError, match="cut beyond"):
            sp.validate(model, topology)

    def test_shard_device_out_of_range(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        t0 = model.tables[0]
        strategies = [TableStrategy("row") for _ in range(len(plan))]
        strategies[0] = TableStrategy(
            "column", devices=(0, 99), dims=(8, t0.dim - 8)
        )
        sp = _with_strategies(plan, strategies)
        with pytest.raises(PlanError, match="out of range"):
            sp.validate(model, topology)

    def test_capacity_checked_per_physical_shard(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        tiny = SystemTopology.two_tier(
            num_devices=topology.num_devices,
            hbm_capacity=1,
            hbm_bandwidth=200e9,
            uvm_capacity=1,
            uvm_bandwidth=10e9,
        )
        with pytest.raises(PlanError, match="exceeds capacity"):
            _with_strategies(plan).validate(model, tiny)

    def test_shard_bytes_conserved_under_any_strategy(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        sp = _mixed_strategies(model, plan, topology.num_devices)
        sp.validate(model, topology)
        # Splitting changes *where* bytes live, never how many there are.
        assert int(sp.tier_usage(model, topology).sum()) == model.total_bytes
        row_only = _with_strategies(plan)
        assert (
            int(row_only.tier_usage(model, topology).sum())
            == model.total_bytes
        )

    def test_strategy_counts_and_summary(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        sp = _mixed_strategies(model, plan, topology.num_devices)
        counts = sp.strategy_counts()
        assert counts["column"] == 1 and counts["twrw"] == 1
        assert counts["table"] == 1 and counts["row"] == len(plan) - 3
        summary = sp.summary(model, topology)
        assert summary["split_tables"] == 2
        assert summary["strategy_counts"] == counts

    def test_num_cut_lanes(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        sp = _mixed_strategies(model, plan, topology.num_devices)
        executor = ShardedExecutor(model, sp, profile, topology)
        # One twrw table with one cut: its cut is one more code edge.
        (j,) = [
            j for j, s in enumerate(sp.table_strategies) if s.kind == "twrw"
        ]
        (cut,) = sp.table_strategies[j].row_cuts
        bounds = set(np.cumsum(sp[j].rows_per_tier).tolist())
        assert cut in executor._codes.edges[j]
        assert set(executor._codes.edges[j]) - bounds == {cut}

    @pytest.mark.parametrize("reclaim_dead", [False, True])
    @pytest.mark.parametrize("ladder", ["hbm=fp32", "hbm=fp16", "uvm=int4"])
    def test_all_row_validates_like_bare_plan(self, ladder, reclaim_dead):
        """Regression: the strategy validator charged every shard at
        fp32 with no dead-row credit, so all-row strategy plans were
        refused where their bare plan validates."""
        model = build_model(num_tables=8, rows=512, dim=16, seed=0)
        profile = analytic_profile(model)
        topology = _tight(model.total_bytes).with_precisions(ladder)
        plan = RecShardFastSharder(
            batch_size=128, steps=40, reclaim_dead=reclaim_dead
        ).shard(model, profile, topology)
        all_row = _with_strategies(plan)
        peak = plan.tier_usage(model, topology).max(axis=0)
        # Each tier at exactly the bare plan's peak (fits) and one byte
        # below it (refused).
        for t, tier in enumerate(topology.tiers):
            for slack, fits in ((0, True), (-1, False)):
                tiers = list(topology.tiers)
                tiers[t] = dataclasses.replace(
                    tier, capacity_bytes=int(peak[t]) + slack
                )
                point = dataclasses.replace(topology, tiers=tuple(tiers))
                bare = _outcome(plan, model, point)
                assert (bare is None) == fits
                assert _outcome(all_row, model, point) == bare


# ----------------------------------------------------------------------
# Evaluator parity and cost conservation
# ----------------------------------------------------------------------


class TestStrategyCosts:
    def test_all_row_matches_plain_plan_exactly(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        sp = _with_strategies(plan)
        plain = expected_device_costs_ms_many(
            [plan], model, profile, topology, 128
        )[0]
        wrapped = expected_device_costs_ms_many(
            [sp], model, profile, topology, 128
        )[0]
        np.testing.assert_array_equal(plain, wrapped)

    def test_mixed_population_scores_each_plan(self):
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        sp = _mixed_strategies(model, plan, topology.num_devices)
        costs = expected_device_costs_ms_many(
            [plan, sp, plan], model, profile, topology, 128
        )
        assert costs.shape == (3, topology.num_devices)
        np.testing.assert_array_equal(costs[0], costs[2])

    def test_column_and_twrw_conserve_total_cost(self):
        # Column and twrw shards re-attribute a table's traffic across
        # devices without changing tier membership, so summed over
        # devices the cost model must agree with the row-only base.
        model, profile, topology = _world()
        plan = _base_plan(model, profile, topology)
        strategies = [TableStrategy("row") for _ in range(len(plan))]
        t0, t1 = model.tables[0], model.tables[1]
        strategies[0] = TableStrategy(
            "column", devices=(0, 1), dims=(t0.dim // 2, t0.dim - t0.dim // 2)
        )
        strategies[1] = TableStrategy(
            "twrw", devices=(1, 2), row_cuts=(t1.num_rows // 2,)
        )
        sp = _with_strategies(plan, strategies)
        base, split = expected_device_costs_ms_many(
            [_with_strategies(plan), sp], model, profile, topology, 128
        )
        assert split.sum() == pytest.approx(base.sum(), rel=1e-9)


# ----------------------------------------------------------------------
# Planner: greedy refinement
# ----------------------------------------------------------------------


class TestPlanWithStrategies:
    def test_beats_row_only_on_wide_workload(self):
        model = build_wide_model(seed=0)
        profile = analytic_profile(model)
        topology = _roomy(model.total_bytes, num_devices=4)
        sharder = RecShardFastSharder(batch_size=128, steps=40)
        sp = plan_with_strategies(
            sharder, model, profile, topology, strategies=("auto",)
        )
        sp.validate(model, topology)
        meta = sp.metadata
        assert meta["solver"] == "strategies"
        assert meta["estimated_max_cost_ms"] < meta["row_only_max_cost_ms"]
        counts = sp.strategy_counts()
        assert sum(counts[k] for k in ("table", "column", "twrw")) >= 1

    def test_row_only_tokens_reproduce_base_plan(self):
        model, profile, topology = _world()
        sharder = RecShardFastSharder(batch_size=128, steps=40)
        sp = plan_with_strategies(
            sharder, model, profile, topology, strategies=("row",)
        )
        assert sp.strategy_counts() == {
            "row": len(sp), "table": 0, "column": 0, "twrw": 0,
        }
        assert (
            sp.metadata["estimated_max_cost_ms"]
            == sp.metadata["row_only_max_cost_ms"]
        )

    def test_never_worse_than_row_only(self):
        for seed in range(3):
            model, profile, topology = _world(seed=seed)
            sharder = RecShardFastSharder(batch_size=128, steps=40)
            sp = plan_with_strategies(
                sharder, model, profile, topology, strategies=("auto",)
            )
            assert (
                sp.metadata["estimated_max_cost_ms"]
                <= sp.metadata["row_only_max_cost_ms"] * (1 + 1e-12)
            )

    def test_deterministic(self):
        model = build_wide_model(seed=0)
        profile = analytic_profile(model)
        topology = _roomy(model.total_bytes, num_devices=4)
        sharder = RecShardFastSharder(batch_size=128, steps=40)
        a = plan_with_strategies(sharder, model, profile, topology)
        b = plan_with_strategies(sharder, model, profile, topology)
        assert serialize(a) == serialize(b)


# ----------------------------------------------------------------------
# Sweep integration + grid validation
# ----------------------------------------------------------------------


class TestStrategySweep:
    def test_strategy_grid(self):
        model, profile, topology = _world()
        workspace = PlannerWorkspace(model, profile, steps=40)
        sharder = RecShardFastSharder(batch_size=128, steps=40)
        plans = shard_sweep(
            workspace,
            sharder=sharder,
            strategies=["row", "auto"],
            base_topology=topology,
        )
        assert [p.metadata["sweep_key"] for p in plans] == [
            "strategies=row", "strategies=auto",
        ]
        for p in plans:
            assert p.table_strategies is not None

    def test_requires_base_topology(self):
        model, profile, _ = _world()
        workspace = PlannerWorkspace(model, profile, steps=40)
        with pytest.raises(ValueError, match="base_topology"):
            shard_sweep(
                workspace,
                sharder=RecShardFastSharder(batch_size=128, steps=40),
                strategies=["row"],
            )

    def test_bad_token_wrapped_with_sweep_context(self):
        model, profile, topology = _world()
        workspace = PlannerWorkspace(model, profile, steps=40)
        with pytest.raises(PlanError, match="sweep point strategies=zigzag"):
            shard_sweep(
                workspace,
                sharder=RecShardFastSharder(batch_size=128, steps=40),
                strategies=["zigzag"],
                base_topology=topology,
            )

    def test_budget_grid_validated_up_front(self):
        # Regression: hbm_scale=0 used to reach the waterfill and die
        # on a zero-capacity tier with no sweep-point context.
        model, profile, topology = _world()
        workspace = PlannerWorkspace(model, profile, steps=40)
        sharder = RecShardFastSharder(batch_size=128, steps=40)
        for bad in ([0.0], [float("nan")], [1.0, -2.0]):
            with pytest.raises(PlanError, match="sweep point hbm_scale="):
                shard_sweep(
                    workspace,
                    sharder=sharder,
                    budgets=bad,
                    base_topology=topology,
                )

    def test_validate_scale_grid(self):
        assert validate_scale_grid([1, 2.5], "hbm_scale") == [1.0, 2.5]
        assert validate_scale_grid([0], "gib", allow_zero=True) == [0.0]
        with pytest.raises(PlanError, match="sweep point gib=-1"):
            validate_scale_grid([-1], "gib", allow_zero=True)
        with pytest.raises(PlanError, match="finite"):
            validate_scale_grid([float("inf")], "hbm_scale")


# ----------------------------------------------------------------------
# Golden fixture
# ----------------------------------------------------------------------


def _golden_builder():
    model = build_wide_model(seed=0)
    profile = analytic_profile(model)
    topology = _roomy(model.total_bytes, num_devices=4)
    sharder = RecShardFastSharder(batch_size=128, steps=40)
    return plan_with_strategies(
        sharder, model, profile, topology, strategies=("auto",)
    )


def serialize(sp: ShardingPlan) -> dict:
    return {
        "strategy": sp.strategy,
        "solver": sp.metadata.get("solver"),
        "strategy_counts": sp.strategy_counts(),
        "placements": [
            {
                "table": p.table_index,
                "device": p.device,
                "rows_per_tier": list(p.rows_per_tier),
                "kind": s.kind,
                "devices": list(s.devices),
                "dims": list(s.dims),
                "row_cuts": list(s.row_cuts),
            }
            for p, s in zip(sp.placements, sp.table_strategies)
        ],
    }


def test_strategy_plan_matches_golden_fixture():
    path = FIXTURES / "plan_strategies_seed0.json"
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "`PYTHONPATH=src python -m tests.test_core.test_strategies`"
    )
    golden = json.loads(path.read_text())
    current = serialize(_golden_builder())
    assert current["solver"] == golden["solver"]
    assert current["strategy_counts"] == golden["strategy_counts"]
    for mine, pinned in zip(current["placements"], golden["placements"]):
        assert mine == pinned, (
            f"table {pinned['table']} drifted (pinned {pinned}, got "
            f"{mine}) — if intentional, regenerate the fixture and "
            "review the diff"
        )
    assert len(current["placements"]) == len(golden["placements"])


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    path = FIXTURES / "plan_strategies_seed0.json"
    path.write_text(json.dumps(serialize(_golden_builder()), indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
