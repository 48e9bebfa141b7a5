"""The one cost evaluator on strategy plans.

:func:`~repro.core.evaluate.expected_device_costs_ms_many` scores plain
and strategy plans in one batched pass.  Random strategy plans with
column and twrw shards, on profiles whose coverage stack a planner
workspace filled first or the evaluator's own gather fills, must equal
the shard-by-shard reference loop bit for bit
(``tests.oracles.planner.strategy_device_costs_ms``); a mixed
population's rows must equal one-plan calls, and split tables must
charge only their shard devices.  Plain plans are checked against the
placement-by-placement loop in ``test_planner_vectorized.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    PlannerWorkspace,
    TablePlacement,
    TableStrategy,
    expected_device_costs_ms,
    expected_device_costs_ms_many,
    expected_max_cost_ms,
)
from repro.core.plan import ShardingPlan
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.planner import strategy_device_costs_ms
from tests.test_core.conftest import build_model

BATCH = 128
DEVICES = 4


def _world(seed: int, num_tiers: int):
    model = build_model(num_tables=10, rows=300, dim=16, seed=seed)
    profile = analytic_profile(model)
    bandwidths = (200e9, 20e9, 2e9)[:num_tiers]
    topology = SystemTopology(
        num_devices=DEVICES,
        tiers=tuple(
            MemoryTier(f"t{k}", model.total_bytes, bw)
            for k, bw in enumerate(bandwidths)
        ),
    )
    return model, profile, topology


def _random_plain(model, num_tiers: int, rng) -> ShardingPlan:
    placements = []
    for j, table in enumerate(model.tables):
        edges = np.sort(rng.integers(0, table.num_rows + 1, num_tiers - 1))
        rows = np.diff(np.concatenate(([0], edges, [table.num_rows])))
        placements.append(
            TablePlacement(
                j, int(rng.integers(DEVICES)), tuple(int(r) for r in rows)
            )
        )
    return ShardingPlan(strategy="random", placements=placements)


def _random_strategies(model, plan: ShardingPlan, rng) -> ShardingPlan:
    strategies = []
    for table in model.tables:
        kind = rng.choice(("row", "table", "column", "twrw"))
        shards = int(rng.integers(2, DEVICES + 1))
        devices = tuple(int(d) for d in rng.permutation(DEVICES)[:shards])
        if kind == "column":
            q, r = divmod(table.dim, shards)
            dims = tuple(q + (i < r) for i in range(shards))
            strategies.append(TableStrategy("column", devices, dims=dims))
        elif kind == "twrw":
            cuts = np.sort(
                rng.choice(
                    np.arange(1, table.num_rows), shards - 1, replace=False
                )
            )
            strategies.append(
                TableStrategy(
                    "twrw", devices, row_cuts=tuple(int(c) for c in cuts)
                )
            )
        else:
            strategies.append(TableStrategy(str(kind)))
    return dataclasses.replace(plan, table_strategies=tuple(strategies))


@pytest.mark.parametrize("num_tiers", [2, 3])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("use_workspace", [False, True])
def test_strategy_plans_match_strategy_loop(seed, num_tiers, use_workspace):
    model, profile, topology = _world(seed, num_tiers)
    rng = np.random.default_rng(100 + seed)
    plans = [
        _random_strategies(model, _random_plain(model, num_tiers, rng), rng)
        for _ in range(6)
    ]
    assert any(
        s.kind in ("column", "twrw")
        for plan in plans for s in plan.table_strategies
    )
    if use_workspace:
        # The sharders' order: a workspace builds every CDF first.
        PlannerWorkspace(model, profile, steps=20)
    batched = expected_device_costs_ms_many(
        plans, model, profile, topology, BATCH
    )
    for plan, got in zip(plans, batched):
        np.testing.assert_array_equal(
            got,
            strategy_device_costs_ms(plan, model, profile, topology, BATCH),
        )


def test_population_rows_equal_one_plan_calls():
    model, profile, topology = _world(0, 2)
    rng = np.random.default_rng(7)
    plain = [_random_plain(model, 2, rng) for _ in range(3)]
    mixed = [
        p if i % 2 else _random_strategies(model, p, rng)
        for i, p in enumerate(plain)
    ]
    batched = expected_device_costs_ms_many(
        mixed, model, profile, topology, BATCH
    )
    for plan, row in zip(mixed, batched):
        np.testing.assert_array_equal(
            row,
            expected_device_costs_ms_many(
                [plan], model, profile, topology, BATCH
            )[0],
        )
        np.testing.assert_array_equal(
            row, expected_device_costs_ms(plan, model, profile, topology, BATCH)
        )
        assert expected_max_cost_ms(
            plan, model, profile, topology, BATCH
        ) == row.max()


def test_split_shards_charge_only_their_devices():
    # Only tables 0 (column over devices 1-2) and 1 (twrw over 2-3) hold
    # rows; both are homed on device 0, which must be charged nothing.
    model, profile, topology = _world(1, 2)
    placements = [TablePlacement(j, 0, (0, 0)) for j in range(len(model.tables))]
    for j in (0, 1):
        half = model.tables[j].num_rows // 2
        placements[j] = TablePlacement(
            j, 0, (half, model.tables[j].num_rows - half)
        )
    strategies = [TableStrategy("row")] * len(placements)
    strategies[0] = TableStrategy("column", (1, 2), dims=(8, 8))
    strategies[1] = TableStrategy(
        "twrw", (2, 3), row_cuts=(model.tables[1].num_rows // 3,)
    )
    plan = ShardingPlan(
        strategy="hand", placements=placements,
        table_strategies=tuple(strategies),
    )
    costs = expected_device_costs_ms(plan, model, profile, topology, BATCH)
    assert costs[0] == 0.0
    assert (costs[1:] > 0).all()
