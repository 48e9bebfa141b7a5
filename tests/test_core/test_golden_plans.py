"""Golden-fixture regression tests for the planners.

The parity suites pin the vectorized paths against their scalar
references, but a refactor that shifts *both* paths in lockstep would
sail through them.  These tests pin absolute planner output: for fixed
seeds and topologies, every placement (device home and per-tier row
split) of the MILP, fast-heuristic, and multi-tier greedy sharders must
match the serialized plans under ``tests/fixtures/`` exactly.

When a change *intentionally* alters placements (a cost-model fix, a
tie-break change), regenerate the fixtures and review the diff::

    PYTHONPATH=src python -m tests.test_core.test_golden_plans

The MILP case swaps the pure-Python branch-and-bound oracle
(:func:`tests.oracles.branch_bound.branch_and_bound`) in for HiGHS, so
the pinned solution does not depend on the installed scipy/HiGHS
version; it stops on its node budget, never on the clock.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import MultiTierSharder, RecShardFastSharder, RecShardSharder
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.branch_bound import branch_and_bound
from tests.test_core.conftest import build_model

FIXTURES = Path(__file__).parent.parent / "fixtures"


def _two_tier(total: int, hbm_share: float = 0.45) -> SystemTopology:
    return SystemTopology.two_tier(
        num_devices=2,
        hbm_capacity=int(total * hbm_share / 2),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


def _three_tier(total: int) -> SystemTopology:
    return SystemTopology(
        num_devices=2,
        tiers=(
            MemoryTier("hbm", int(total * 0.18 / 2), 200e9),
            MemoryTier("dram", int(total * 0.18 / 2), 20e9),
            MemoryTier("ssd", total, 2e9),
        ),
    )


def _fast_plan(seed: int, reclaim_dead: bool = False):
    model = build_model(num_tables=6, seed=seed)
    profile = analytic_profile(model)
    topology = _two_tier(model.total_bytes)
    plan = RecShardFastSharder(
        batch_size=128, steps=40, reclaim_dead=reclaim_dead
    ).shard(model, profile, topology)
    return plan


def _milp_plan():
    model = build_model(num_tables=4, rows=64, seed=17)
    profile = analytic_profile(model)
    topology = _two_tier(model.total_bytes)
    with branch_and_bound():
        return RecShardSharder(
            batch_size=64, steps=6, formulation="convex", fallback=False
        ).shard(model, profile, topology)


def _multitier_plan(seed: int):
    model = build_model(num_tables=6, seed=seed)
    profile = analytic_profile(model)
    topology = _three_tier(model.total_bytes)
    plan = MultiTierSharder(batch_size=128, steps=12).shard(
        model, profile, topology
    )
    return plan


#: fixture name -> plan builder.  Builders must be fully deterministic:
#: seeded worlds, analytic profiles, a deterministic MILP solver.
GOLDEN_PLANS = {
    "fast_tight_seed0": lambda: _fast_plan(0),
    "fast_tight_seed1": lambda: _fast_plan(1),
    "fast_reclaim_seed2": lambda: _fast_plan(2, reclaim_dead=True),
    "milp_convex_branch_bound": _milp_plan,
    "multitier_greedy_seed0": lambda: _multitier_plan(0),
    "multitier_greedy_seed1": lambda: _multitier_plan(1),
}


def serialize(plan) -> dict:
    """The pinned form of a plan; strategy and replica fields appear
    only when the plan carries them (none of these planners sets them)."""
    out = {
        "strategy": plan.strategy,
        "solver": plan.metadata.get("solver"),
        "placements": [
            {
                "table": p.table_index,
                "device": p.device,
                "rows_per_tier": list(p.rows_per_tier),
            }
            for p in plan
        ],
    }
    if plan.table_strategies is not None:
        out["table_strategies"] = [s.kind for s in plan.table_strategies]
    if plan.replica_rows is not None:
        out["replica_rows"] = [int(r) for r in plan.replica_rows]
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_planner_output_matches_golden_fixture(name):
    path = FIXTURES / f"plan_{name}.json"
    assert path.exists(), (
        f"missing fixture {path}; regenerate with "
        "`PYTHONPATH=src python -m tests.test_core.test_golden_plans`"
    )
    golden = json.loads(path.read_text())
    current = serialize(GOLDEN_PLANS[name]())
    assert current.keys() == golden.keys()
    assert current["strategy"] == golden["strategy"]
    assert current["solver"] == golden["solver"]
    for mine, pinned in zip(current["placements"], golden["placements"]):
        assert mine == pinned, (
            f"{name}: table {pinned['table']} placement drifted "
            f"(pinned {pinned}, got {mine}) — if intentional, regenerate "
            "the fixtures and review the diff"
        )
    assert len(current["placements"]) == len(golden["placements"])


def test_builders_are_deterministic():
    """The pin is only meaningful if rebuilding twice agrees."""
    name = "fast_tight_seed0"
    assert serialize(GOLDEN_PLANS[name]()) == serialize(GOLDEN_PLANS[name]())


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, builder in sorted(GOLDEN_PLANS.items()):
        path = FIXTURES / f"plan_{name}.json"
        path.write_text(json.dumps(serialize(builder()), indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
