"""The greedy heuristic sharder used by production baselines (Section 5).

Given per-table costs, sort tables by descending cost and assign each to
the GPU with the lowest accumulated cost.  Tables are whole-table
placements: all rows in HBM if the chosen GPU has room, otherwise all
rows in that GPU's UVM (HBM saturation spill).  This reproduces the
failure mode the paper highlights: cost functions that ignore capacity
(Lookup) oversubscribe some GPUs' HBM and spill hot tables to UVM.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.cost import COST_FUNCTIONS
from repro.core.evaluate import stamp_estimated_costs
from repro.core.plan import PlanError, ShardingPlan, TablePlacement
from repro.core.workspace import PlannerWorkspace
from repro.memory.topology import SystemTopology


class GreedySharder:
    """Fixed-cost greedy baseline sharder.

    Args:
        cost_fn: maps (table spec, table stats) to a scalar cost.
        name: strategy label used in reports.
    """

    def __init__(self, cost_fn: Callable, name: str):
        self.cost_fn = cost_fn
        self.name = name

    def shard(
        self, model, profile, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
        workspace: PlannerWorkspace | None = None,
    ) -> ShardingPlan:
        """Greedy placement from the fixed per-table costs; ignores
        ``warm_start`` (no incremental mode) and ``workspace``."""
        if topology.num_tiers != 2:
            raise ValueError("GreedySharder targets two-tier topologies")
        costs = [
            self.cost_fn(table, stats) for table, stats in zip(model.tables, profile)
        ]
        order = sorted(range(model.num_tables), key=lambda j: -costs[j])

        num_devices = topology.num_devices
        loads = [0.0] * num_devices
        hbm_free = [topology.hbm.capacity_bytes] * num_devices
        host_free = [topology.uvm.capacity_bytes] * num_devices
        placements: list[TablePlacement | None] = [None] * model.num_tables

        for j in order:
            table = model.tables[j]
            # Step II: the GPU with the current lowest sum of costs.
            device = min(range(num_devices), key=lambda m: loads[m])
            if hbm_free[device] >= table.total_bytes:
                rows = (table.num_rows, 0)
                hbm_free[device] -= table.total_bytes
            else:
                # HBM saturated on the chosen GPU: allocate in UVM there,
                # falling back to any GPU with host room.
                if host_free[device] < table.total_bytes:
                    candidates = [
                        m for m in range(num_devices)
                        if host_free[m] >= table.total_bytes
                    ]
                    if not candidates:
                        raise PlanError(
                            f"{self.name}: no device can hold table {j} "
                            f"({table.total_bytes} bytes) in HBM or UVM"
                        )
                    device = min(candidates, key=lambda m: loads[m])
                rows = (0, table.num_rows)
                host_free[device] -= table.total_bytes
            loads[device] += costs[j]
            placements[j] = TablePlacement(
                table_index=j, device=device, rows_per_tier=rows
            )

        plan = ShardingPlan(
            strategy=self.name,
            placements=[p for p in placements if p is not None],
            metadata={"heuristic_loads": loads},
        )
        # The heuristic balances its own fixed costs; the analytic cost
        # model (batched evaluator) scores what that balance actually
        # buys.  The baseline has no batch size of its own, so costs
        # are stamped per-sample (the stamped batch size says so).
        return stamp_estimated_costs(
            plan, model, profile, topology, batch_size=1
        )


def make_baseline(name: str) -> GreedySharder:
    """Build one of the paper's named baselines.

    Valid names: ``"Size-Based"``, ``"Lookup-Based"``,
    ``"Size-Based-Lookup"`` (Table 3's SB / LB / SBL).
    """
    if name not in COST_FUNCTIONS:
        raise KeyError(f"unknown baseline {name!r}; have {sorted(COST_FUNCTIONS)}")
    return GreedySharder(COST_FUNCTIONS[name], name)
