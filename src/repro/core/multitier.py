"""Multi-tier extension of RecShard (Section 4.4).

Each additional memory tier is "a new point on each EMB's CDF": a table
splits at ``T - 1`` boundaries of its ICDF, the hottest block going to
the fastest tier.  Two solving methods are provided:

* ``"milp"`` — :func:`~repro.core.formulation.build_milp`, the one
  RecShard formulation, with one ``(pct, mem)`` point per boundary in
  the paper's step encoding (one binary per ICDF step per boundary);
  exact but intended for small instances.  Only the extraction of
  per-tier rows is this class's own.
* ``"greedy"`` — sequential per-tier waterfill plus LPT assignment,
  scaling to full-size models (same machinery as
  :class:`~repro.core.fast.RecShardFastSharder`).

The greedy method's per-tier waterfill runs as one bulk admission over
the stacked arrays of a :class:`~repro.core.workspace.PlannerWorkspace`
(the running-minimum *effective*-density ordering of
:meth:`~repro.core.fast.RecShardFastSharder._bulk_take` reproduces a
per-tier heap's pop order exactly; a tier's marginal gains all share
the same positive bandwidth-delta factor, so only budgets and start
boundaries differ between tiers).  Serving drift replans and
``shard_sweep`` tier grids build the workspace once per profile, and
every tier boundary after the first resumes from the previous tier's
boundary array.  The per-step heapq waterfill is the parity oracle in
``tests/oracles/planner.py``.

``warm_start`` (the outgoing plan of a drift replan) steers the LPT
assignment toward each table's previous device home, so a replan moves
tables only where drift actually changed relative costs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.evaluate import stamp_estimated_costs
from repro.core.fast import RecShardFastSharder, _stamp_tier_precisions
from repro.core.formulation import MIB, RecShardInputs, build_milp
from repro.core.plan import PlanError, ShardingPlan, TablePlacement
from repro.core.workspace import PlannerWorkspace, sharder_workspace
from repro.memory.precision import quantized_row_bytes
from repro.memory.topology import SystemTopology

_MS = 1e3


class MultiTierSharder:
    """RecShard generalized to hierarchies with more than two tiers."""

    def __init__(
        self,
        batch_size: int,
        steps: int = 20,
        method: str = "greedy",
        time_limit: float = 60.0,
        mip_gap: float = 0.02,
        name: str = "RecShard-multitier",
    ):
        if method not in ("greedy", "milp"):
            raise ValueError(f"unknown method {method!r}")
        self.batch_size = int(batch_size)
        self.steps = int(steps)
        self.method = method
        self.time_limit = time_limit
        self.mip_gap = mip_gap
        self.name = name

    def shard(
        self, model, profile, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
        workspace: PlannerWorkspace | None = None,
    ) -> ShardingPlan:
        """Shard ``model`` from ``profile`` across ``topology``'s tiers.

        Pass a prebuilt ``workspace`` to amortize the statistics build
        across calls (drift replans, sweeps); ``warm_start`` keeps
        tables on their previous devices where the splits still fit.
        """
        workspace = sharder_workspace(model, profile, self.steps, workspace)
        if self.method == "greedy":
            return self.shard_from_workspace(
                workspace, topology, warm_start=warm_start
            )
        plan = self._shard_milp(workspace.inputs, topology)
        # Score the result under the analytic cost model (batched
        # evaluator handles any tier count) so multi-tier plans report
        # the same estimated-makespan metadata as the two-tier sharders.
        return stamp_estimated_costs(
            plan, model, profile, topology, self.batch_size
        )

    # ------------------------------------------------------------------
    # Greedy: sequential waterfill over tiers, then LPT assignment
    # ------------------------------------------------------------------
    def shard_from_workspace(
        self, workspace: PlannerWorkspace, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
    ) -> ShardingPlan:
        """Greedy solve over a prebuilt workspace.

        Sequential per-tier waterfill, each tier one bulk admission in
        effective-density order against the tier's aggregate budget.
        Plans are identical, table for table, to the per-step heapq
        oracle's.
        """
        ws = workspace
        num_tiers = topology.num_tiers
        inv_bw = [1.0 / t.bandwidth for t in topology.tiers]
        weights = (
            ws.coverage * ws.avg_pooling * ws.row_bytes
            * self.batch_size * _MS
        )
        d_bytes_fp32 = ws.d_grid_rows * ws.row_bytes[:, None]
        # The bandwidth-delta factor is the only per-tier term of the
        # marginal densities; the factor-free matrix is hoisted and the
        # per-tier product kept in the heapq oracle's evaluation order
        # (base * factor, then / bytes) so densities — and therefore
        # tie-breaks against the heapq reference — stay bit-identical.
        d_cost_base = weights[:, None] * ws.d_frac[None, :]
        density = np.empty(d_bytes_fp32.shape)
        col = np.arange(ws.steps)
        active = ws.total_accesses > 0
        start = np.zeros(ws.num_tables, dtype=np.int64)
        boundary = np.zeros((ws.num_tables, max(num_tiers - 1, 0)), dtype=np.int64)
        for tier in range(num_tiers - 1):
            budget = topology.tiers[tier].capacity_bytes * topology.num_devices
            factor = inv_bw[tier + 1] - inv_bw[tier]
            # Rows admitted into this tier are stored at its precision,
            # so admission is charged at the tier's quantized row bytes.
            precision = topology.tiers[tier].precision
            d_bytes = (
                d_bytes_fp32
                if precision == "fp32"
                else ws.d_grid_rows * ws.tier_row_bytes(precision)[:, None]
            )
            density.fill(np.inf)
            np.divide(d_cost_base * factor, d_bytes, out=density, where=d_bytes > 0)
            mask = active[:, None] & (col[None, :] >= start[:, None])
            eff = np.minimum.accumulate(
                np.where(mask, density, np.inf), axis=1
            )
            flat = np.flatnonzero(mask)
            table_ids, step_ids = np.divmod(flat, ws.steps)
            steps_out = start.copy()
            RecShardFastSharder._bulk_take(
                eff.ravel()[flat], d_bytes.ravel()[flat], table_ids,
                step_ids, steps_out, budget, stop_on_exhausted=True,
            )
            boundary[:, tier] = steps_out
            start = steps_out
        boundary_steps = [[int(b) for b in row] for row in boundary]
        plan = self._finish_greedy(
            ws.inputs, topology, boundary_steps, warm_start
        )
        return stamp_estimated_costs(
            plan, ws.model, ws.profile, topology, self.batch_size
        )

    def _finish_greedy(
        self, inputs, topology, boundary_steps, warm_start
    ) -> ShardingPlan:
        """Boundary steps -> placements, LPT assignment, plan."""
        inv_bw = [1.0 / t.bandwidth for t in topology.tiers]
        weights = [
            t.coverage * t.avg_pooling * t.row_bytes * self.batch_size * _MS
            for t in inputs.tables
        ]
        placements, costs = self._extract(
            inputs, topology, boundary_steps, weights, inv_bw
        )
        preferred = None
        if warm_start is not None and len(warm_start) == len(placements):
            preferred = [warm_start[j].device for j in range(len(placements))]
        device_of = self._assign_lpt(
            inputs, topology, placements, costs, preferred=preferred
        )
        final = [
            TablePlacement(p.table_index, device_of[p.table_index], p.rows_per_tier)
            for p in placements
        ]
        metadata = {"solver": "greedy"}
        if preferred is not None:
            metadata["warm_started"] = True
        _stamp_tier_precisions(metadata, topology)
        return ShardingPlan(
            strategy=self.name, placements=final, metadata=metadata
        )

    def _extract(self, inputs, topology, boundary_steps, weights, inv_bw):
        """Boundary steps -> per-tier row counts and expected costs."""
        num_tiers = topology.num_tiers
        placements = []
        costs = []
        for j, table in enumerate(inputs.tables):
            icdf = table.icdf
            cum_rows = [
                math.ceil(icdf.rows[boundary_steps[j][t]] - 1e-9)
                for t in range(num_tiers - 1)
            ]
            rows = []
            prev = 0
            for t in range(num_tiers - 1):
                rows.append(cum_rows[t] - prev)
                prev = cum_rows[t]
            rows.append(table.hash_size - prev)  # tail + dead rows
            placements.append(
                TablePlacement(table_index=j, device=0, rows_per_tier=tuple(rows))
            )
            fracs = [
                float(icdf.fractions[boundary_steps[j][t]])
                for t in range(num_tiers - 1)
            ]
            fracs.append(1.0)
            cost = 0.0
            prev_frac = 0.0
            for t in range(num_tiers):
                cost += (
                    weights[j] * (fracs[t] - prev_frac) * inv_bw[t]
                    if t < len(fracs)
                    else 0.0
                )
                prev_frac = fracs[t] if t < len(fracs) else prev_frac
            costs.append(cost if table.total_accesses > 0 else 0.0)
        return placements, costs

    def _assign_lpt(self, inputs, topology, placements, costs, preferred=None):
        """Least-loaded placement under per-device per-tier capacities.

        With ``preferred`` (per-table device hints from a warm-start
        plan), a table stays on its hinted device whenever its splits
        fit there.  When no device fits a table's current splits, the
        splits are demoted tier by tier (rows cascade toward slower
        tiers) until the device with the most free space can hold the
        table.
        """
        num_devices = topology.num_devices
        num_tiers = topology.num_tiers
        loads = [0.0] * num_devices
        free = [
            [tier.capacity_bytes for tier in topology.tiers]
            for _ in range(num_devices)
        ]
        device_of = [0] * len(placements)
        order = sorted(range(len(placements)), key=lambda j: -costs[j])
        for j in order:
            placement = placements[j]
            tier_rb = [
                quantized_row_bytes(inputs.tables[j].row_bytes, tier.precision)
                for tier in topology.tiers
            ]
            need = [
                r * tier_rb[t]
                for t, r in enumerate(placement.rows_per_tier)
            ]
            candidates = [
                m
                for m in range(num_devices)
                if all(free[m][t] >= need[t] for t in range(num_tiers))
            ]
            if preferred is not None and preferred[j] in candidates:
                device = preferred[j]
            elif candidates:
                device = min(candidates, key=lambda m: loads[m])
            else:
                # Demote rows toward slower tiers on the roomiest device.
                device = max(
                    range(num_devices), key=lambda m: sum(free[m][:-1])
                )
                rows = list(placement.rows_per_tier)
                for t in range(num_tiers - 1):
                    max_rows = max(0, free[device][t] // tier_rb[t])
                    overflow = rows[t] - max_rows
                    if overflow > 0:
                        rows[t] -= overflow
                        rows[t + 1] += overflow
                if rows[-1] * tier_rb[-1] > free[device][-1]:
                    raise PlanError(
                        f"multi-tier: table {j} fits no device even after "
                        "demotion"
                    )
                placements[j] = TablePlacement(
                    table_index=placement.table_index,
                    device=placement.device,
                    rows_per_tier=tuple(rows),
                )
                need = [r * tier_rb[t] for t, r in enumerate(rows)]
            device_of[j] = device
            loads[device] += costs[j]
            for t, n in enumerate(need):
                free[device][t] -= n
        return device_of

    # ------------------------------------------------------------------
    # MILP: the one formulation, with one (pct, mem) point per boundary
    # ------------------------------------------------------------------
    def _shard_milp(self, inputs: RecShardInputs, topology) -> ShardingPlan:
        handles = build_milp(
            inputs, topology, batch_size=self.batch_size, formulation="step"
        )
        result = handles.model.solve(
            time_limit=self.time_limit, mip_gap=self.mip_gap
        )
        if not result.status.has_solution:
            raise RuntimeError(
                f"multi-tier MILP produced no incumbent (status={result.status})"
            )

        placements = []
        for j, table in enumerate(inputs.tables):
            device = max(
                range(topology.num_devices),
                key=lambda m: result.value(handles.assign[m][j]),
            )
            # Each boundary's rows, floored, clipped and kept ordered.
            cum_rows = np.maximum.accumulate([
                min((result.value(mem) * MIB + 1e-6) // table.row_bytes,
                    table.hash_size)
                for mem in handles.mem[j]
            ]).astype(np.int64)
            rows_per_tier = np.diff(cum_rows, prepend=0, append=table.hash_size)
            placements.append(
                TablePlacement(
                    table_index=j, device=device,
                    rows_per_tier=tuple(rows_per_tier.tolist()),
                )
            )
        metadata = {
            "solver": f"milp/{result.solver}",
            "objective_ms": result.objective,
            "solve_seconds": result.solve_time,
            "milp_status": result.status.value,
        }
        _stamp_tier_precisions(metadata, topology)
        return ShardingPlan(
            strategy=self.name, placements=placements, metadata=metadata
        )
