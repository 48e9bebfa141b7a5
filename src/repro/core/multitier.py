"""Multi-tier extension of RecShard (Section 4.4).

Each additional memory tier is "a new point on each EMB's CDF": a table
splits at ``T - 1`` boundaries of its ICDF, the hottest block going to
the fastest tier.  Two solving methods are provided:

* ``"milp"`` — the paper-faithful step formulation generalized to T
  tiers (one binary per ICDF step per boundary); exact but intended for
  small instances.
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
from repro.core.formulation import MIB, RecShardInputs
from repro.core.plan import PlanError, ShardingPlan, TablePlacement
from repro.core.workspace import PlannerWorkspace
from repro.memory.precision import quantized_row_bytes
from repro.memory.topology import SystemTopology
from repro.milp.model import Model, lin_sum

_MS = 1e3


class MultiTierSharder:
    """RecShard generalized to hierarchies with more than two tiers."""

    def __init__(
        self,
        batch_size: int,
        steps: int = 20,
        method: str = "greedy",
        backend: str = "highs",
        time_limit: float = 60.0,
        mip_gap: float = 0.02,
        name: str = "RecShard-multitier",
    ):
        if method not in ("greedy", "milp"):
            raise ValueError(f"unknown method {method!r}")
        self.batch_size = int(batch_size)
        self.steps = int(steps)
        self.method = method
        self.backend = backend
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
        if self.method == "greedy":
            if workspace is None:
                workspace = PlannerWorkspace(model, profile, steps=self.steps)
            elif workspace.steps != self.steps:
                raise ValueError(
                    f"workspace sampled {workspace.steps} ICDF steps, "
                    f"sharder expects {self.steps}"
                )
            return self.shard_from_workspace(
                workspace, topology, warm_start=warm_start
            )
        inputs = (
            workspace.inputs
            if workspace is not None
            else RecShardInputs.from_profile(model, profile, steps=self.steps)
        )
        plan = self._shard_milp(inputs, topology)
        # Score the result under the analytic cost model (batched
        # evaluator handles any tier count) so multi-tier plans report
        # the same estimated-makespan metadata as the two-tier sharders.
        return stamp_estimated_costs(
            plan, model, profile, topology, self.batch_size,
            workspace=workspace,
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
            plan, ws.model, ws.profile, topology, self.batch_size,
            workspace=ws,
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
    # MILP: step formulation generalized to T tiers
    # ------------------------------------------------------------------
    def _shard_milp(self, inputs: RecShardInputs, topology) -> ShardingPlan:
        if any(t.precision != "fp32" for t in topology.tiers):
            raise PlanError(
                "multi-tier MILP supports fp32 tiers only; use "
                "method='greedy' for quantized ladders"
            )
        num_tiers = topology.num_tiers
        num_devices = topology.num_devices
        num_boundaries = num_tiers - 1
        inv_bw = [1.0 / t.bandwidth for t in topology.tiers]
        caps_mib = [t.capacity_bytes / MIB for t in topology.tiers]

        milp = Model("recshard-multitier")
        max_cost = milp.continuous_var(lb=0.0, name="C")
        assign = [
            [milp.binary_var(name=f"p[{m}][{j}]") for j in range(len(inputs.tables))]
            for m in range(num_devices)
        ]
        for j in range(len(inputs.tables)):
            milp.add(lin_sum(assign[m][j] for m in range(num_devices)) == 1)

        # Boundary variables per table: q (access fraction) and r (MiB).
        q_vars: list[list] = []
        r_vars: list[list] = []
        for j, table in enumerate(inputs.tables):
            icdf = table.icdf
            row_mib = table.row_bytes / MIB
            q_j, r_j = [], []
            for b in range(num_boundaries):
                q = milp.continuous_var(lb=0.0, ub=1.0, name=f"q[{j}][{b}]")
                r = milp.continuous_var(
                    lb=0.0, ub=table.live_bytes / MIB, name=f"r[{j}][{b}]"
                )
                if table.total_accesses > 0:
                    x = [
                        milp.binary_var(name=f"x[{j}][{b}][{i}]")
                        for i in range(icdf.steps + 1)
                    ]
                    milp.add(lin_sum(x) == 1)
                    milp.add(
                        lin_sum(
                            x[i] * float(icdf.fractions[i])
                            for i in range(icdf.steps + 1)
                        )
                        == q
                    )
                    milp.add(
                        lin_sum(
                            x[i] * (float(icdf.rows[i]) * row_mib)
                            for i in range(icdf.steps + 1)
                        )
                        == r
                    )
                else:
                    milp.add(q <= 0.0)
                    milp.add(r <= 0.0)
                q_j.append(q)
                r_j.append(r)
            for b in range(num_boundaries - 1):
                milp.add(q_j[b] <= q_j[b + 1] + 0.0)
                milp.add(r_j[b] <= r_j[b + 1] + 0.0)
            q_vars.append(q_j)
            r_vars.append(r_j)

        for m in range(num_devices):
            cost_terms = []
            tier_usage: list[list] = [[] for _ in range(num_tiers)]
            for j, table in enumerate(inputs.tables):
                p_mj = assign[m][j]
                live_mib = table.live_bytes / MIB
                weight = (
                    table.coverage
                    * table.avg_pooling
                    * table.row_bytes
                    * self.batch_size
                    * _MS
                )
                # u[t] = p * (r_t - r_{t-1}) per tier; last tier gets the
                # remainder (live tail plus dead rows).
                prev_r = None
                for t in range(num_tiers):
                    if t < num_boundaries:
                        mem_expr = (
                            r_vars[j][t] - prev_r
                            if prev_r is not None
                            else r_vars[j][t]
                        )
                        ub = live_mib
                        u = milp.continuous_var(lb=0.0, ub=ub, name=f"u[{m}][{j}][{t}]")
                        milp.add(u <= p_mj * ub)
                        milp.add(u <= mem_expr + 0.0)
                        milp.add(u >= mem_expr - (1.0 - p_mj) * ub)
                        tier_usage[t].append(u)
                        prev_r = r_vars[j][t]
                    else:
                        total_mib = table.total_bytes / MIB
                        # remainder = total - r_{T-2}; charge via p and -u.
                        u_last = milp.continuous_var(
                            lb=0.0, ub=total_mib, name=f"u[{m}][{j}][{t}]"
                        )
                        last_expr = (
                            p_mj * total_mib - _times_p(milp, p_mj, prev_r, live_mib)
                            if prev_r is not None
                            else p_mj * total_mib
                        )
                        milp.add(u_last >= last_expr, name=f"ulast[{m}][{j}]")
                        tier_usage[t].append(u_last)
                if table.total_accesses > 0:
                    # cost = weight * [sum_b w_b (1/bw_b - 1/bw_{b+1}) + p/bw_last]
                    for b in range(num_boundaries):
                        w = milp.continuous_var(
                            lb=0.0, ub=1.0, name=f"w[{m}][{j}][{b}]"
                        )
                        milp.add(w <= p_mj + 0.0)
                        milp.add(w <= q_vars[j][b] + 0.0)
                        milp.add(w >= q_vars[j][b] + p_mj - 1.0)
                        cost_terms.append(w * (weight * (inv_bw[b] - inv_bw[b + 1])))
                    cost_terms.append(p_mj * (weight * inv_bw[-1]))
            for t in range(num_tiers):
                milp.add(lin_sum(tier_usage[t]) <= caps_mib[t], name=f"cap[{m}][{t}]")
            milp.add(lin_sum(cost_terms) <= max_cost + 0.0, name=f"makespan[{m}]")

        milp.minimize(max_cost)
        result = milp.solve(
            backend=self.backend, time_limit=self.time_limit, mip_gap=self.mip_gap
        )
        if not result.status.has_solution:
            raise RuntimeError(
                f"multi-tier MILP produced no incumbent (status={result.status})"
            )

        placements = []
        for j, table in enumerate(inputs.tables):
            device = max(
                range(num_devices), key=lambda m: result.value(assign[m][j])
            )
            cum_rows = []
            for b in range(num_boundaries):
                mem_bytes = result.value(r_vars[j][b]) * MIB + 1e-6
                rows = int(min(mem_bytes // table.row_bytes, table.hash_size))
                cum_rows.append(rows)
            cum_rows = [min(r, table.hash_size) for r in cum_rows]
            for b in range(1, num_boundaries):
                cum_rows[b] = max(cum_rows[b], cum_rows[b - 1])
            rows_per_tier = []
            prev = 0
            for r in cum_rows:
                rows_per_tier.append(r - prev)
                prev = r
            rows_per_tier.append(table.hash_size - prev)
            placements.append(
                TablePlacement(
                    table_index=j, device=device, rows_per_tier=tuple(rows_per_tier)
                )
            )
        return ShardingPlan(
            strategy=self.name,
            placements=placements,
            metadata={
                "solver": f"milp/{self.backend}",
                "objective_ms": result.objective,
                "solve_seconds": result.solve_time,
                "milp_status": result.status.value,
            },
        )


def _times_p(milp: Model, p, var, ub: float):
    """Auxiliary product p * var for bounded var (standard linearization)."""
    prod = milp.continuous_var(lb=0.0, ub=ub)
    milp.add(prod <= p * ub)
    milp.add(prod <= var + 0.0)
    milp.add(prod >= var - (1.0 - p) * ub)
    return prod
