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
boundary array.  The boundaries become per-tier rows and costs in one
vector pass per tier, and the LPT assignment reads each tier's row
bytes from :meth:`~repro.core.workspace.PlannerWorkspace.tier_row_bytes`.
The MILP method builds from and extracts over the same workspace.  The
per-step heapq waterfill, with the per-table extraction and LPT it
finished with, is the parity oracle in ``tests/oracles/planner.py``.

``warm_start`` (the outgoing plan of a drift replan) steers the LPT
assignment toward each table's previous device home, so a replan moves
tables only where drift actually changed relative costs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.evaluate import stamp_estimated_costs
from repro.core.fast import RecShardFastSharder, _stamp_tier_precisions
from repro.core.formulation import MIB, build_milp, solve_metadata
from repro.core.plan import PlanError, ShardingPlan, TablePlacement
from repro.core.workspace import PlannerWorkspace, sharder_workspace
from repro.memory.topology import SystemTopology
from repro.stats.cdf import descending_order

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
        plan = self._shard_milp(workspace, topology)
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
        plan = self._finish_greedy(ws, topology, boundary, weights, warm_start)
        return stamp_estimated_costs(
            plan, ws.model, ws.profile, topology, self.batch_size
        )

    def _finish_greedy(
        self, ws, topology, boundary, weights, warm_start
    ) -> ShardingPlan:
        """Boundary steps -> placements, LPT assignment, plan."""
        rows, costs = self._extract(ws, topology, boundary, weights)
        preferred = None
        if warm_start is not None and len(warm_start) == ws.num_tables:
            preferred = [warm_start[j].device for j in range(ws.num_tables)]
        device_of = self._assign_lpt(
            ws, topology, rows, costs, preferred=preferred
        )
        placements = [
            TablePlacement(j, device, tuple(table_rows))
            for j, (device, table_rows) in enumerate(zip(device_of, rows))
        ]
        metadata = {"solver": "greedy"}
        if preferred is not None:
            metadata["warm_started"] = True
        _stamp_tier_precisions(metadata, topology)
        return ShardingPlan(
            strategy=self.name, placements=placements, metadata=metadata
        )

    @staticmethod
    def _extract(ws, topology, boundary, weights):
        """Boundary steps -> per-tier row counts and expected costs.

        ``boundary`` holds each table's cumulative ICDF step per tier
        boundary.  Tier ``t`` holds the grid rows between boundaries
        ``t - 1`` and ``t``; the last tier the tail and the dead rows.
        A table's cost accumulates tier by tier, each tier's term
        ``(weight * covered fraction) * (1 / bandwidth)``: the per-table
        loop's float order, so the costs, and the LPT order they set,
        match the oracle's bit for bit.
        """
        cum_rows = np.take_along_axis(ws.grid_rows, boundary, axis=1)
        rows = np.diff(cum_rows, axis=1, prepend=0, append=ws.hash_sizes[:, None])
        fracs = ws.fractions[boundary]
        costs = np.zeros(ws.num_tables)
        prev = 0.0
        for t, tier in enumerate(topology.tiers):
            frac = fracs[:, t] if t < fracs.shape[1] else 1.0
            costs += weights * (frac - prev) * (1.0 / tier.bandwidth)
            prev = frac
        costs[ws.total_accesses <= 0] = 0.0
        return rows.tolist(), costs

    @staticmethod
    def _assign_lpt(ws, topology, rows, costs, preferred=None):
        """Least-loaded placement under per-device per-tier capacities.

        Tables go in descending cost order (ties by index).  With
        ``preferred`` (per-table device hints from a warm-start plan), a
        table stays on its hinted device whenever its splits fit there.
        When no device fits a table's current splits, the splits (rows
        of ``rows``, updated in place) are demoted tier by tier (rows
        cascade toward slower tiers) until the device with the most
        free space can hold the table.
        """
        num_devices = topology.num_devices
        num_tiers = topology.num_tiers
        loads = [0.0] * num_devices
        free = [
            [tier.capacity_bytes for tier in topology.tiers]
            for _ in range(num_devices)
        ]
        tier_rb = np.stack(
            [ws.tier_row_bytes(tier.precision) for tier in topology.tiers],
            axis=1,
        ).tolist()
        cost_of = costs.tolist()
        device_of = [0] * len(rows)
        for j in descending_order(costs).tolist():
            table_rows, table_rb = rows[j], tier_rb[j]
            need = [r * rb for r, rb in zip(table_rows, table_rb)]
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
                for t in range(num_tiers - 1):
                    max_rows = max(0, free[device][t] // table_rb[t])
                    overflow = table_rows[t] - max_rows
                    if overflow > 0:
                        table_rows[t] -= overflow
                        table_rows[t + 1] += overflow
                if table_rows[-1] * table_rb[-1] > free[device][-1]:
                    raise PlanError(
                        f"multi-tier: table {j} fits no device even after "
                        "demotion"
                    )
                need = [r * rb for r, rb in zip(table_rows, table_rb)]
            device_of[j] = device
            loads[device] += cost_of[j]
            for t, n in enumerate(need):
                free[device][t] -= n
        return device_of

    # ------------------------------------------------------------------
    # MILP: the one formulation, with one (pct, mem) point per boundary
    # ------------------------------------------------------------------
    def _shard_milp(self, ws, topology) -> ShardingPlan:
        start = time.perf_counter()
        handles = build_milp(
            ws, topology, batch_size=self.batch_size, formulation="step"
        )
        build_time = time.perf_counter() - start
        from repro.milp import scipy_backend  # see RecShardSharder.shard

        result = scipy_backend.solve(
            handles.problem, time_limit=self.time_limit, mip_gap=self.mip_gap
        )
        if not result.status.has_solution:
            raise RuntimeError(
                "multi-tier MILP produced no incumbent "
                f"(status={result.status.value}: {result.message})"
            )
        # Each boundary's rows, floored, clipped and kept ordered.
        mem_mib = result.values[handles.mem]
        hash_sizes = ws.hash_sizes[:, None]
        cum_rows = np.maximum.accumulate(
            np.minimum((mem_mib * MIB + 1e-6) // ws.row_bytes[:, None], hash_sizes),
            axis=1,
        ).astype(np.int64)
        rows = np.diff(cum_rows, axis=1, prepend=0, append=hash_sizes)
        placements = [
            TablePlacement(j, device, tuple(table_rows))
            for j, (device, table_rows) in enumerate(
                zip(handles.devices(result), rows.tolist())
            )
        ]
        metadata = solve_metadata(result, handles.problem, "step", build_time)
        _stamp_tier_precisions(metadata, topology)
        return ShardingPlan(
            strategy=self.name, placements=placements, metadata=metadata
        )
