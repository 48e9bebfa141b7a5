"""RecShard: the MILP-driven sharder (Section 4).

Ties the pipeline together: per-table statistics in, MILP out, plan
extracted from the solution.  Matches Figure 10's phase 2 ("Embedding
Table Partitioning and Placement"); phase 1 is :mod:`repro.stats` and
phase 3 is :mod:`repro.core.remap`.

The model comes from :func:`~repro.core.formulation.build_milp` (the one
formulation :class:`~repro.core.multitier.MultiTierSharder` also
solves); this sharder's extraction, capacity repair and fast-sharder
fallback are two-tier.  HBM the solver leaves free is refilled by the
fast sharder's per-device refill
(:meth:`~repro.core.fast.RecShardFastSharder._refill_arrays`) over the
same workspace; its heapq predecessor is the parity oracle in
``tests/oracles/planner.py``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.evaluate import stamp_estimated_costs
from repro.core.fast import RecShardFastSharder, _stamp_tier_precisions
from repro.core.formulation import MIB, build_milp, solve_metadata
from repro.core.plan import ShardingPlan, TablePlacement
from repro.core.workspace import PlannerWorkspace, sharder_workspace
from repro.memory.topology import SystemTopology
from repro.milp.result import SolveResult, SolveStatus


class RecShardSharder:
    """Data-driven EMB sharder optimizing max per-GPU embedding cost.

    Args:
        batch_size: training batch size (enters the cost model).
        formulation: ``"convex"`` (default) or ``"step"`` (the paper's
            per-step binaries) — see :mod:`repro.core.formulation`.
        steps: ICDF discretization steps (the paper uses 100).
        time_limit: solver wall-clock budget in seconds.
        mip_gap: relative optimality gap at which the solver may stop.
        use_coverage / use_pooling: Table 6 ablation switches.
        reclaim_dead: do not charge never-accessed rows against UVM
            capacity (Section 3.4's reclaimable space).
        fallback: when the MILP yields no incumbent in time, fall back
            to :class:`RecShardFastSharder` (None disables).
    """

    def __init__(
        self,
        batch_size: int,
        formulation: str = "convex",
        steps: int = 100,
        time_limit: float = 120.0,
        mip_gap: float = 0.02,
        use_coverage: bool = True,
        use_pooling: bool = True,
        reclaim_dead: bool = False,
        fallback: bool = True,
        name: str = "RecShard",
    ):
        self.batch_size = int(batch_size)
        self.formulation = formulation
        self.steps = int(steps)
        self.time_limit = time_limit
        self.mip_gap = mip_gap
        self.use_coverage = use_coverage
        self.use_pooling = use_pooling
        self.reclaim_dead = reclaim_dead
        self.fallback = fallback
        self.name = name

    # ------------------------------------------------------------------
    def shard(
        self, model, profile, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
        workspace: PlannerWorkspace | None = None,
    ) -> ShardingPlan:
        """Produce a sharding plan for ``model`` on ``topology``.

        Solves the MILP; when ``fallback`` is on, also runs the fast
        heuristic as a primal bound and returns whichever plan has the
        lower expected makespan (commercial solvers seed branch and
        bound with such heuristics internally; HiGHS via scipy cannot be
        warm-started, so the comparison happens here instead, and
        ``warm_start`` is accepted but ignored).

        One workspace (``workspace``, or one built here) feeds the MILP
        model, its extraction, the fast candidate, and both cost stamps.
        """
        if topology.num_tiers != 2:
            raise ValueError(
                "RecShardSharder targets the two-tier hierarchy; use "
                f"MultiTierSharder(method='milp') for {topology.num_tiers} tiers"
            )
        workspace = sharder_workspace(model, profile, self.steps, workspace)
        start = time.perf_counter()
        handles = build_milp(
            workspace,
            topology,
            batch_size=self.batch_size,
            formulation=self.formulation,
            use_coverage=self.use_coverage,
            use_pooling=self.use_pooling,
            reclaim_dead=self.reclaim_dead,
        )
        build_time = time.perf_counter() - start
        # Looked up on each solve, so tests can swap in an oracle; the
        # import stays here to keep scipy out of ``import repro``.
        from repro.milp import scipy_backend

        result = scipy_backend.solve(
            handles.problem, time_limit=self.time_limit, mip_gap=self.mip_gap
        )
        stamp = solve_metadata(
            result, handles.problem, self.formulation, build_time
        )

        milp_plan = None
        if result.status.has_solution:
            milp_plan = stamp_estimated_costs(
                self._extract_plan(workspace, topology, handles, result),
                model, profile, topology, self.batch_size,
            )
            milp_plan.metadata.update(stamp)
        elif not self.fallback:
            advice = (
                "raise time_limit" if result.status is SolveStatus.TIME_LIMIT
                else "check the model"
            )
            raise RuntimeError(
                f"MILP produced no incumbent (status={result.status.value}: "
                f"{result.message}); enable fallback or {advice}"
            )

        if not self.fallback:
            return milp_plan

        # The heuristic candidate plans from the same workspace, stamped
        # by the same evaluator as the MILP incumbent.
        fast_plan = self._fast().shard_from_workspace(workspace, topology)
        if milp_plan is None:
            solver = "fast-fallback"
        elif (
            fast_plan.metadata["estimated_max_cost_ms"]
            < milp_plan.metadata["estimated_max_cost_ms"]
        ):
            solver = "fast-beat-milp"
        else:
            return milp_plan
        # The fast plan carries the MILP's solve stamp; the objective is
        # the MILP's, not this plan's.
        stamp["milp_objective_ms"] = stamp.pop("objective_ms")
        fast_plan.metadata.update(stamp, solver=solver)
        return fast_plan

    def _fast(self) -> RecShardFastSharder:
        """The fast sharder with this sharder's statistics switches."""
        return RecShardFastSharder(
            batch_size=self.batch_size,
            steps=self.steps,
            use_coverage=self.use_coverage,
            use_pooling=self.use_pooling,
            reclaim_dead=self.reclaim_dead,
            name=self.name,
        )

    # ------------------------------------------------------------------
    def _extract_plan(
        self,
        workspace: PlannerWorkspace,
        topology: SystemTopology,
        handles,
        result: SolveResult,
    ) -> ShardingPlan:
        """Turn MILP variable values into a concrete, feasible plan.

        Rows for the chosen access fraction come from the piecewise
        ICDF, which lies at or above the true (convex) rows curve, so
        ``ceil(PL(pct))`` rows always cover ``pct`` of accesses; the
        solver's ``mem`` budget caps the result to preserve capacity
        feasibility (float slack is repaired afterwards).
        """
        ws = workspace
        devices = handles.devices(result)
        row_bytes = ws.row_bytes.tolist()
        hash_sizes = ws.hash_sizes.tolist()
        mem_mib = result.values[handles.mem[:, 0]].tolist()
        pcts = result.values[handles.pct[:, 0]].tolist()
        placements = []
        for j in range(ws.num_tables):
            mem_bytes = mem_mib[j] * MIB + 1e-6
            pct_value = min(1.0, max(0.0, pcts[j]))
            rows = float(np.interp(pct_value, ws.fractions, ws.frac_rows[j]))
            wanted = math.ceil(rows - 1e-9)
            budget = int(mem_bytes // row_bytes[j])
            hbm_rows = max(0, min(wanted, budget, hash_sizes[j]))
            placements.append(
                TablePlacement(
                    table_index=j,
                    device=devices[j],
                    rows_per_tier=(hbm_rows, hash_sizes[j] - hbm_rows),
                )
            )
        self._repair_capacity(placements, workspace, topology)
        self._refill(placements, workspace, topology)
        metadata = {}
        _stamp_tier_precisions(metadata, topology)
        if self.reclaim_dead:
            metadata["reclaim_dead"] = True
            metadata["dead_rows"] = (ws.hash_sizes - ws.live_rows).tolist()
        return ShardingPlan(
            strategy=self.name, placements=placements, metadata=metadata
        )

    def _refill(self, placements, workspace, topology) -> None:
        """Spend leftover per-device HBM on the densest remaining splits.

        The makespan objective leaves non-critical devices' splits
        unconstrained; the fast sharder's per-device refill promotes
        their hottest UVM rows into the HBM the solver left free (pure
        improvement: promotions never increase any device's cost).
        Each table resumes at the largest ICDF grid point at or below
        its extracted HBM rows, the rows beyond it being its ``extra``
        rows.
        """
        ws = workspace
        fast = self._fast()
        splits = fast._splits(ws, topology)
        hbm_rows = np.array([p.hbm_rows for p in placements], dtype=np.int64)
        splits.step[:] = (
            np.count_nonzero(ws.grid_rows <= hbm_rows[:, None], axis=1) - 1
        )
        splits.extra[:] = hbm_rows - splits.grid_rows()
        device_of = np.array([p.device for p in placements], dtype=np.int64)
        used = np.zeros(topology.num_devices, dtype=np.int64)
        np.add.at(used, device_of, hbm_rows * splits.hbm_rb)
        fast._refill_arrays(
            splits, device_of, topology.hbm.capacity_bytes - used
        )
        placements[:] = [
            TablePlacement(
                table_index=p.table_index,
                device=p.device,
                rows_per_tier=(rows, p.total_rows - rows),
            )
            for p, rows in zip(placements, splits.hbm_rows().tolist())
        ]

    def _repair_capacity(self, placements, workspace, topology) -> None:
        """Fix up float-tolerance capacity overflows from extraction.

        HBM overflows shave rows off the largest splits; host overflows
        promote cold rows into spare HBM (extraction rounds HBM rows
        down, which can push a fully-packed host slice over by a few
        rows).  Each tier's rows are charged at its precision's bytes.
        """
        hbm_rb = workspace.tier_row_bytes(topology.hbm.precision).tolist()
        host_rb = workspace.tier_row_bytes(topology.uvm.precision).tolist()
        hbm_cap = topology.hbm.capacity_bytes
        host_cap = topology.uvm.capacity_bytes
        for device in range(topology.num_devices):
            members = [
                (i, p) for i, p in enumerate(placements) if p.device == device
            ]
            hbm_used = sum(p.hbm_rows * hbm_rb[p.table_index] for _, p in members)
            # Pass 1: trim HBM overflow from the largest splits.
            for i, placement in sorted(members, key=lambda ip: -ip[1].hbm_rows):
                if hbm_used <= hbm_cap:
                    break
                row_bytes = hbm_rb[placement.table_index]
                excess_rows = math.ceil((hbm_used - hbm_cap) / row_bytes)
                drop = min(excess_rows, placement.hbm_rows)
                new_hbm = placement.hbm_rows - drop
                placements[i] = TablePlacement(
                    table_index=placement.table_index,
                    device=device,
                    rows_per_tier=(new_hbm, placement.total_rows - new_hbm),
                )
                hbm_used -= drop * row_bytes
            # Pass 2: relieve host overflow by promoting cold rows to HBM.
            members = [
                (i, p) for i, p in enumerate(placements) if p.device == device
            ]
            host_used = sum(
                p.rows_per_tier[1] * host_rb[p.table_index] for _, p in members
            )
            for i, placement in sorted(
                members, key=lambda ip: -ip[1].rows_per_tier[1]
            ):
                if host_used <= host_cap or hbm_used >= hbm_cap:
                    break
                j = placement.table_index
                overflow_rows = math.ceil((host_used - host_cap) / host_rb[j])
                headroom_rows = (hbm_cap - hbm_used) // hbm_rb[j]
                promote = min(
                    overflow_rows, headroom_rows, placement.rows_per_tier[1]
                )
                if promote <= 0:
                    continue
                new_hbm = placement.hbm_rows + promote
                placements[i] = TablePlacement(
                    table_index=j,
                    device=device,
                    rows_per_tier=(new_hbm, placement.total_rows - new_hbm),
                )
                hbm_used += promote * hbm_rb[j]
                host_used -= promote * host_rb[j]
