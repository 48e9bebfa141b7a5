"""RecShard: the MILP-driven sharder (Section 4).

Ties the pipeline together: per-table statistics in, MILP out, plan
extracted from the solution.  Matches Figure 10's phase 2 ("Embedding
Table Partitioning and Placement"); phase 1 is :mod:`repro.stats` and
phase 3 is :mod:`repro.core.remap`.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from repro.core.evaluate import stamp_estimated_costs
from repro.core.fast import RecShardFastSharder
from repro.core.formulation import MIB, RecShardInputs, build_milp
from repro.core.plan import ShardingPlan, TablePlacement
from repro.core.workspace import PlannerWorkspace, sharder_workspace
from repro.memory.topology import SystemTopology
from repro.milp.result import SolveResult


class RecShardSharder:
    """Data-driven EMB sharder optimizing max per-GPU embedding cost.

    Args:
        batch_size: training batch size (enters the cost model).
        formulation: ``"convex"`` (default) or ``"step"`` (the paper's
            per-step binaries) — see :mod:`repro.core.formulation`.
        steps: ICDF discretization steps (the paper uses 100).
        backend: MILP backend, ``"highs"`` or ``"branch_bound"``.
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
        backend: str = "highs",
        time_limit: float = 120.0,
        mip_gap: float = 0.02,
        use_coverage: bool = True,
        use_pooling: bool = True,
        reclaim_dead: bool = False,
        symmetry_breaking: bool = True,
        fallback: bool = True,
        name: str = "RecShard",
    ):
        self.batch_size = int(batch_size)
        self.formulation = formulation
        self.steps = int(steps)
        self.backend = backend
        self.time_limit = time_limit
        self.mip_gap = mip_gap
        self.use_coverage = use_coverage
        self.use_pooling = use_pooling
        self.reclaim_dead = reclaim_dead
        self.symmetry_breaking = symmetry_breaking
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
        inputs, the fast candidate, and both cost stamps.
        """
        workspace = sharder_workspace(model, profile, self.steps, workspace)
        inputs = workspace.inputs
        start = time.perf_counter()
        handles = build_milp(
            inputs,
            topology,
            batch_size=self.batch_size,
            formulation=self.formulation,
            use_coverage=self.use_coverage,
            use_pooling=self.use_pooling,
            reclaim_dead=self.reclaim_dead,
            symmetry_breaking=self.symmetry_breaking,
        )
        build_time = time.perf_counter() - start
        result = handles.model.solve(
            backend=self.backend, time_limit=self.time_limit, mip_gap=self.mip_gap
        )

        milp_plan = None
        if result.status.has_solution:
            milp_plan = stamp_estimated_costs(
                self._extract_plan(inputs, topology, handles, result),
                model, profile, topology, self.batch_size,
            )
            milp_plan.metadata.update(
                {
                    "solver": f"milp/{self.backend}/{self.formulation}",
                    "milp_status": result.status.value,
                    "objective_ms": result.objective,
                    "solve_seconds": result.solve_time,
                    "build_seconds": build_time,
                    "mip_gap": result.gap,
                    "variables": len(handles.model.variables),
                    "constraints": len(handles.model.constraints),
                }
            )
        elif not self.fallback:
            raise RuntimeError(
                f"MILP produced no incumbent (status={result.status}); "
                "enable fallback or raise time_limit"
            )

        if not self.fallback:
            return milp_plan

        # The heuristic candidate comes from the vectorized workspace
        # path (plan-parity-identical to the scalar solve, ~15x faster),
        # stamped by the same evaluator as the MILP incumbent.
        fast_plan = RecShardFastSharder(
            batch_size=self.batch_size,
            steps=self.steps,
            use_coverage=self.use_coverage,
            use_pooling=self.use_pooling,
            reclaim_dead=self.reclaim_dead,
            name=self.name,
        ).shard_from_workspace(workspace, topology)
        if milp_plan is None:
            fast_plan.metadata["solver"] = "fast-fallback"
            fast_plan.metadata["milp_status"] = result.status.value
            return fast_plan
        if (
            fast_plan.metadata["estimated_max_cost_ms"]
            < milp_plan.metadata["estimated_max_cost_ms"]
        ):
            fast_plan.metadata.update(
                {
                    "solver": "fast-beat-milp",
                    "milp_status": result.status.value,
                    "milp_objective_ms": result.objective,
                    "solve_seconds": result.solve_time,
                }
            )
            return fast_plan
        return milp_plan

    # ------------------------------------------------------------------
    def _extract_plan(
        self,
        inputs: RecShardInputs,
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
        placements = []
        for j, table in enumerate(inputs.tables):
            device = max(
                range(topology.num_devices),
                key=lambda m: result.value(handles.assign[m][j]),
            )
            mem_bytes = result.value(handles.mem[j]) * MIB + 1e-6
            pct_value = min(1.0, max(0.0, result.value(handles.pct[j])))
            icdf = table.icdf
            wanted = math.ceil(icdf.interpolate_rows(pct_value) - 1e-9)
            budget = int(mem_bytes // table.row_bytes)
            hbm_rows = max(0, min(wanted, budget, table.hash_size))
            placements.append(
                TablePlacement(
                    table_index=j,
                    device=device,
                    rows_per_tier=(hbm_rows, table.hash_size - hbm_rows),
                )
            )
        self._repair_capacity(placements, inputs, topology)
        self._refill_free_hbm(placements, inputs, topology)
        metadata = {}
        if self.reclaim_dead:
            metadata["reclaim_dead"] = True
            metadata["dead_rows"] = [
                t.hash_size - t.live_rows for t in inputs.tables
            ]
        return ShardingPlan(
            strategy=self.name, placements=placements, metadata=metadata
        )

    def _refill_free_hbm(self, placements, inputs, topology) -> None:
        """Spend leftover per-device HBM on the densest remaining splits.

        The makespan objective leaves non-critical devices' splits
        unconstrained; this pass promotes their hottest UVM rows into
        the HBM the solver left free (pure improvement: promotions never
        increase any device's cost).
        """
        cap = topology.hbm.capacity_bytes
        for device in range(topology.num_devices):
            members = [
                (i, p) for i, p in enumerate(placements) if p.device == device
            ]
            free = cap - sum(
                p.hbm_rows * inputs.tables[p.table_index].row_bytes
                for _, p in members
            )
            if free <= 0:
                continue
            # Track each table's current ICDF step (largest grid point at
            # or below its current HBM rows).
            steps = {}
            for i, p in members:
                icdf = inputs.tables[p.table_index].icdf
                step = (
                    int(np.searchsorted(icdf.rows, p.hbm_rows + 1e-9, side="right")) - 1
                )
                steps[i] = max(0, step)

            heap = []

            def push(i: int) -> None:
                placement = placements[i]
                table = inputs.tables[placement.table_index]
                icdf = table.icdf
                step = steps[i]
                if step >= icdf.steps or table.total_accesses <= 0:
                    return
                new_rows = math.ceil(icdf.rows[step + 1] - 1e-9)
                d_rows = new_rows - placement.hbm_rows
                if d_rows <= 0:
                    steps[i] = step + 1
                    push(i)
                    return
                d_frac = float(icdf.fractions[step + 1] - icdf.fractions[step])
                gain = table.coverage * table.avg_pooling * d_frac
                heapq.heappush(heap, (-gain / d_rows, i, d_rows))

            for i, _ in members:
                push(i)
            while heap:
                _, i, d_rows = heapq.heappop(heap)
                placement = placements[i]
                table = inputs.tables[placement.table_index]
                d_bytes = d_rows * table.row_bytes
                if d_bytes > free:
                    continue
                new_hbm = placement.hbm_rows + d_rows
                placements[i] = TablePlacement(
                    table_index=placement.table_index,
                    device=device,
                    rows_per_tier=(new_hbm, table.hash_size - new_hbm),
                )
                free -= d_bytes
                steps[i] += 1
                push(i)

    def _repair_capacity(self, placements, inputs, topology) -> None:
        """Fix up float-tolerance capacity overflows from extraction.

        HBM overflows shave rows off the largest splits; host overflows
        promote cold rows into spare HBM (extraction rounds HBM rows
        down, which can push a fully-packed host slice over by a few
        rows).
        """
        hbm_cap = topology.hbm.capacity_bytes
        host_cap = topology.uvm.capacity_bytes
        for device in range(topology.num_devices):
            members = [
                (i, p) for i, p in enumerate(placements) if p.device == device
            ]
            hbm_used = sum(
                p.hbm_rows * inputs.tables[p.table_index].row_bytes
                for _, p in members
            )
            # Pass 1: trim HBM overflow from the largest splits.
            for i, placement in sorted(members, key=lambda ip: -ip[1].hbm_rows):
                if hbm_used <= hbm_cap:
                    break
                table = inputs.tables[placement.table_index]
                excess_rows = math.ceil((hbm_used - hbm_cap) / table.row_bytes)
                drop = min(excess_rows, placement.hbm_rows)
                new_hbm = placement.hbm_rows - drop
                placements[i] = TablePlacement(
                    table_index=placement.table_index,
                    device=device,
                    rows_per_tier=(new_hbm, table.hash_size - new_hbm),
                )
                hbm_used -= drop * table.row_bytes
            # Pass 2: relieve host overflow by promoting cold rows to HBM.
            members = [
                (i, p) for i, p in enumerate(placements) if p.device == device
            ]
            host_used = sum(
                p.rows_per_tier[1] * inputs.tables[p.table_index].row_bytes
                for _, p in members
            )
            for i, placement in sorted(
                members, key=lambda ip: -ip[1].rows_per_tier[1]
            ):
                if host_used <= host_cap or hbm_used >= hbm_cap:
                    break
                table = inputs.tables[placement.table_index]
                overflow_rows = math.ceil((host_used - host_cap) / table.row_bytes)
                headroom_rows = (hbm_cap - hbm_used) // table.row_bytes
                promote = min(
                    overflow_rows, headroom_rows, placement.rows_per_tier[1]
                )
                if promote <= 0:
                    continue
                new_hbm = placement.hbm_rows + promote
                placements[i] = TablePlacement(
                    table_index=placement.table_index,
                    device=device,
                    rows_per_tier=(new_hbm, table.hash_size - new_hbm),
                )
                hbm_used += promote * table.row_bytes
                host_used -= promote * table.row_bytes
