"""A fast combinatorial approximation of the RecShard MILP.

The MILP is the paper's mechanism, but commercial-solver performance is
not always available.  This sharder exploits the same statistics and the
ICDF convexity to get near-MILP plans in milliseconds:

1. *Global waterfill*: allocate the aggregate HBM budget across tables
   step by step, always taking the step with the best marginal cost
   reduction per byte (optimal for the capacity-relaxed problem because
   per-table marginal densities are non-increasing — ICDF convexity).
2. *LPT assignment*: place tables on devices in descending cost order,
   always onto the least-loaded device where the split fits.  A split
   can be shrunk (fewer hot rows in HBM) to fit a tight device, or
   padded with dead rows (which cost nothing to serve) when the
   device's host slice cannot absorb the table's UVM remainder.
3. *Per-device refill*: spend any HBM left unused on each device on the
   next-best steps of its own tables (the MILP sharder refills its
   extracted splits through the same pass).
4. *Local search*: move tables off the busiest device while it reduces
   the makespan.

It also serves as the fallback when the MILP cannot produce an
incumbent within its time limit.

Every phase except the LPT assignment runs on the stacked arrays of a
:class:`~repro.core.workspace.PlannerWorkspace`.  The waterfill's heap
becomes one global ordering: taking steps in descending *effective*
density (the per-table running minimum — what a max-heap over
per-table step sequences actually pops, even where integer rounding
makes raw densities locally non-monotone) with ties broken by (table,
step) reproduces the heap's pop sequence exactly, so whole prefixes of
the order are admitted against the budget with windowed cumulative
sums instead of one heap transaction per step.  The per-step heapq
solver it replaced is the parity oracle in ``tests/oracles/planner.py``;
``tests/test_core/test_planner_vectorized.py`` pins plan equality.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.evaluate import stamp_estimated_costs
from repro.core.formulation import TableInputs
from repro.core.plan import PlanError, ShardingPlan, TablePlacement
from repro.core.quantize import tier_expected_errors
from repro.core.workspace import PlannerWorkspace, sharder_workspace
from repro.memory.topology import SystemTopology
from repro.stats.cdf import descending_order

_MS = 1e3
#: entries the bulk take scans at first, and again after each blocking
#: step; the window doubles while whole windows are admitted
_TAKE_WINDOW = 64


def _stamp_tier_precisions(metadata: dict, topology: SystemTopology) -> None:
    """Record the ladder in plan metadata — only when it is quantized,
    so default-precision plans keep their exact pre-precision schema."""
    precisions = topology.tier_precisions
    if any(p != "fp32" for p in precisions):
        metadata["tier_precisions"] = list(precisions)
        metadata["tier_expected_rel_error"] = tier_expected_errors(precisions)


class _TableState:
    """Mutable split state of one table during solving.

    ``step`` indexes the ICDF grid (hot rows in HBM); ``extra_rows``
    counts additional dead/cold rows promoted to HBM purely to satisfy a
    device's host-capacity limit — they serve (almost) no accesses, so
    they do not change the cost estimate.
    """

    __slots__ = (
        "index", "inputs", "step", "extra_rows", "weight",
        "inv_bw_hbm", "inv_bw_uvm", "alloc_rows",
        "hbm_row_bytes", "host_row_bytes",
    )

    def __init__(self, index: int, inputs: TableInputs, batch_size: int,
                 inv_bw_hbm: float, inv_bw_uvm: float,
                 use_coverage: bool, use_pooling: bool, reclaim_dead: bool,
                 hbm_row_bytes: int | None = None,
                 host_row_bytes: int | None = None):
        self.index = index
        self.inputs = inputs
        self.step = 0
        self.extra_rows = 0
        pooling = inputs.avg_pooling if use_pooling else 1.0
        coverage = inputs.coverage if use_coverage else 1.0
        self.weight = coverage * pooling * inputs.row_bytes * batch_size * _MS
        self.inv_bw_hbm = inv_bw_hbm
        self.inv_bw_uvm = inv_bw_uvm
        # Per-tier storage footprint of one row (precision-scaled when
        # the tier is quantized; the raw row bytes otherwise).
        self.hbm_row_bytes = (
            inputs.row_bytes if hbm_row_bytes is None else int(hbm_row_bytes)
        )
        self.host_row_bytes = (
            inputs.row_bytes if host_row_bytes is None else int(host_row_bytes)
        )
        # Rows that must be backed by memory somewhere (dead rows are
        # exempt under reclaim_dead).
        self.alloc_rows = (
            inputs.live_rows if reclaim_dead else inputs.hash_size
        )

    @property
    def fraction(self) -> float:
        return float(self.inputs.icdf.fractions[self.step])

    @property
    def grid_rows(self) -> int:
        return math.ceil(self.inputs.icdf.rows[self.step] - 1e-9)

    @property
    def hbm_rows(self) -> int:
        return min(self.grid_rows + self.extra_rows, self.inputs.hash_size)

    @property
    def hbm_bytes(self) -> int:
        return self.hbm_rows * self.hbm_row_bytes

    def host_bytes(self) -> int:
        return max(0, self.alloc_rows - self.hbm_rows) * self.host_row_bytes

    def min_hbm_rows_for_host(self, host_free: int) -> int:
        """Fewest HBM rows that keep the UVM remainder within ``host_free``."""
        return max(0, self.alloc_rows - host_free // self.host_row_bytes)

    def cost(self) -> float:
        """Expected per-iteration cost (ms) at the current split."""
        if self.inputs.total_accesses <= 0:
            return 0.0
        frac = self.fraction
        return self.weight * (
            frac * self.inv_bw_hbm + (1.0 - frac) * self.inv_bw_uvm
        )


class RecShardFastSharder:
    """Greedy waterfill + LPT + local-search RecShard approximation."""

    def __init__(
        self,
        batch_size: int,
        steps: int = 100,
        use_coverage: bool = True,
        use_pooling: bool = True,
        reclaim_dead: bool = False,
        refine_rounds: int = 400,
        name: str = "RecShard-fast",
    ):
        self.batch_size = int(batch_size)
        self.steps = int(steps)
        self.use_coverage = use_coverage
        self.use_pooling = use_pooling
        self.reclaim_dead = reclaim_dead
        self.refine_rounds = int(refine_rounds)
        self.name = name

    # ------------------------------------------------------------------
    def shard(
        self, model, profile, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
        workspace: PlannerWorkspace | None = None,
    ) -> ShardingPlan:
        """Shard ``model`` from ``profile``.

        With ``warm_start`` (the outgoing plan of a drift replan), the
        build is incremental: each table's split is fast-forwarded to
        the previous plan's cut point before waterfilling the budget
        delta, and the device assignment prefers each table's previous
        home — so a replan mostly *repairs* the old plan instead of
        rebuilding it, which is what keeps replanning cheap enough to
        run off the serving critical path.

        The solve runs on a
        :class:`~repro.core.workspace.PlannerWorkspace`; pass one in to
        amortize the statistics build across calls (replans, sweeps) —
        otherwise a fresh workspace is built for this call.
        """
        return self.shard_from_workspace(
            sharder_workspace(model, profile, self.steps, workspace),
            topology, warm_start=warm_start,
        )

    def shard_from_workspace(
        self, workspace: PlannerWorkspace, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
    ) -> ShardingPlan:
        """Solve over a prebuilt workspace.

        Waterfill, refill, warm start, and local search operate on the
        workspace arrays; only the (cheap) LPT assignment and split
        resizing walk per-table states.  Plans are identical, table for
        table, to the per-step heapq oracle's.
        """
        if topology.num_tiers != 2:
            raise ValueError("RecShardFastSharder targets two-tier topologies")
        ws = workspace
        inputs = ws.inputs
        inv_bw_hbm = 1.0 / topology.hbm.bandwidth
        inv_bw_uvm = 1.0 / topology.uvm.bandwidth
        hbm_rb = ws.tier_row_bytes(topology.hbm.precision)
        states = self._table_states(ws, topology)
        weight = np.array([s.weight for s in states], dtype=np.float64)

        hbm_budget = topology.hbm.capacity_bytes * topology.num_devices
        preferred = None
        start_steps = np.zeros(ws.num_tables, dtype=np.int64)
        if warm_start is not None and len(warm_start) == len(states):
            start_steps, hbm_budget = self._warm_start_arrays(
                ws, warm_start, hbm_budget, hbm_rb
            )
            preferred = [warm_start[j].device for j in range(len(states))]

        steps = self._waterfill_arrays(
            ws, weight, inv_bw_hbm, inv_bw_uvm, start_steps, hbm_budget,
            hbm_rb,
        )
        for j, state in enumerate(states):
            state.step = int(steps[j])
        device_of, loads, hbm_free, host_free = self._assign(
            states, topology, preferred=preferred
        )
        self._refill_arrays(
            ws, states, weight, inv_bw_hbm, inv_bw_uvm, device_of, hbm_free,
            hbm_rb,
        )
        loads = self._recompute_loads(states, device_of, topology.num_devices)
        self._local_search_arrays(states, device_of, loads, hbm_free, host_free)
        self._refill_arrays(
            ws, states, weight, inv_bw_hbm, inv_bw_uvm, device_of, hbm_free,
            hbm_rb,
        )
        # The LPT loads above steer the solve; the plan's estimate is
        # the evaluator's, like every other planner's.
        return stamp_estimated_costs(
            self._emit_plan(states, device_of, topology, inputs, preferred),
            ws.model, ws.profile, topology, self.batch_size,
        )

    def _table_states(self, ws, topology) -> list[_TableState]:
        """One split state per table, at ICDF step 0."""
        hbm_rb = ws.tier_row_bytes(topology.hbm.precision)
        host_rb = ws.tier_row_bytes(topology.uvm.precision)
        return [
            _TableState(
                j, t, self.batch_size, 1.0 / topology.hbm.bandwidth,
                1.0 / topology.uvm.bandwidth,
                self.use_coverage, self.use_pooling, self.reclaim_dead,
                hbm_row_bytes=int(hbm_rb[j]), host_row_bytes=int(host_rb[j]),
            )
            for j, t in enumerate(ws.inputs.tables)
        ]

    def _emit_plan(self, states, device_of, topology, inputs, preferred):
        """Materialize placements and metadata (the caller stamps costs)."""
        placements = []
        for state in states:
            hbm_rows = state.hbm_rows
            placements.append(
                TablePlacement(
                    table_index=state.index,
                    device=device_of[state.index],
                    rows_per_tier=(hbm_rows, state.inputs.hash_size - hbm_rows),
                )
            )
        metadata = {"solver": "fast"}
        if preferred is not None:
            metadata["warm_started"] = True
        _stamp_tier_precisions(metadata, topology)
        if self.reclaim_dead:
            metadata["reclaim_dead"] = True
            metadata["dead_rows"] = [
                t.hash_size - t.live_rows for t in inputs.tables
            ]
        return ShardingPlan(
            strategy=self.name, placements=placements, metadata=metadata
        )

    # ------------------------------------------------------------------
    # Workspace-array phases
    # ------------------------------------------------------------------
    @staticmethod
    def _bulk_take(
        eff_density, d_bytes, table_ids, step_ids, steps_out, budget,
        stop_on_exhausted,
    ):
        """Admit ICDF steps in heap-pop order against a byte budget.

        ``eff_density`` must be the per-table *running minimum* of the
        raw marginal densities, and the entries must arrive in
        (table, step) order: sorting by ``(-eff, table, step)`` — one
        :func:`~repro.stats.cdf.descending_order`, the index being the
        tie key — then reproduces exactly the pop order of a max-heap
        holding one current step per table (a table's step can only
        surface after its predecessor, so a locally *rising* density
        pops immediately after the dip that hid it — i.e. at the dip's
        priority).  Steps are then taken in bulk: a cumulative sum over
        a window of not-yet-blocked entries finds the longest
        admissible prefix, and the window doubles while every entry in
        it is admitted.  A budget-blocking step retires its whole table
        (like a dropped heap entry) by setting the table's ``blocked``
        flag; the scan resumes just past it with the window back at
        its initial size, so the cost is O(N + blockers * window)
        rather than one pass over the remaining suffix per blocker.

        ``stop_on_exhausted`` mirrors the two heap loops: the global
        waterfill stops once the budget hits zero, the per-device
        refill keeps draining zero-byte steps.

        Updates ``steps_out`` (per-table step reached) in place and
        returns the unspent budget.
        """
        if table_ids.size == 0:
            return budget
        order = descending_order(eff_density)
        tables = table_ids[order]
        sizes = d_bytes[order]
        steps = step_ids[order]
        blocked = np.zeros(steps_out.size, dtype=bool)
        taken = np.zeros(order.size, dtype=bool)
        remaining = int(budget)
        pos, window = 0, _TAKE_WINDOW
        while pos < order.size:
            if stop_on_exhausted and remaining <= 0:
                break
            end = min(pos + window, order.size)
            sel = pos + np.flatnonzero(~blocked[tables[pos:end]])
            cum = np.cumsum(sizes[sel])
            if stop_on_exhausted:
                take = (cum <= remaining) & ((cum - sizes[sel]) < remaining)
            else:
                take = cum <= remaining
            # Both conditions are prefix-shaped (cum is non-decreasing).
            count = int(np.count_nonzero(take))
            if count:
                taken[sel[:count]] = True
                remaining -= int(cum[count - 1])
            if count == sel.size:
                pos, window = end, 2 * window
                continue
            if stop_on_exhausted and remaining <= 0:
                break
            blocker = int(sel[count])
            blocked[tables[blocker]] = True
            pos, window = blocker + 1, _TAKE_WINDOW
        np.maximum.at(steps_out, tables[taken], steps[taken] + 1)
        return remaining

    def _marginal_density(self, ws, weight, inv_bw_hbm, inv_bw_uvm,
                          d_bytes):
        """Cost reduction per byte for every (table, step) advance."""
        d_cost = (weight[:, None] * ws.d_frac[None, :]) * (
            inv_bw_uvm - inv_bw_hbm
        )
        density = np.full(d_bytes.shape, np.inf)
        np.divide(d_cost, d_bytes, out=density, where=d_bytes > 0)
        return density

    def _waterfill_arrays(
        self, ws, weight, inv_bw_hbm, inv_bw_uvm, start_steps, budget,
        hbm_rb,
    ):
        """Global waterfill on the workspace arrays (one bulk take)."""
        d_bytes = ws.d_grid_rows * hbm_rb[:, None]
        density = self._marginal_density(
            ws, weight, inv_bw_hbm, inv_bw_uvm, d_bytes
        )
        col = np.arange(ws.steps)
        mask = (ws.total_accesses > 0)[:, None] & (
            col[None, :] >= start_steps[:, None]
        )
        # +inf placeholders ahead of each table's start keep the running
        # minimum anchored at the (possibly warm-started) current step.
        eff = np.minimum.accumulate(
            np.where(mask, density, np.inf), axis=1
        )
        flat = np.flatnonzero(mask)
        table_ids, step_ids = np.divmod(flat, ws.steps)
        steps_out = start_steps.copy()
        self._bulk_take(
            eff.ravel()[flat], d_bytes.ravel()[flat], table_ids, step_ids,
            steps_out, budget, stop_on_exhausted=True,
        )
        return steps_out

    def _refill_arrays(
        self, ws, states, weight, inv_bw_hbm, inv_bw_uvm, device_of,
        hbm_free, hbm_rb,
    ):
        """Per-device refill on the workspace arrays.

        Dead rows promoted by the assignment phase (``extra_rows``)
        absorb part of each advance, so the byte cost of every step is
        adjusted by the extra rows still unabsorbed at that step —
        computable in closed form from the grid because consecutive
        ``max(0, extra - gain)`` updates compose.
        """
        steps = np.array([s.step for s in states], dtype=np.int64)
        extra = np.array([s.extra_rows for s in states], dtype=np.int64)
        grid = ws.grid_rows
        base = grid[np.arange(ws.num_tables), steps]
        unabsorbed = np.maximum(
            0, extra[:, None] - (grid[:, :-1] - base[:, None])
        )
        adj_bytes = np.maximum(0, ws.d_grid_rows - unabsorbed) * (
            hbm_rb[:, None]
        )
        density = self._marginal_density(
            ws, weight, inv_bw_hbm, inv_bw_uvm, adj_bytes
        )
        col = np.arange(ws.steps)
        valid = (ws.total_accesses > 0)[:, None] & (
            col[None, :] >= steps[:, None]
        )
        devices = np.asarray(device_of)
        for device in range(len(hbm_free)):
            members = np.flatnonzero(devices == device)
            if members.size == 0:
                continue
            sub_valid = valid[members]
            eff = np.minimum.accumulate(
                np.where(sub_valid, density[members], np.inf), axis=1
            )
            flat = np.flatnonzero(sub_valid)
            member_pos, step_ids = np.divmod(flat, ws.steps)
            hbm_free[device] = self._bulk_take(
                eff.ravel()[flat],
                adj_bytes[members].ravel()[flat],
                members[member_pos],
                step_ids,
                steps,
                hbm_free[device],
                stop_on_exhausted=False,
            )
        new_extra = np.maximum(
            0, extra - (grid[np.arange(ws.num_tables), steps] - base)
        )
        for j, state in enumerate(states):
            state.step = int(steps[j])
            state.extra_rows = int(new_extra[j])

    def _warm_start_arrays(
        self, ws, previous: ShardingPlan, budget: int, hbm_rb
    ):
        """Fast-forward each split to the previous plan's cut point.

        Each table walks its (new-profile) ICDF grid while the next
        step stays within the previous plan's HBM row count and the
        aggregate budget; returns the start steps and the budget left
        for the waterfill to spend on drift-induced re-cuts.  The walk
        stops at the first step past the previous plan's
        cut point or past the remaining budget; because per-step bytes
        are cumulative in the grid, both stops reduce to one
        ``searchsorted`` per table over the prefix-byte row.
        """
        grid = ws.grid_rows
        need = (grid - grid[:, :1]) * hbm_rb[:, None]
        targets = np.array(
            [previous[j].hbm_rows for j in range(ws.num_tables)],
            dtype=np.int64,
        )
        caps = (grid <= targets[:, None]).sum(axis=1) - 1
        start = np.zeros(ws.num_tables, dtype=np.int64)
        remaining = int(budget)
        for j in range(ws.num_tables):
            if ws.total_accesses[j] <= 0 or caps[j] <= 0:
                continue
            row = need[j, : caps[j] + 1]
            step = int(np.searchsorted(row, remaining, side="right")) - 1
            if step <= 0:
                continue
            start[j] = step
            remaining -= int(row[step])
        return start, remaining

    def _local_search_arrays(
        self, states, device_of, loads, hbm_free, host_free
    ):
        """Move or swap busiest-device tables while the makespan drops.

        Same moves, in the same order, as the nested-loop search of the
        heapq oracle.  Table splits are frozen during the search, so
        per-table costs and footprints become constant vectors; each
        round's candidate scan is then a couple of boolean matrices,
        with the loops' first-candidate order recovered from a
        composite rank.
        """
        num_devices = len(loads)
        cost = np.array([s.cost() for s in states], dtype=np.float64)
        hbm_b = np.array([s.hbm_bytes for s in states], dtype=np.int64)
        host_b = np.array([s.host_bytes() for s in states], dtype=np.int64)
        dev = np.array(device_of, dtype=np.int64)
        loads_a = np.array(loads, dtype=np.float64)
        hbm_f = np.array(hbm_free, dtype=np.int64)
        host_f = np.array(host_free, dtype=np.int64)

        def transfer(j, src, dst):
            moved = cost[j]
            dev[j] = dst
            loads_a[src] -= moved
            loads_a[dst] += moved
            hbm_f[src] += hbm_b[j]
            hbm_f[dst] -= hbm_b[j]
            host_f[src] += host_b[j]
            host_f[dst] -= host_b[j]

        def sorted_members(busiest):
            members = np.flatnonzero(dev == busiest)
            members = members[np.argsort(-cost[members], kind="stable")]
            return members[cost[members] > 0]

        def sorted_others(busiest):
            others = np.flatnonzero(np.arange(num_devices) != busiest)
            return others[np.argsort(loads_a[others], kind="stable")]

        def try_move(busiest):
            members = sorted_members(busiest)
            others = sorted_others(busiest)
            if members.size == 0 or others.size == 0:
                return False
            moved = cost[members][:, None]
            fits = (
                (hbm_f[others][None, :] >= hbm_b[members][:, None])
                & (host_f[others][None, :] >= host_b[members][:, None])
            )
            better = (
                np.maximum(
                    loads_a[busiest] - moved, loads_a[others][None, :] + moved
                )
                < loads_a[busiest]
            )
            ok = fits & better
            if not ok.any():
                return False
            first = int(np.argmax(ok))
            i, k = divmod(first, others.size)
            transfer(members[i], busiest, int(others[k]))
            return True

        def try_swap(busiest):
            members = sorted_members(busiest)
            others = sorted_others(busiest)
            if members.size == 0 or others.size == 0:
                return False
            num_tables = cost.size
            target_rank = np.full(num_devices, num_devices, dtype=np.int64)
            target_rank[others] = np.arange(others.size)
            my_cost = cost[members][:, None]
            their_cost = cost[None, :]
            cheaper = their_cost < my_cost
            new_busy = (loads_a[busiest] - cost[members])[:, None] + their_cost
            new_target = (
                (loads_a[dev][None, :] + my_cost) - their_cost
            )
            improves = (
                np.maximum(new_busy, new_target) < loads_a[busiest] - 1e-12
            )
            hbm_ok = (
                (hbm_f[dev][None, :] + hbm_b[None, :] >= hbm_b[members][:, None])
                & ((hbm_f[busiest] + hbm_b[members])[:, None] >= hbm_b[None, :])
            )
            host_ok = (
                (host_f[dev][None, :] + host_b[None, :]
                 >= host_b[members][:, None])
                & ((host_f[busiest] + host_b[members])[:, None]
                   >= host_b[None, :])
            )
            ok = (dev != busiest)[None, :] & cheaper & improves & hbm_ok & host_ok
            if not ok.any():
                return False
            # Loop scan order: mine (desc cost), then target (asc
            # load), then theirs (table index).
            rank = (
                np.arange(members.size)[:, None] * (num_devices * num_tables)
                + target_rank[dev][None, :] * num_tables
                + np.arange(num_tables)[None, :]
            )
            first = int(
                np.argmin(np.where(ok, rank, np.iinfo(np.int64).max))
            )
            i, j = divmod(first, num_tables)
            target = int(dev[j])
            transfer(j, target, busiest)
            transfer(members[i], busiest, target)
            return True

        for _ in range(self.refine_rounds):
            busiest = int(np.argmax(loads_a))
            if not (try_move(busiest) or try_swap(busiest)):
                break

        device_of[:] = [int(d) for d in dev]
        loads[:] = [float(x) for x in loads_a]
        hbm_free[:] = [int(x) for x in hbm_f]
        host_free[:] = [int(x) for x in host_f]

    def _assign(self, states, topology, preferred=None):
        """LPT placement under per-device HBM and host capacity.

        A device can host a table iff the table's minimum HBM footprint
        required by the device's remaining host space fits the device's
        remaining HBM.  The split is shrunk or padded to fit.  With
        ``preferred`` (per-table device hints from a warm-start plan), a
        table stays on its hinted device whenever the split fits there,
        leaving the local search to repair only drift-induced imbalance.
        """
        num_devices = topology.num_devices
        loads = [0.0] * num_devices
        hbm_free = [topology.hbm.capacity_bytes] * num_devices
        host_free = [topology.uvm.capacity_bytes] * num_devices
        device_of = [0] * len(states)

        for state in sorted(states, key=lambda s: -s.cost()):
            chosen = None
            if preferred is not None:
                hint = preferred[state.index]
                if (
                    hbm_free[hint] >= state.hbm_bytes
                    and host_free[hint] >= state.host_bytes()
                ):
                    chosen = hint
            if chosen is None:
                # Least-loaded device fitting the current split.
                for device in sorted(range(num_devices), key=lambda m: loads[m]):
                    if (
                        hbm_free[device] >= state.hbm_bytes
                        and host_free[device] >= state.host_bytes()
                    ):
                        chosen = device
                        break
            if chosen is None:
                # Adapt the split.  Feasible devices are those where the
                # host-driven minimum HBM rows fit the free HBM.
                feasible = []
                for device in range(num_devices):
                    min_rows = state.min_hbm_rows_for_host(host_free[device])
                    if min_rows * state.hbm_row_bytes <= hbm_free[device]:
                        feasible.append((device, min_rows))
                if not feasible:
                    raise PlanError(
                        f"{self.name}: table {state.index} fits no device "
                        "(HBM and host both exhausted)"
                    )
                device, min_rows = min(feasible, key=lambda d: loads[d[0]])
                self._resize_to_fit(state, min_rows, hbm_free[device])
                chosen = device
            device_of[state.index] = chosen
            loads[chosen] += state.cost()
            hbm_free[chosen] -= state.hbm_bytes
            host_free[chosen] -= state.host_bytes()
        return device_of, loads, hbm_free, host_free

    @staticmethod
    def _resize_to_fit(state: _TableState, min_rows: int, hbm_free: int) -> None:
        """Adjust the split to ``min_rows <= hbm_rows`` within ``hbm_free``."""
        max_rows = hbm_free // state.hbm_row_bytes
        icdf = state.inputs.icdf
        # Largest grid step within max_rows.
        step = state.step
        while step > 0 and math.ceil(icdf.rows[step] - 1e-9) > max_rows:
            step -= 1
        state.step = step
        state.extra_rows = 0
        if state.grid_rows < min_rows:
            state.extra_rows = min(min_rows, max_rows) - state.grid_rows

    def _recompute_loads(self, states, device_of, num_devices) -> list[float]:
        loads = [0.0] * num_devices
        for state in states:
            loads[device_of[state.index]] += state.cost()
        return loads
