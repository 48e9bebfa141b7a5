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

The solve state is two vectors over tables (:class:`_Splits`): each
table's ICDF step and its padding rows.  Costs and footprints are
derived from them in one pass, and every phase runs on them and on the
stacked arrays of a :class:`~repro.core.workspace.PlannerWorkspace`;
only the LPT loop walks the tables, reading plain lists.  The
waterfill's heap becomes one global ordering: taking steps in
descending *effective* density (the per-table running minimum — what a
max-heap over per-table step sequences actually pops, even where
integer rounding makes raw densities locally non-monotone) with ties
broken by (table, step) reproduces the heap's pop sequence exactly, so
whole prefixes of the order are admitted against the budget with
windowed cumulative sums instead of one heap transaction per step.
Steps larger than the budget left are dropped before they are scanned.
The per-step heapq solver it replaced, with the per-table state objects
its LPT walked, is the parity oracle in ``tests/oracles/planner.py``;
``tests/test_core/test_planner_vectorized.py`` pins plan equality.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluate import stamp_estimated_costs
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


def _admissible(sizes, tables, budget, blocked):
    """Index of the entries a take against ``budget`` can still admit.

    Each table's entries must appear in step order.  An entry larger
    than the budget can never be admitted (budgets only fall) and would
    retire its table when scanned, so each table keeps only its entries
    ahead of its first oversize one; a ``blocked`` table keeps none.
    Returns ``slice(None)`` when every entry stays, so that indexing
    with it copies nothing.
    """
    over = np.flatnonzero(sizes > budget)
    if over.size == 0 and not blocked.any():
        return slice(None)
    first = np.where(blocked, 0, sizes.size)
    np.minimum.at(first, tables[over], over)
    return np.flatnonzero(np.arange(sizes.size) < first[tables])


class _Splits:
    """Every table's split during one solve, as two int64 vectors.

    ``step`` indexes each table's ICDF grid (hot rows in HBM);
    ``extra`` counts dead/cold rows promoted to HBM only so that a
    device's host slice can absorb the table's UVM remainder — they
    serve (almost) no accesses, so they do not change the cost estimate.
    Costs and per-tier footprints are derived from the two vectors with
    the per-table formulas' float operations, so they equal the scalar
    values bit for bit; ``tables`` selects one table or all of them.
    """

    def __init__(self, ws: PlannerWorkspace, topology: SystemTopology,
                 weight, alloc_rows):
        self.ws = ws
        self.step = np.zeros(ws.num_tables, dtype=np.int64)
        self.extra = np.zeros(ws.num_tables, dtype=np.int64)
        #: expected bytes gathered per iteration, times 1e3, so that
        #: bytes over a tier's bandwidth read in ms
        self.weight = weight
        #: rows that must be backed by memory somewhere
        self.alloc_rows = alloc_rows
        self.hbm_rb = ws.tier_row_bytes(topology.hbm.precision)
        self.host_rb = ws.tier_row_bytes(topology.uvm.precision)
        self.inv_bw_hbm = 1.0 / topology.hbm.bandwidth
        self.inv_bw_uvm = 1.0 / topology.uvm.bandwidth
        self.active = ws.total_accesses > 0
        self._index = np.arange(ws.num_tables)

    def grid_rows(self, tables=slice(None)):
        return self.ws.grid_rows[self._index[tables], self.step[tables]]

    def hbm_rows(self, tables=slice(None)):
        return np.minimum(
            self.grid_rows(tables) + self.extra[tables],
            self.ws.hash_sizes[tables],
        )

    def hbm_bytes(self, tables=slice(None)):
        return self.hbm_rows(tables) * self.hbm_rb[tables]

    def host_bytes(self, tables=slice(None)):
        return np.maximum(
            0, self.alloc_rows[tables] - self.hbm_rows(tables)
        ) * self.host_rb[tables]

    def cost(self, tables=slice(None)):
        """Expected per-iteration cost (ms) at the current splits."""
        frac = self.ws.fractions[self.step[tables]]
        return np.where(
            self.active[tables],
            self.weight[tables]
            * (frac * self.inv_bw_hbm + (1.0 - frac) * self.inv_bw_uvm),
            0.0,
        )

    def marginal_density(self, d_bytes, tables=slice(None)):
        """Cost reduction per byte of every ICDF step of ``tables``."""
        d_cost = (self.weight[tables][:, None] * self.ws.d_frac[None, :]) * (
            self.inv_bw_uvm - self.inv_bw_hbm
        )
        density = np.full(d_bytes.shape, np.inf)
        np.divide(d_cost, d_bytes, out=density, where=d_bytes > 0)
        return density

    def resize_to_fit(self, j: int, min_rows: int, hbm_free: int) -> None:
        """Adjust table ``j`` to ``min_rows <= hbm_rows`` within ``hbm_free``."""
        max_rows = hbm_free // int(self.hbm_rb[j])
        grid = self.ws.grid_rows[j]
        # Largest grid step within max_rows.
        step = int(self.step[j])
        while step > 0 and grid[step] > max_rows:
            step -= 1
        self.step[j] = step
        grid_rows = int(grid[step])
        self.extra[j] = (
            min(min_rows, max_rows) - grid_rows if grid_rows < min_rows else 0
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

        Every phase reads and updates one :class:`_Splits`.  Plans are
        identical, table for table, to the per-step heapq oracle's.
        """
        if topology.num_tiers != 2:
            raise ValueError("RecShardFastSharder targets two-tier topologies")
        ws = workspace
        splits = self._splits(ws, topology)
        hbm_budget = topology.hbm.capacity_bytes * topology.num_devices
        preferred = None
        if warm_start is not None and len(warm_start) == ws.num_tables:
            splits.step[:], hbm_budget = self._warm_start_arrays(
                ws, warm_start, hbm_budget, splits.hbm_rb
            )
            preferred = [warm_start[j].device for j in range(ws.num_tables)]

        self._waterfill_arrays(splits, hbm_budget)
        device_of, hbm_free, host_free = self._assign(
            splits, topology, preferred=preferred
        )
        self._refill_arrays(splits, device_of, hbm_free)
        # Summed in table order, like the oracle's loop.
        loads = np.bincount(
            device_of, weights=splits.cost(), minlength=topology.num_devices
        )
        self._local_search_arrays(splits, device_of, loads, hbm_free, host_free)
        self._refill_arrays(splits, device_of, hbm_free)
        # The LPT loads above steer the solve; the plan's estimate is
        # the evaluator's, like every other planner's.
        return stamp_estimated_costs(
            self._emit_plan(splits, device_of, topology, preferred),
            ws.model, ws.profile, topology, self.batch_size,
        )

    def _splits(self, ws, topology) -> _Splits:
        """Every table at ICDF step 0, under this sharder's switches."""
        coverage = ws.coverage if self.use_coverage else 1.0
        pooling = ws.avg_pooling if self.use_pooling else 1.0
        weight = coverage * pooling * ws.row_bytes * self.batch_size * _MS
        alloc_rows = ws.live_rows if self.reclaim_dead else ws.hash_sizes
        return _Splits(ws, topology, weight, alloc_rows)

    def _emit_plan(self, splits, device_of, topology, preferred):
        """Materialize placements and metadata (the caller stamps costs)."""
        ws = splits.ws
        hash_sizes = ws.hash_sizes.tolist()
        placements = [
            TablePlacement(
                table_index=j, device=device, rows_per_tier=(rows, size - rows)
            )
            for j, (device, rows, size) in enumerate(
                zip(device_of.tolist(), splits.hbm_rows().tolist(), hash_sizes)
            )
        ]
        metadata = {"solver": "fast"}
        if preferred is not None:
            metadata["warm_started"] = True
        _stamp_tier_precisions(metadata, topology)
        if self.reclaim_dead:
            metadata["reclaim_dead"] = True
            metadata["dead_rows"] = (ws.hash_sizes - ws.live_rows).tolist()
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
        priority).  A table's entries therefore reach the scan in step
        order, and the budget left only falls, so an entry larger than
        the budget left can never be admitted: when scanned it retires
        its table (like a dropped heap entry).  Each table's entries
        from its first oversize one on are dropped before the sort, and
        the unscanned suffix is pruned again whenever the budget left
        has halved since the last prune.

        Steps are taken in bulk: a cumulative sum over a window of
        not-yet-blocked entries finds the longest admissible prefix,
        and the window doubles while every entry in it is admitted.  A
        budget-blocking step sets its table's ``blocked`` flag; the
        scan resumes just past it with the window back at its initial
        size.  The cost is O(N log N) for the sort of the N entries
        that fit the budget, O(N) per prune (a logarithmic number of
        them), and O(window) per blocker — which only entries that fit
        the last prune's budget but not the budget left can be.

        ``stop_on_exhausted`` mirrors the two heap loops: the global
        waterfill stops once the budget hits zero, the per-device
        refill keeps draining zero-byte steps.

        Updates ``steps_out`` (per-table step reached) in place and
        returns the unspent budget.
        """
        remaining = int(budget)
        blocked = np.zeros(steps_out.size, dtype=bool)
        keep = _admissible(d_bytes, table_ids, remaining, blocked)
        order = descending_order(eff_density[keep])
        tables, sizes, steps = (
            a[keep][order] for a in (table_ids, d_bytes, step_ids)
        )
        taken_tables, taken_steps = [], []
        pruned_at = remaining
        pos, window = 0, _TAKE_WINDOW
        while pos < tables.size:
            if stop_on_exhausted and remaining <= 0:
                break
            # Prune again once the budget left has halved since the last
            # prune.  A spent budget cannot halve again, so the refill's
            # drain of zero-byte steps at a budget of 0 prunes once.
            if 0 < pruned_at and 2 * remaining <= pruned_at:
                tables, sizes, steps = tables[pos:], sizes[pos:], steps[pos:]
                live = _admissible(sizes, tables, remaining, blocked)
                tables, sizes, steps = tables[live], sizes[live], steps[live]
                pos, pruned_at = 0, remaining
                continue
            end = min(pos + window, tables.size)
            sel = pos + np.flatnonzero(~blocked[tables[pos:end]])
            cum = np.cumsum(sizes[sel])
            if stop_on_exhausted:
                take = (cum <= remaining) & ((cum - sizes[sel]) < remaining)
            else:
                take = cum <= remaining
            # Both conditions are prefix-shaped (cum is non-decreasing).
            count = int(np.count_nonzero(take))
            if count:
                taken_tables.append(tables[sel[:count]])
                taken_steps.append(steps[sel[:count]])
                remaining -= int(cum[count - 1])
            if count == sel.size:
                pos, window = end, 2 * window
                continue
            if stop_on_exhausted and remaining <= 0:
                break
            blocker = int(sel[count])
            blocked[tables[blocker]] = True
            pos, window = blocker + 1, _TAKE_WINDOW
        if taken_tables:
            np.maximum.at(
                steps_out, np.concatenate(taken_tables),
                np.concatenate(taken_steps) + 1,
            )
        return remaining

    def _waterfill_arrays(self, splits: _Splits, budget) -> None:
        """Global waterfill on the workspace arrays (one bulk take),
        from each table's current step."""
        ws = splits.ws
        d_bytes = ws.d_grid_rows * splits.hbm_rb[:, None]
        density = splits.marginal_density(d_bytes)
        col = np.arange(ws.steps)
        mask = splits.active[:, None] & (col[None, :] >= splits.step[:, None])
        # +inf placeholders ahead of each table's start keep the running
        # minimum anchored at the (possibly warm-started) current step.
        eff = np.minimum.accumulate(
            np.where(mask, density, np.inf), axis=1
        )
        flat = np.flatnonzero(mask)
        table_ids, step_ids = np.divmod(flat, ws.steps)
        self._bulk_take(
            eff.ravel()[flat], d_bytes.ravel()[flat], table_ids, step_ids,
            splits.step, budget, stop_on_exhausted=True,
        )

    def _refill_arrays(self, splits: _Splits, device_of, hbm_free) -> None:
        """Per-device refill on the workspace arrays.

        Dead rows promoted by the assignment phase (``extra``) absorb
        part of each advance, so the byte cost of every step is
        adjusted by the extra rows still unabsorbed at that step —
        computable in closed form from the grid because consecutive
        ``max(0, extra - gain)`` updates compose.  A step that does not
        fit its device's free HBM can never be admitted, nor can any
        later step of its table, so only each table's admissible prefix
        enters a take, and only devices with an admissible step take.
        ``hbm_free`` (per device) is updated in place.
        """
        ws = splits.ws
        steps, extra = splits.step, splits.extra
        devices = np.asarray(device_of)
        free_of = np.asarray(hbm_free)[devices]
        # A table whose next step does not fit admits nothing.
        head = np.minimum(steps, ws.steps - 1)
        head_bytes = np.maximum(
            0, ws.d_grid_rows[np.arange(ws.num_tables), head] - extra
        ) * splits.hbm_rb
        cand = np.flatnonzero(
            splits.active & (steps < ws.steps) & (head_bytes <= free_of)
        )
        if cand.size == 0:
            return
        grid = ws.grid_rows[cand]
        start = steps[cand]
        base = grid[np.arange(cand.size), start]
        unabsorbed = np.maximum(
            0, extra[cand][:, None] - (grid[:, :-1] - base[:, None])
        )
        adj_bytes = np.maximum(0, ws.d_grid_rows[cand] - unabsorbed) * (
            splits.hbm_rb[cand][:, None]
        )
        started = np.arange(ws.steps)[None, :] >= start[:, None]
        live = started & np.logical_and.accumulate(
            (adj_bytes <= free_of[cand][:, None]) | ~started, axis=1
        )
        eff = np.minimum.accumulate(
            np.where(live, splits.marginal_density(adj_bytes, cand), np.inf),
            axis=1,
        )
        flat = np.flatnonzero(live)
        rows, step_ids = np.divmod(flat, ws.steps)
        table_ids = cand[rows]
        owner = devices[table_ids]
        eff, adj_bytes = eff.ravel()[flat], adj_bytes.ravel()[flat]
        for device in np.unique(owner).tolist():
            sel = np.flatnonzero(owner == device)
            hbm_free[device] = self._bulk_take(
                eff[sel], adj_bytes[sel], table_ids[sel], step_ids[sel],
                steps, hbm_free[device], stop_on_exhausted=False,
            )
        extra[cand] = np.maximum(
            0, extra[cand] - (splits.grid_rows(cand) - base)
        )

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
        self, splits, device_of, loads, hbm_free, host_free
    ):
        """Move or swap busiest-device tables while the makespan drops.

        Same moves, in the same order, as the nested-loop search of the
        heapq oracle.  Table splits are frozen during the search, so
        per-table costs and footprints are constant vectors; each
        round's candidate scan is then a couple of boolean matrices,
        with the loops' first-candidate order recovered from a
        composite rank.  The per-device vectors (``device_of``,
        ``loads``, ``hbm_free``, ``host_free``) are updated in place.
        """
        num_devices = loads.size
        cost = splits.cost()
        hbm_b = splits.hbm_bytes()
        host_b = splits.host_bytes()
        dev, loads_a, hbm_f, host_f = device_of, loads, hbm_free, host_free

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

    def _assign(self, splits: _Splits, topology, preferred=None):
        """LPT placement under per-device HBM and host capacity.

        Tables go in descending cost order, each onto the least-loaded
        device its split fits (the lowest index on ties).  A device can
        host a table iff the table's minimum HBM footprint required by
        the device's remaining host space fits the device's remaining
        HBM; when no device fits the split, it is shrunk or padded to
        fit.  With ``preferred`` (per-table device hints from a
        warm-start plan), a table stays on its hinted device whenever
        the split fits there, leaving the local search to repair only
        drift-induced imbalance.  Returns the per-table device and the
        per-device free HBM and host bytes, as int64 vectors.
        """
        num_devices = topology.num_devices
        devices = range(num_devices)
        loads = [0.0] * num_devices
        hbm_free = [topology.hbm.capacity_bytes] * num_devices
        host_free = [topology.uvm.capacity_bytes] * num_devices
        device_of = [0] * splits.step.size
        cost = splits.cost()
        costs = cost.tolist()
        hbm_bytes = splits.hbm_bytes().tolist()
        host_bytes = splits.host_bytes().tolist()

        for j in descending_order(cost).tolist():
            hbm_need, host_need = hbm_bytes[j], host_bytes[j]
            chosen = -1
            if preferred is not None:
                hint = preferred[j]
                if hbm_free[hint] >= hbm_need and host_free[hint] >= host_need:
                    chosen = hint
            if chosen < 0:
                for device in devices:
                    if (
                        hbm_free[device] >= hbm_need
                        and host_free[device] >= host_need
                        and (chosen < 0 or loads[device] < loads[chosen])
                    ):
                        chosen = device
            if chosen < 0:
                # Adapt the split.  Feasible devices are those where the
                # host-driven minimum HBM rows fit the free HBM.
                alloc = int(splits.alloc_rows[j])
                host_rb = int(splits.host_rb[j])
                hbm_rb = int(splits.hbm_rb[j])
                min_rows = {}
                for device in devices:
                    rows = max(0, alloc - host_free[device] // host_rb)
                    if rows * hbm_rb <= hbm_free[device]:
                        min_rows[device] = rows
                if not min_rows:
                    raise PlanError(
                        f"{self.name}: table {j} fits no device "
                        "(HBM and host both exhausted)"
                    )
                chosen = min(min_rows, key=loads.__getitem__)
                splits.resize_to_fit(j, min_rows[chosen], hbm_free[chosen])
                hbm_need = int(splits.hbm_bytes(j))
                host_need = int(splits.host_bytes(j))
                costs[j] = float(splits.cost(j))
            device_of[j] = chosen
            loads[chosen] += costs[j]
            hbm_free[chosen] -= hbm_need
            host_free[chosen] -= host_need
        return (
            np.array(device_of, dtype=np.int64),
            np.array(hbm_free, dtype=np.int64),
            np.array(host_free, dtype=np.int64),
        )
