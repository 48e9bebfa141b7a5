"""Scalar reference planners: the per-step heapq solvers.

The shipped :class:`~repro.core.fast.RecShardFastSharder` and
:class:`~repro.core.multitier.MultiTierSharder` solve on the stacked
arrays of a :class:`~repro.core.workspace.PlannerWorkspace`, admitting
whole prefixes of one effective-density order in bulk.  The classes
here are the original one-step-at-a-time implementations those solvers
replaced: a max-heap over each table's next ICDF step, advanced one pop
at a time, and Python-loop local search.  The parity suites pin the
shipped plans to these, table for table (``rows_per_tier`` and device
homes), cold and warm-started.

:class:`ScalarFastSharder` carries its own LPT assignment, split
resizing and plan emission, walking one :class:`_TableState` object
per table — the state the shipped sharder keeps as two vectors — so
the parity suites check the shipped LPT as well;
``ScalarFastSharder.assign_states`` is also the LPT oracle on its own.
:class:`ScalarMultiTierSharder` carries its own per-table boundary
extraction and LPT, the loops the shipped sharder replaced with
vector passes over the workspace.  Both ``shard`` methods take the
sharder protocol's ``workspace`` keyword and ignore it: they re-derive
every statistic per call from the profile, through the scalar ICDF
sampler of :mod:`tests.oracles.icdf` (:func:`~tests.oracles.icdf.table_inputs`).

:class:`HeapqRefillSharder` is the MILP sharder with its original
per-device refill: a heapq over each table's next ICDF step, charged at
the tables' fp32 row bytes, in place of the fast sharder's array
refill the shipped sharder runs.

The two per-plan cost loops the batched evaluator
(:func:`~repro.core.evaluate.expected_device_costs_ms_many`) replaced
live here too: :func:`scalar_device_costs_ms` accumulates a plain plan
placement by placement, and :func:`strategy_device_costs_ms` scores one
plan with ``table_strategies`` shard by shard.  Both read coverage one
table at a time through :func:`coverage_of_rows_many`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.evaluate import stamp_estimated_costs
from repro.core.fast import RecShardFastSharder, _stamp_tier_precisions
from repro.core.multitier import MultiTierSharder
from repro.core.plan import PlanError, ShardingPlan, TablePlacement
from repro.core.recshard import RecShardSharder
from repro.core.workspace import PlannerWorkspace
from repro.memory.precision import quantized_row_bytes
from repro.memory.topology import SystemTopology
from tests.oracles.icdf import TableInputs, table_inputs

_MS = 1e3


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


class _StepState(_TableState):
    """A table's split state with the heap solver's one-step moves."""

    __slots__ = ()

    def next_step_delta(self) -> tuple[float, int] | None:
        """(cost reduction, extra bytes) of advancing one ICDF step."""
        icdf = self.inputs.icdf
        if self.step >= icdf.steps or self.inputs.total_accesses <= 0:
            return None
        d_frac = float(icdf.fractions[self.step + 1] - icdf.fractions[self.step])
        next_rows = math.ceil(icdf.rows[self.step + 1] - 1e-9)
        d_rows = next_rows - self.grid_rows
        # Extra dead rows already in HBM absorb part of the advance.
        d_rows = max(0, d_rows - self.extra_rows)
        d_bytes = d_rows * self.hbm_row_bytes
        d_cost = self.weight * d_frac * (self.inv_bw_uvm - self.inv_bw_hbm)
        return d_cost, d_bytes

    def advance(self) -> None:
        icdf = self.inputs.icdf
        grid_gain = math.ceil(icdf.rows[self.step + 1] - 1e-9) - self.grid_rows
        self.extra_rows = max(0, self.extra_rows - grid_gain)
        self.step += 1


class ScalarFastSharder(RecShardFastSharder):
    """The two-tier fast sharder's heapq reference path."""

    def shard(
        self, model, profile, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
        workspace: PlannerWorkspace | None = None,
    ) -> ShardingPlan:
        if topology.num_tiers != 2:
            raise ValueError("RecShardFastSharder targets two-tier topologies")
        tables = table_inputs(model, profile, self.steps)
        states = self.table_states(tables, topology)
        hbm_budget = topology.hbm.capacity_bytes * topology.num_devices
        preferred = None
        if warm_start is not None and len(warm_start) == len(states):
            hbm_budget = self._warm_start_splits(states, warm_start, hbm_budget)
            preferred = [warm_start[j].device for j in range(len(states))]
        # Global waterfill: the aggregate HBM budget on the densest steps.
        self._drain({s.index: s for s in states}, hbm_budget, True)
        device_of, loads, hbm_free, host_free = self.assign_states(
            states, topology, preferred=preferred
        )
        self._refill(states, device_of, hbm_free)
        loads = self._state_loads(states, device_of, topology.num_devices)
        self._local_search(states, device_of, loads, hbm_free, host_free)
        # Moves free HBM behind them; one more refill converts it into
        # additional hot rows.
        self._refill(states, device_of, hbm_free)
        return stamp_estimated_costs(
            self._emit_states(states, device_of, topology, tables, preferred),
            model, profile, topology, self.batch_size,
        )

    def assign_states(self, states, topology, preferred=None):
        """LPT placement under per-device HBM and host capacity.

        A device can host a table iff the table's minimum HBM footprint
        required by the device's remaining host space fits the device's
        remaining HBM.  The split is shrunk or padded to fit.  With
        ``preferred`` (per-table device hints from a warm-start plan), a
        table stays on its hinted device whenever the split fits there.
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
                self._resize_state(state, min_rows, hbm_free[device])
                chosen = device
            device_of[state.index] = chosen
            loads[chosen] += state.cost()
            hbm_free[chosen] -= state.hbm_bytes
            host_free[chosen] -= state.host_bytes()
        return device_of, loads, hbm_free, host_free

    @staticmethod
    def _resize_state(state: _TableState, min_rows: int, hbm_free: int) -> None:
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

    @staticmethod
    def _state_loads(states, device_of, num_devices) -> list[float]:
        loads = [0.0] * num_devices
        for state in states:
            loads[device_of[state.index]] += state.cost()
        return loads

    def _emit_states(self, states, device_of, topology, tables, preferred):
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
            metadata["dead_rows"] = [t.hash_size - t.live_rows for t in tables]
        return ShardingPlan(
            strategy=self.name, placements=placements, metadata=metadata
        )

    def table_states(self, tables, topology) -> list[_StepState]:
        """One split state per table, at ICDF step 0."""
        return [
            _StepState(
                j, t, self.batch_size, 1.0 / topology.hbm.bandwidth,
                1.0 / topology.uvm.bandwidth,
                self.use_coverage, self.use_pooling, self.reclaim_dead,
                hbm_row_bytes=topology.hbm.row_bytes_for(t.row_bytes),
                host_row_bytes=topology.uvm.row_bytes_for(t.row_bytes),
            )
            for j, t in enumerate(tables)
        ]

    @staticmethod
    def _warm_start_splits(states, previous: ShardingPlan, budget: int) -> int:
        """Walk each split to the previous plan's cut point, within the
        budget; returns the budget left for the waterfill."""
        remaining = budget
        for state in states:
            target = previous[state.index].hbm_rows
            while True:
                delta = state.next_step_delta()
                if delta is None:
                    break
                next_rows = math.ceil(state.inputs.icdf.rows[state.step + 1] - 1e-9)
                if next_rows > target or delta[1] > remaining:
                    break
                state.advance()
                remaining -= delta[1]
        return remaining

    @staticmethod
    def _drain(states_by_index, budget, stop_on_exhausted) -> int:
        """Pop steps densest first while they fit; returns the budget left.

        ``stop_on_exhausted`` mirrors the two callers: the global
        waterfill stops once the budget hits zero, the per-device
        refill keeps draining zero-byte steps.
        """
        heap: list[tuple[float, int]] = []

        def push(state: _StepState) -> None:
            delta = state.next_step_delta()
            if delta is not None:
                d_cost, d_bytes = delta
                density = d_cost / d_bytes if d_bytes else float("inf")
                heapq.heappush(heap, (-density, state.index))

        for state in states_by_index.values():
            push(state)
        remaining = budget
        while heap and not (stop_on_exhausted and remaining <= 0):
            _, index = heapq.heappop(heap)
            state = states_by_index[index]
            delta = state.next_step_delta()
            if delta is None:
                continue
            _, d_bytes = delta
            if d_bytes > remaining:
                continue  # later (smaller) steps may still fit
            state.advance()
            remaining -= d_bytes
            push(state)
        return remaining

    def _refill(self, states, device_of, hbm_free) -> None:
        """Spend per-device leftover HBM on that device's own tables."""
        by_device: dict[int, dict[int, _StepState]] = {}
        for state in states:
            by_device.setdefault(device_of[state.index], {})[state.index] = state
        for device, members in by_device.items():
            hbm_free[device] = self._drain(members, hbm_free[device], False)

    def _local_search(self, states, device_of, loads, hbm_free, host_free):
        """Reduce the makespan by moving or swapping busiest-device tables."""
        for _ in range(self.refine_rounds):
            busiest = max(range(len(loads)), key=lambda m: loads[m])
            candidates = self._candidates(
                states, device_of, loads, hbm_free, host_free, busiest
            )
            move = next(candidates, None)
            if move is None:
                break
            for state, src, dst in move:
                cost = state.cost()
                device_of[state.index] = dst
                loads[src] -= cost
                loads[dst] += cost
                hbm_free[src] += state.hbm_bytes
                hbm_free[dst] -= state.hbm_bytes
                host_free[src] += state.host_bytes()
                host_free[dst] -= state.host_bytes()

    @staticmethod
    def _candidates(states, device_of, loads, hbm_free, host_free, busiest):
        """Improving moves, then swaps, in scan order, each as its
        ``(state, src, dst)`` transfers: busiest-device tables by
        descending cost, targets by ascending load, theirs by index."""
        members = sorted(
            (s for s in states if device_of[s.index] == busiest),
            key=lambda s: -s.cost(),
        )
        others = sorted(
            (m for m in range(len(loads)) if m != busiest), key=lambda m: loads[m]
        )
        for state in members:
            cost = state.cost()
            for target in others if cost > 0 else ():
                fits = (
                    hbm_free[target] >= state.hbm_bytes
                    and host_free[target] >= state.host_bytes()
                )
                if fits and (
                    max(loads[busiest] - cost, loads[target] + cost) < loads[busiest]
                ):
                    yield [(state, busiest, target)]
        for mine in members:
            my_cost = mine.cost()
            for target in others if my_cost > 0 else ():
                for theirs in states:
                    if device_of[theirs.index] != target:
                        continue
                    their_cost = theirs.cost()
                    if their_cost >= my_cost:
                        continue
                    new_busy = loads[busiest] - my_cost + their_cost
                    new_target = loads[target] + my_cost - their_cost
                    if max(new_busy, new_target) >= loads[busiest] - 1e-12:
                        continue
                    hbm_ok = (
                        hbm_free[target] + theirs.hbm_bytes >= mine.hbm_bytes
                        and hbm_free[busiest] + mine.hbm_bytes >= theirs.hbm_bytes
                    )
                    host_ok = (
                        host_free[target] + theirs.host_bytes() >= mine.host_bytes()
                        and host_free[busiest] + mine.host_bytes()
                        >= theirs.host_bytes()
                    )
                    if hbm_ok and host_ok:
                        yield [(theirs, target, busiest), (mine, busiest, target)]


class ScalarMultiTierSharder(MultiTierSharder):
    """The multi-tier greedy's per-tier heapq waterfill."""

    def shard(
        self, model, profile, topology: SystemTopology,
        warm_start: ShardingPlan | None = None,
        workspace: PlannerWorkspace | None = None,
    ) -> ShardingPlan:
        tables = table_inputs(model, profile, self.steps)
        plan = self._shard_greedy(tables, topology, warm_start=warm_start)
        return stamp_estimated_costs(plan, model, profile, topology, self.batch_size)

    def _shard_greedy(
        self, tables: list[TableInputs], topology,
        warm_start: ShardingPlan | None = None,
    ) -> ShardingPlan:
        num_tiers = topology.num_tiers
        inv_bw = [1.0 / t.bandwidth for t in topology.tiers]
        weights = [
            t.coverage * t.avg_pooling * t.row_bytes * self.batch_size * _MS
            for t in tables
        ]
        # boundary_steps[j][t] = ICDF step index of boundary t (cumulative).
        boundary_steps = [[0] * (num_tiers - 1) for _ in tables]

        for tier in range(num_tiers - 1):
            budget = topology.tiers[tier].capacity_bytes * topology.num_devices
            tier_rb = [
                quantized_row_bytes(t.row_bytes, topology.tiers[tier].precision)
                for t in tables
            ]
            # Bytes already committed to this tier is zero: boundaries are
            # cumulative, so tier t holds rows between boundaries t-1 and t.
            heap: list[tuple[float, int]] = []

            def step_bytes(j: int, step: int) -> int:
                icdf = tables[j].icdf
                d_rows = math.ceil(icdf.rows[step + 1] - 1e-9) - math.ceil(
                    icdf.rows[step] - 1e-9
                )
                return d_rows * tier_rb[j]

            def push(j: int) -> None:
                icdf = tables[j].icdf
                step = boundary_steps[j][tier]
                if step >= icdf.steps or tables[j].total_accesses <= 0:
                    return
                d_frac = float(icdf.fractions[step + 1] - icdf.fractions[step])
                d_bytes = step_bytes(j, step)
                gain = weights[j] * d_frac * (inv_bw[tier + 1] - inv_bw[tier])
                density = gain / d_bytes if d_bytes else float("inf")
                heapq.heappush(heap, (-density, j))

            for j in range(len(tables)):
                boundary_steps[j][tier] = (
                    boundary_steps[j][tier - 1] if tier > 0 else 0
                )
                push(j)
            remaining = budget
            while heap and remaining > 0:
                _, j = heapq.heappop(heap)
                step = boundary_steps[j][tier]
                if step >= tables[j].icdf.steps:
                    continue
                d_bytes = step_bytes(j, step)
                if d_bytes > remaining:
                    continue
                boundary_steps[j][tier] = step + 1
                remaining -= d_bytes
                push(j)

        return self._finish_tables(tables, topology, boundary_steps, warm_start)

    def _finish_tables(
        self, tables, topology, boundary_steps, warm_start
    ) -> ShardingPlan:
        """Boundary steps -> placements, LPT assignment, plan."""
        inv_bw = [1.0 / t.bandwidth for t in topology.tiers]
        weights = [
            t.coverage * t.avg_pooling * t.row_bytes * self.batch_size * _MS
            for t in tables
        ]
        placements, costs = self._extract_tables(
            tables, topology, boundary_steps, weights, inv_bw
        )
        preferred = None
        if warm_start is not None and len(warm_start) == len(placements):
            preferred = [warm_start[j].device for j in range(len(placements))]
        device_of = self._assign_tables(
            tables, topology, placements, costs, preferred=preferred
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

    @staticmethod
    def _extract_tables(tables, topology, boundary_steps, weights, inv_bw):
        """Boundary steps -> per-tier row counts and expected costs."""
        num_tiers = topology.num_tiers
        placements = []
        costs = []
        for j, table in enumerate(tables):
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
                cost += weights[j] * (fracs[t] - prev_frac) * inv_bw[t]
                prev_frac = fracs[t]
            costs.append(cost if table.total_accesses > 0 else 0.0)
        return placements, costs

    @staticmethod
    def _assign_tables(tables, topology, placements, costs, preferred=None):
        """Least-loaded placement under per-device per-tier capacities,
        demoting rows toward slower tiers when no device fits."""
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
                quantized_row_bytes(tables[j].row_bytes, tier.precision)
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


# ----------------------------------------------------------------------
# Per-plan cost loops (parity references of the batched evaluator)
# ----------------------------------------------------------------------
class HeapqRefillSharder(RecShardSharder):
    """The MILP sharder with the heapq per-device refill."""

    def _refill(self, placements, workspace, topology) -> None:
        tables = table_inputs(workspace.model, workspace.profile, workspace.steps)
        cap = topology.hbm.capacity_bytes
        for device in range(topology.num_devices):
            members = [
                (i, p) for i, p in enumerate(placements) if p.device == device
            ]
            free = cap - sum(
                p.hbm_rows * tables[p.table_index].row_bytes
                for _, p in members
            )
            if free <= 0:
                continue
            # Each table's current ICDF step: the largest grid point at
            # or below its current HBM rows.
            steps = {}
            for i, p in members:
                icdf = tables[p.table_index].icdf
                step = (
                    int(np.searchsorted(icdf.rows, p.hbm_rows + 1e-9, side="right")) - 1
                )
                steps[i] = max(0, step)

            heap = []

            def push(i: int) -> None:
                placement = placements[i]
                table = tables[placement.table_index]
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
                table = tables[placement.table_index]
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


def coverage_of_rows_many(cdf, rows) -> np.ndarray:
    """Vectorized :meth:`~repro.stats.cdf.FrequencyCDF.coverage_of_rows`
    over an array of row counts of one table.

    Element-for-element identical to the scalar method (including the
    ``rows <= 0`` and ``rows >= hash_size`` edge cases).  The shipped
    evaluator asks the profile instead
    (:meth:`~repro.stats.profiler.ModelProfile.coverage_of_rows_at`),
    one query over every table.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if cdf.total <= 0:
        return np.zeros(rows.shape, dtype=np.float64)
    # Clip before the take so out-of-range counts never index; the
    # edge cases are then painted over the gathered values.
    out = cdf.cum_fraction[np.clip(rows - 1, 0, cdf.hash_size - 1)]
    out = np.where(rows <= 0, 0.0, out)
    return np.where(rows >= cdf.hash_size, 1.0, out)


def scalar_device_costs_ms(
    plan: ShardingPlan,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
    use_coverage: bool = True,
    use_pooling: bool = True,
) -> np.ndarray:
    """Expected per-device cost of a plain plan, placement by placement.

    Every table is charged to its home device, so this is a reference
    for plans without ``table_strategies`` only.
    """
    costs = np.zeros(topology.num_devices)
    inv_bw = np.array([1.0 / tier.bandwidth for tier in topology.tiers])
    for placement in plan:
        stats = profile[placement.table_index]
        table = model.tables[placement.table_index]
        if stats.total_accesses <= 0:
            continue
        coverage = stats.coverage if use_coverage else 1.0
        pooling = stats.avg_pooling if use_pooling else 1.0
        expected_accesses = coverage * pooling * batch_size
        cum_rows = np.cumsum(placement.rows_per_tier)
        cov = coverage_of_rows_many(stats.cdf, cum_rows)
        frac = np.diff(cov, prepend=0.0)
        costs[placement.device] += expected_accesses * table.row_bytes * (
            frac @ inv_bw[: frac.size]
        )
    return costs * 1e3


def strategy_device_costs_ms(
    plan: ShardingPlan,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
    use_coverage: bool = True,
    use_pooling: bool = True,
) -> np.ndarray:
    """Expected per-device cost of one plan with ``table_strategies``.

    Column shards carry their dim fraction of the table's per-tier
    traffic, twrw shards the coverage mass of their rank range (the
    prefix min/max identity, applied to coverage fractions).
    """
    base = plan.placements
    num_tiers = len(base[0].rows_per_tier)
    num_tables = model.num_tables
    cum_rows = np.cumsum(
        np.array([p.rows_per_tier for p in base], dtype=np.int64), axis=1
    )
    cov = np.empty((num_tiers, num_tables))
    for j, stats in enumerate(profile):
        cov[:, j] = coverage_of_rows_many(stats.cdf, cum_rows[j])
    total_accesses = np.array([s.total_accesses for s in profile])
    stat_coverage = np.array([s.coverage for s in profile])
    stat_pooling = np.array([s.avg_pooling for s in profile])
    row_bytes = np.array([t.row_bytes for t in model.tables])
    frac = np.diff(cov, axis=0, prepend=0.0)  # (tiers, tables)
    inv_bw = np.array([1.0 / tier.bandwidth for tier in topology.tiers])
    coverage = stat_coverage if use_coverage else 1.0
    pooling = stat_pooling if use_pooling else 1.0
    table_weight = np.where(
        total_accesses > 0,
        coverage * pooling * batch_size * row_bytes,
        0.0,
    )
    costs = np.zeros(topology.num_devices)
    for j, (placement, strat) in enumerate(zip(base, plan.table_strategies)):
        tier_cost = float(frac[:, j] @ inv_bw[:num_tiers])
        if strat.kind in ("row", "table"):
            costs[placement.device] += table_weight[j] * tier_cost
        elif strat.kind == "column":
            dim = model.tables[j].dim
            for device, shard_dim in zip(strat.devices, strat.dims):
                costs[device] += (
                    table_weight[j] * tier_cost * (shard_dim / dim)
                )
        else:  # twrw: coverage prefixes at tier bounds and cut points
            cuts = np.asarray(strat.row_cuts, dtype=np.int64)
            cov_cuts = coverage_of_rows_many(profile[j].cdf, cuts)
            covb = np.concatenate(([0.0], cov[:, j]))
            covc = np.concatenate(([0.0], cov_cuts, [cov[-1, j]]))
            cells = np.maximum(
                0.0,
                np.minimum(covb[1:, None], covc[None, 1:])
                - np.maximum(covb[:-1, None], covc[None, :-1]),
            )  # (tiers, shards)
            for s, device in enumerate(strat.devices):
                costs[device] += table_weight[j] * float(
                    cells[:, s] @ inv_bw[:num_tiers]
                )
    return costs * 1e3
