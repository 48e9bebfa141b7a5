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

Both reuse the shipped LPT assignment, split resizing and plan
emission.  Their ``shard`` takes no ``workspace``, so a server that
sniffs the signature builds none for them.
"""

from __future__ import annotations

import heapq
import math

from repro.core.evaluate import stamp_estimated_costs
from repro.core.fast import RecShardFastSharder, _TableState
from repro.core.formulation import RecShardInputs
from repro.core.multitier import MultiTierSharder
from repro.core.plan import ShardingPlan
from repro.memory.precision import quantized_row_bytes
from repro.memory.topology import SystemTopology

_MS = 1e3


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
    ) -> ShardingPlan:
        if topology.num_tiers != 2:
            raise ValueError("RecShardFastSharder targets two-tier topologies")
        inputs = RecShardInputs.from_profile(model, profile, steps=self.steps)
        inv_bw_hbm = 1.0 / topology.hbm.bandwidth
        inv_bw_uvm = 1.0 / topology.uvm.bandwidth
        states = [
            _StepState(
                j, t, self.batch_size, inv_bw_hbm, inv_bw_uvm,
                self.use_coverage, self.use_pooling, self.reclaim_dead,
                hbm_row_bytes=topology.hbm.row_bytes_for(t.row_bytes),
                host_row_bytes=topology.uvm.row_bytes_for(t.row_bytes),
            )
            for j, t in enumerate(inputs.tables)
        ]
        hbm_budget = topology.hbm.capacity_bytes * topology.num_devices
        preferred = None
        if warm_start is not None and len(warm_start) == len(states):
            hbm_budget = self._warm_start_splits(states, warm_start, hbm_budget)
            preferred = [warm_start[j].device for j in range(len(states))]
        # Global waterfill: the aggregate HBM budget on the densest steps.
        self._drain({s.index: s for s in states}, hbm_budget, True)
        device_of, loads, hbm_free, host_free = self._assign(
            states, topology, preferred=preferred
        )
        self._refill(states, device_of, hbm_free)
        loads = self._recompute_loads(states, device_of, topology.num_devices)
        self._local_search(states, device_of, loads, hbm_free, host_free)
        # Moves free HBM behind them; one more refill converts it into
        # additional hot rows.
        self._refill(states, device_of, hbm_free)
        return self._emit_plan(states, device_of, topology, inputs, preferred)

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
    ) -> ShardingPlan:
        inputs = RecShardInputs.from_profile(model, profile, steps=self.steps)
        plan = self._shard_greedy(inputs, topology, warm_start=warm_start)
        return stamp_estimated_costs(plan, model, profile, topology, self.batch_size)

    def _shard_greedy(
        self, inputs: RecShardInputs, topology,
        warm_start: ShardingPlan | None = None,
    ) -> ShardingPlan:
        num_tiers = topology.num_tiers
        inv_bw = [1.0 / t.bandwidth for t in topology.tiers]
        weights = [
            t.coverage * t.avg_pooling * t.row_bytes * self.batch_size * _MS
            for t in inputs.tables
        ]
        # boundary_steps[j][t] = ICDF step index of boundary t (cumulative).
        boundary_steps = [[0] * (num_tiers - 1) for _ in inputs.tables]

        for tier in range(num_tiers - 1):
            budget = topology.tiers[tier].capacity_bytes * topology.num_devices
            tier_rb = [
                quantized_row_bytes(t.row_bytes, topology.tiers[tier].precision)
                for t in inputs.tables
            ]
            # Bytes already committed to this tier is zero: boundaries are
            # cumulative, so tier t holds rows between boundaries t-1 and t.
            heap: list[tuple[float, int]] = []

            def step_bytes(j: int, step: int) -> int:
                icdf = inputs.tables[j].icdf
                d_rows = math.ceil(icdf.rows[step + 1] - 1e-9) - math.ceil(
                    icdf.rows[step] - 1e-9
                )
                return d_rows * tier_rb[j]

            def push(j: int) -> None:
                icdf = inputs.tables[j].icdf
                step = boundary_steps[j][tier]
                if step >= icdf.steps or inputs.tables[j].total_accesses <= 0:
                    return
                d_frac = float(icdf.fractions[step + 1] - icdf.fractions[step])
                d_bytes = step_bytes(j, step)
                gain = weights[j] * d_frac * (inv_bw[tier + 1] - inv_bw[tier])
                density = gain / d_bytes if d_bytes else float("inf")
                heapq.heappush(heap, (-density, j))

            for j in range(len(inputs.tables)):
                boundary_steps[j][tier] = (
                    boundary_steps[j][tier - 1] if tier > 0 else 0
                )
                push(j)
            remaining = budget
            while heap and remaining > 0:
                _, j = heapq.heappop(heap)
                step = boundary_steps[j][tier]
                if step >= inputs.tables[j].icdf.steps:
                    continue
                d_bytes = step_bytes(j, step)
                if d_bytes > remaining:
                    continue
                boundary_steps[j][tier] = step + 1
                remaining -= d_bytes
                push(j)

        return self._finish_greedy(inputs, topology, boundary_steps, warm_start)
