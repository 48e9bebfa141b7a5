"""Per-table sharding-strategy enumeration (TorchRec's strategy menu).

RecShard's placement so far is a single shape — rank-prefix row ranges
per tier, whole table homed on one device ("row-wise" here).  The cost
model is strategy-agnostic, though, and TorchRec's planner auto-picks
among table-wise, row-wise, column-wise, and table-wise-row-wise
sharding per table.  This module adds that menu on top of the existing
planner:

* **row** — today's shape: the ICDF waterfill's per-tier row split,
  whole table on one device.
* **table** — the whole table unsplit (every row in one tier) on one
  device; useful when a busy device's table spills to a cold tier but
  another device has fast-tier headroom.
* **column** — the embedding dim split into contiguous column shards on
  distinct devices.  Every lookup touches every shard, so each shard
  carries the table's full per-tier *row* split but only its dim share
  of the bytes; the bottleneck device's traffic divides by the shard
  count while total bytes are conserved.
* **twrw** (table-wise-row-wise) — contiguous frequency-rank ranges on
  distinct devices (full dim each).  Cut points are chosen on the
  profiled coverage grid so each shard serves an equal share of the
  table's expected accesses.

A strategy plan is a :class:`~repro.core.plan.ShardingPlan` whose
``table_strategies`` holds one :class:`~repro.core.plan.TableStrategy`
per table; its one :meth:`~repro.core.plan.ShardingPlan.validate`
charges capacity over the *physical* shards.  The planner entry point
:func:`plan_with_strategies` starts from the fast sharder's row-wise
plan and greedily refines the makespan: each round it takes the busiest
device's costliest tables, enumerates candidate strategies for them,
scores every candidate in one call to the one evaluator,
:func:`~repro.core.evaluate.expected_device_costs_ms_many` (which
expands column and twrw tables into per-device shards), and keeps the
best improvement.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.evaluate import (
    expected_device_costs_ms_many,
    stamp_estimated_costs,
)
from repro.core.plan import (
    STRATEGY_KINDS,
    PlanError,
    ShardingPlan,
    TablePlacement,
    TableStrategy,
)
from repro.core.workspace import PlannerWorkspace, sharder_workspace
from repro.memory.topology import SystemTopology


def resolve_strategy_kinds(tokens) -> tuple[str, ...]:
    """Expand/validate a strategy token list (``auto`` = all kinds)."""
    if isinstance(tokens, str):
        tokens = [tokens]
    kinds: list[str] = []
    for token in tokens:
        token = token.strip()
        if token == "auto":
            for kind in STRATEGY_KINDS:
                if kind not in kinds:
                    kinds.append(kind)
        elif token in STRATEGY_KINDS:
            if token not in kinds:
                kinds.append(token)
        else:
            raise ValueError(
                f"unknown sharding strategy {token!r}; expected one of "
                f"{', '.join(STRATEGY_KINDS)} or auto"
            )
    if not kinds:
        raise ValueError("empty strategy list")
    if "row" not in kinds:
        # Row-wise is the universal fallback — every table must have a
        # feasible strategy, and row is the only kind that always is.
        kinds.append("row")
    return tuple(kinds)


def proportional_split(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder integer split of counts proportional to weights.

    ``counts`` is ``(rows,)`` and ``weights`` ``(shards,)``, or
    ``(rows, shards)`` for a weight vector per row (zero weights pad
    rows with fewer shards and receive nothing); the result is
    ``(rows, shards)`` with each row summing exactly to its count,
    shares proportional to the weights, remainders resolved largest
    fractional part first (ties to the lowest shard index).  This is how
    a column-sharded table's *access counts* are attributed to its shard
    devices: byte traffic is exact per shard (each shard moves its dim
    share), while lookup counts stay conserved per table — the invariant
    the property tests pin.
    """
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    weights = np.asarray(weights, dtype=np.int64)
    total = weights.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("weights must sum to a positive total")
    prod = counts[:, None] * weights
    base = prod // total
    remainder = prod % total
    missing = counts - base.sum(axis=1)
    order = np.argsort(-remainder, axis=1, kind="stable")
    bump = np.arange(prod.shape[1])[None, :] < missing[:, None]
    base[np.arange(counts.size)[:, None], order] += bump
    return base


# ----------------------------------------------------------------------
# Candidate enumeration + greedy refinement
# ----------------------------------------------------------------------
def _split_dims(dim: int, shards: int) -> tuple[int, ...]:
    """Near-equal contiguous column shard dims (all >= 1)."""
    q, r = divmod(dim, shards)
    return tuple(q + 1 if i < r else q for i in range(shards))


def _equal_access_cuts(
    workspace: PlannerWorkspace, table_index: int, shards: int
) -> tuple[int, ...] | None:
    """Interior rank cuts putting ~1/shards of expected accesses per
    shard, read off the workspace's integer ICDF grid."""
    grid = workspace.grid_rows[table_index]
    steps = workspace.steps
    num_rows = int(workspace.hash_sizes[table_index])
    cuts = []
    for i in range(1, shards):
        cut = int(grid[round(steps * i / shards)])
        cut = min(max(cut, 1), num_rows - 1)
        cuts.append(cut)
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        return None
    return tuple(cuts)


def _candidates_for_table(
    current: ShardingPlan,
    table_index: int,
    kinds,
    costs: np.ndarray,
    model,
    topology: SystemTopology,
    workspace: PlannerWorkspace,
    max_shards: int,
) -> list[ShardingPlan]:
    """Feasible alternative strategy plans differing only at one table."""
    placement = current[table_index]
    table = model.tables[table_index]
    order = np.argsort(costs, kind="stable")
    candidates: list[ShardingPlan] = []

    def with_table(new_placement, new_strategy):
        placements = list(current.placements)
        placements[table_index] = new_placement
        strategies = list(current.table_strategies)
        strategies[table_index] = new_strategy
        candidate = dataclasses.replace(
            current, placements=placements, table_strategies=strategies
        )
        try:
            candidate.validate(model, topology)
        except PlanError:
            return
        candidates.append(candidate)

    shard_counts = sorted(
        {
            s
            for s in (2, min(max_shards, topology.num_devices))
            if 2 <= s <= topology.num_devices
        }
    )
    if "table" in kinds:
        # Whole table unsplit in the fastest tier, on each of the two
        # least-loaded devices (validation filters infeasible homes).
        whole = (table.num_rows,) + (0,) * (topology.num_tiers - 1)
        for device in order[:2]:
            with_table(
                TablePlacement(table_index, int(device), whole),
                TableStrategy("table"),
            )
    if "column" in kinds:
        for shards in shard_counts:
            if table.dim < shards:
                continue
            devices = tuple(int(d) for d in order[:shards])
            with_table(
                placement,
                TableStrategy(
                    "column", devices=devices, dims=_split_dims(table.dim, shards)
                ),
            )
    if "twrw" in kinds:
        for shards in shard_counts:
            if table.num_rows < shards:
                continue
            cuts = _equal_access_cuts(workspace, table_index, shards)
            if cuts is None:
                continue
            devices = tuple(int(d) for d in order[:shards])
            with_table(
                placement,
                TableStrategy("twrw", devices=devices, row_cuts=cuts),
            )
    return candidates


def plan_with_strategies(
    sharder,
    model,
    profile,
    topology: SystemTopology,
    strategies=("auto",),
    batch_size: int | None = None,
    workspace: PlannerWorkspace | None = None,
    warm_start=None,
    max_shards: int = 4,
    rounds: int = 16,
    tables_per_round: int = 3,
) -> ShardingPlan:
    """Shard with per-table strategy enumeration.

    Starts from ``sharder``'s row-wise plan, then greedily refines the
    expected makespan: each round enumerates candidate strategies
    (``table`` moves, ``column`` dim splits, ``twrw`` rank splits) for
    the busiest device's costliest tables, scores every candidate with
    the batched evaluator, and applies the best strict improvement.

    Args:
        sharder: a sharder exposing ``shard_from_workspace`` (the fast
            path); its ``batch_size`` is the default scoring batch.
        strategies: strategy tokens (``auto`` expands to all kinds);
            ``row`` is always available as the per-table fallback.
        max_shards: column/twrw split width cap.
        rounds: refinement round cap (each applies at most one change).

    Returns:
        A :class:`~repro.core.plan.ShardingPlan` with
        ``table_strategies`` set and metadata stamped: per-kind counts,
        estimated device costs, and the row-only baseline makespan.
    """
    kinds = resolve_strategy_kinds(strategies)
    if batch_size is None:
        batch_size = sharder.batch_size
    workspace = sharder_workspace(model, profile, sharder.steps, workspace)
    base = sharder.shard_from_workspace(workspace, topology, warm_start)
    current = dataclasses.replace(
        base, table_strategies=(TableStrategy("row"),) * len(base)
    )
    costs = expected_device_costs_ms_many(
        [current], model, profile, topology, batch_size
    )[0]
    row_only_max = float(costs.max())
    if set(kinds) != {"row"}:
        for _ in range(rounds):
            busiest = int(np.argmax(costs))
            makespan = float(costs[busiest])
            on_busiest = [
                j
                for j, (p, s) in enumerate(
                    zip(current.placements, current.table_strategies)
                )
                if s.kind in ("row", "table") and p.device == busiest
            ]
            if not on_busiest:
                break
            # Costliest tables first: a table's device contribution is
            # proportional to its expected per-lookup byte weight.
            weights = np.where(
                workspace.total_accesses > 0,
                workspace.coverage
                * workspace.avg_pooling
                * workspace.row_bytes,
                0.0,
            )
            on_busiest.sort(key=lambda j: -weights[j])
            candidates: list[ShardingPlan] = []
            for j in on_busiest[:tables_per_round]:
                candidates.extend(
                    _candidates_for_table(
                        current, j, kinds, costs, model, topology,
                        workspace, max_shards,
                    )
                )
            if not candidates:
                break
            cand_costs = expected_device_costs_ms_many(
                candidates, model, profile, topology, batch_size
            )
            best = int(np.argmin(cand_costs.max(axis=1)))
            best_max = float(cand_costs[best].max())
            if best_max >= makespan * (1.0 - 1e-9):
                break
            current = candidates[best]
            costs = cand_costs[best]
    current.metadata["strategies"] = current.strategy_counts()
    current.metadata["solver"] = "strategies"
    current.metadata["row_only_max_cost_ms"] = row_only_max
    return stamp_estimated_costs(
        current, model, profile, topology, batch_size
    )
