"""Analytic plan evaluation under the MILP's cost model.

Computes, for any sharding plan, the expected per-device embedding cost
(Constraints 11-12): per-table expected accesses split across tiers by
the profiled frequency CDF and charged at tier bandwidths.  Used to
compare candidate plans (MILP incumbent vs fast heuristic), to
cross-check measured times, and by the ablation benches.

Two entry points share the model:

* :func:`expected_device_costs_ms` — one plan, accumulated placement by
  placement (tier coverage via the vectorized CDF query); the reference
  the batched evaluator is tested against.
* :func:`expected_device_costs_ms_many` — a whole population of
  candidate plans in one shot: ``rows_per_tier`` stacked into a
  ``(plans, tables, tiers)`` tensor, coverage resolved with one flat
  gather over the workspace's coverage-prefix arrays, and per-device
  totals scattered with a single ``bincount``.  This is what plan
  tie-breaks (MILP vs fast), sweeps, and the Table 6 ablation route
  through.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import ShardingPlan
from repro.core.workspace import PlannerWorkspace
from repro.memory.topology import SystemTopology


def _check_tiers(placement, num_tiers: int) -> None:
    """Reject splits listing more tiers than the topology has.

    Without the guard a multi-tier plan evaluated under a two-tier
    topology either crashes on the bandwidth lookup (hot rows in the
    extra tier) or — worse — silently charges the extra tier nothing
    (cold rows whose coverage already saturated), understating the
    plan's cost.
    """
    if len(placement.rows_per_tier) > num_tiers:
        raise ValueError(
            f"table {placement.table_index}: split lists "
            f"{len(placement.rows_per_tier)} tiers but the topology has "
            f"{num_tiers}"
        )


def expected_device_costs_ms(
    plan: ShardingPlan,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
    use_coverage: bool = True,
    use_pooling: bool = True,
) -> np.ndarray:
    """Expected per-device per-iteration embedding cost in milliseconds."""
    costs = np.zeros(topology.num_devices)
    inv_bw = np.array([1.0 / tier.bandwidth for tier in topology.tiers])
    for placement in plan:
        _check_tiers(placement, topology.num_tiers)
        stats = profile[placement.table_index]
        table = model.tables[placement.table_index]
        if stats.total_accesses <= 0:
            continue
        coverage = stats.coverage if use_coverage else 1.0
        pooling = stats.avg_pooling if use_pooling else 1.0
        expected_accesses = coverage * pooling * batch_size
        cum_rows = np.cumsum(placement.rows_per_tier)
        cov = stats.cdf.coverage_of_rows_many(cum_rows)
        frac = np.diff(cov, prepend=0.0)
        costs[placement.device] += expected_accesses * table.row_bytes * (
            frac @ inv_bw[: frac.size]
        )
    return costs * 1e3


def expected_device_costs_ms_many(
    plans,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
    use_coverage: bool = True,
    use_pooling: bool = True,
    workspace: PlannerWorkspace | None = None,
) -> np.ndarray:
    """Expected per-device costs for many plans in one shot.

    Args:
        plans: candidate :class:`ShardingPlan` objects over the same
            model; every placement must list the same number of tiers,
            no more than the topology has.  Plans with
            ``table_strategies`` are scored shard by shard
            (:func:`~repro.core.strategies.strategy_device_costs_ms`).
        workspace: optional prebuilt
            :class:`~repro.core.workspace.PlannerWorkspace` for the
            profile — reused when given (the sweep / replan path),
            built on the fly otherwise.

    Returns:
        ``(len(plans), topology.num_devices)`` array of expected
        per-iteration milliseconds.
    """
    from repro.core.strategies import strategy_device_costs_ms

    plans = list(plans)
    if not plans:
        return np.zeros((0, topology.num_devices))
    for plan in plans:
        for placement in plan:
            _check_tiers(placement, topology.num_tiers)
    if any(plan.table_strategies is not None for plan in plans):
        # Mixed populations route strategy plans through the
        # shard-aware evaluator (same cost model, per-shard device
        # attribution); plain plans keep the batched path below.
        strategy_idx = [
            i for i, plan in enumerate(plans)
            if plan.table_strategies is not None
        ]
        plain_idx = [
            i for i in range(len(plans)) if i not in set(strategy_idx)
        ]
        costs = np.zeros((len(plans), topology.num_devices))
        if plain_idx:
            costs[plain_idx] = expected_device_costs_ms_many(
                [plans[i] for i in plain_idx], model, profile, topology,
                batch_size, use_coverage=use_coverage,
                use_pooling=use_pooling, workspace=workspace,
            )
        for i in strategy_idx:
            costs[i] = strategy_device_costs_ms(
                plans[i], model, profile, topology, batch_size,
                use_coverage=use_coverage, use_pooling=use_pooling,
                workspace=workspace,
            )
        return costs
    num_tiers = len(plans[0][0].rows_per_tier)
    for plan in plans:
        if any(len(p.rows_per_tier) != num_tiers for p in plan):
            raise ValueError(
                "expected_device_costs_ms_many requires a uniform tier "
                "count across every placement of every plan"
            )
    num_tables = model.num_tables
    rows = np.array(
        [[p.rows_per_tier for p in plan] for plan in plans], dtype=np.int64
    )  # (plans, tables, tiers)
    devices = np.array(
        [[p.device for p in plan] for plan in plans], dtype=np.int64
    )  # (plans, tables)
    cum_rows = np.cumsum(rows, axis=2)
    if workspace is not None:
        # One flat gather per (plan, table, tier) query over the
        # stacked coverage prefixes; tier axis moved last-but-one so
        # the table axis lines up with the workspace layout.
        cov = workspace.coverage_of_rows_grid(
            np.moveaxis(cum_rows, 2, 1).reshape(-1, num_tables)
        ).reshape(len(plans), num_tiers, num_tables)
        total_accesses = workspace.total_accesses
        stat_coverage = workspace.coverage
        stat_pooling = workspace.avg_pooling
        row_bytes = workspace.row_bytes
    else:
        # No workspace to reuse: per-table vectorized CDF takes, no
        # stacked-buffer build for a one-off population.
        cov = np.empty((len(plans), num_tiers, num_tables))
        for j, stats in enumerate(profile):
            cov[:, :, j] = stats.cdf.coverage_of_rows_many(cum_rows[:, j, :])
        total_accesses = np.array([s.total_accesses for s in profile])
        stat_coverage = np.array([s.coverage for s in profile])
        stat_pooling = np.array([s.avg_pooling for s in profile])
        row_bytes = np.array([t.row_bytes for t in model.tables])
    frac = np.diff(cov, axis=1, prepend=0.0)
    inv_bw = np.array([1.0 / tier.bandwidth for tier in topology.tiers])
    coverage = stat_coverage if use_coverage else 1.0
    pooling = stat_pooling if use_pooling else 1.0
    expected_accesses = coverage * pooling * batch_size
    table_weight = np.where(
        total_accesses > 0,
        expected_accesses * row_bytes,
        0.0,
    )
    # (plans, tables): each table's cost on its owning device.
    table_costs = table_weight[None, :] * np.einsum(
        "pkt,k->pt", frac, inv_bw[:num_tiers]
    )
    flat_device = (
        np.arange(len(plans))[:, None] * topology.num_devices + devices
    )
    costs = np.bincount(
        flat_device.ravel(),
        weights=table_costs.ravel(),
        minlength=len(plans) * topology.num_devices,
    ).reshape(len(plans), topology.num_devices)
    return costs * 1e3


def stamp_estimated_costs(
    plan: ShardingPlan,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
    workspace: PlannerWorkspace | None = None,
) -> ShardingPlan:
    """Record a plan's expected costs in its metadata, in one place.

    Stamps ``estimated_device_costs_ms``, ``estimated_max_cost_ms``,
    and ``estimated_cost_batch_size`` (the batch size the estimate was
    computed at — the cost model is linear in it, so consumers rescale
    before comparing stamps made at different batch sizes).
    """
    costs = expected_device_costs_ms_many(
        [plan], model, profile, topology, batch_size, workspace=workspace
    )[0]
    plan.metadata["estimated_device_costs_ms"] = [float(c) for c in costs]
    plan.metadata["estimated_max_cost_ms"] = float(costs.max())
    plan.metadata["estimated_cost_batch_size"] = int(batch_size)
    return plan


def expected_max_cost_ms(
    plan: ShardingPlan,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
) -> float:
    """The plan's expected makespan — the quantity RecShard minimizes."""
    return float(
        expected_device_costs_ms(plan, model, profile, topology, batch_size).max()
    )
