"""Analytic plan evaluation under the MILP's cost model.

Computes, for any sharding plan, the expected per-device embedding cost
(Constraints 11-12): per-table expected accesses split across tiers by
the profiled frequency CDF and charged at tier bandwidths.  Used to
compare candidate plans (MILP incumbent vs fast heuristic, strategy
candidates), to stamp every planner's estimate, to cross-check measured
times, and by the ablation benches.

One evaluator, :func:`expected_device_costs_ms_many`, scores a whole
population of plans, plain and strategy plans alike, in one batched
pass.  Each plan expands into its physical shards
(:meth:`~repro.core.plan.ShardingPlan.shards`); a shard's tier cells
are the :func:`~repro.core.plan.crossing_cells` of the table's tier
coverage prefix with the coverage at its rank range, and its byte
share is its dim over the table's.

Every coverage the evaluator reads, at tier boundaries and at shard
edges alike, is one gather over the profile's coverage stack
(:meth:`~repro.stats.profiler.ModelProfile.coverage_of_rows_at`).
Shard costs pool into per-device totals with one ``bincount``.
:func:`expected_device_costs_ms` and :func:`expected_max_cost_ms` are
its one-plan calls.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import ShardingPlan, crossing_cells
from repro.memory.topology import SystemTopology


def _tier_count(plans, num_tiers: int) -> int:
    """The plans' one tier count, at most the topology's.

    A split listing more tiers than the topology has would crash on the
    bandwidth lookup or, worse, charge the extra tier nothing (cold rows
    whose coverage already saturated), understating the plan's cost.
    """
    counts = {len(p.rows_per_tier) for plan in plans for p in plan}
    if len(counts) > 1:
        raise ValueError(
            "every placement of every plan must list the same number of "
            "tiers"
        )
    (count,) = counts
    if count > num_tiers:
        raise ValueError(
            f"plans split tables over {count} tiers but the topology has "
            f"{num_tiers}"
        )
    return count


def expected_device_costs_ms_many(
    plans,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
    use_coverage: bool = True,
    use_pooling: bool = True,
) -> np.ndarray:
    """Expected per-device costs for many plans in one shot.

    Args:
        plans: candidate :class:`ShardingPlan` objects over the same
            model, with or without ``table_strategies``; every
            placement must list the same number of tiers, no more than
            the topology has.

    Returns:
        ``(len(plans), topology.num_devices)`` array of expected
        per-iteration milliseconds.
    """
    plans = list(plans)
    num_devices = topology.num_devices
    if not plans:
        return np.zeros((0, num_devices))
    num_tiers = _tier_count(plans, topology.num_tiers)
    num_plans, num_tables = len(plans), model.num_tables
    rows = np.array(
        [[p.rows_per_tier for p in plan] for plan in plans], dtype=np.int64
    )
    # (plans, tiers, tables) cumulative tier boundaries in rank space.
    bounds = np.moveaxis(np.cumsum(rows, axis=2), 2, 1)
    cov = profile.coverage_of_rows_at(np.arange(num_tables), bounds)
    coverage = profile.coverage if use_coverage else 1.0
    pooling = profile.avg_pooling if use_pooling else 1.0
    table_weight = np.where(
        profile.total_accesses > 0,
        coverage * pooling * batch_size * model.row_bytes,
        0.0,
    )

    # Every plan's shards, plan after plan; ``owner`` indexes each
    # shard's (plan, table) coverage column.
    shards = [plan.shards(model) for plan in plans]
    table = np.concatenate([s.table for s in shards])
    device = np.concatenate([s.device for s in shards])
    plan_of = np.repeat(np.arange(num_plans), [s.table.size for s in shards])
    owner = plan_of * num_tables + table

    def edge_coverage(ranks, open_end):
        """Coverage below each shard edge; an edge at either end of the
        rank line clips nothing."""
        out = np.full(ranks.size, open_end)
        inner = np.flatnonzero((ranks > 0) & (ranks < model.num_rows[table]))
        out[inner] = profile.coverage_of_rows_at(table[inner], ranks[inner])
        return out

    # (tiers, shards): tier-major, so each shard's dot below reads a
    # strided column exactly as a per-table ``frac[:, j] @ inv_bw``.
    cov_prefix = np.concatenate(
        (np.zeros((num_plans, 1, num_tables)), cov), axis=1
    )
    cells = crossing_cells(
        cov_prefix.transpose(1, 0, 2).reshape(num_tiers + 1, -1)[:, owner],
        edge_coverage(np.concatenate([s.rank_lo for s in shards]), -np.inf),
        edge_coverage(np.concatenate([s.rank_hi for s in shards]), np.inf),
    )
    share = np.concatenate([s.dim for s in shards]) / model.dims[table]
    inv_bw = np.array([1.0 / tier.bandwidth for tier in topology.tiers])
    tier_cost = np.vecdot(cells.T, inv_bw[:num_tiers])
    shard_cost = table_weight[table] * tier_cost * share
    costs = np.bincount(
        plan_of * num_devices + device,
        weights=shard_cost,
        minlength=num_plans * num_devices,
    ).reshape(num_plans, num_devices)
    return costs * 1e3


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
    return expected_device_costs_ms_many(
        [plan], model, profile, topology, batch_size,
        use_coverage=use_coverage, use_pooling=use_pooling,
    )[0]


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


def stamp_estimated_costs(
    plan: ShardingPlan,
    model,
    profile,
    topology: SystemTopology,
    batch_size: int,
) -> ShardingPlan:
    """Record a plan's expected costs in its metadata, in one place.

    Every sharder returns its plan through here.  Stamps
    ``estimated_device_costs_ms``, ``estimated_max_cost_ms``, and
    ``estimated_cost_batch_size`` (the batch size the estimate was
    computed at — the cost model is linear in it, so consumers rescale
    before comparing stamps made at different batch sizes).
    """
    costs = expected_device_costs_ms_many(
        [plan], model, profile, topology, batch_size
    )[0]
    plan.metadata["estimated_device_costs_ms"] = [float(c) for c in costs]
    plan.metadata["estimated_max_cost_ms"] = float(costs.max())
    plan.metadata["estimated_cost_batch_size"] = int(batch_size)
    return plan
