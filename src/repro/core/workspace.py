"""Planner workspace: the one planner-input format.

The planner's inputs are pure statistics (Section 4.2): per-table ICDF
grids, marginal densities and row geometry.  A
:class:`PlannerWorkspace` stacks them into arrays built once per
profile, so drift replans and sweep points do not pay the per-table
Python loops again.  Every sharder reads them: the fast sharder, the
multi-tier greedy, the MILP (:func:`~repro.core.formulation.build_milp`
builds its model from them) and both MILP extractions.  It holds:

* the sampled ICDF as dense ``(tables, steps + 1)`` grids — fractional
  rows (one vectorized CDF query per table,
  :meth:`~repro.stats.cdf.FrequencyCDF.fractional_rows_for_coverage_many`)
  and their ceil'd integer row counts;
* marginal matrices over ``(tables, steps)``: coverage gained and rows
  / bytes spent per ICDF step, the raw material of the waterfill's
  marginal-density selection;
* per-table scalars (row bytes, hash size, live rows, coverage,
  pooling, access totals) as flat vectors.

Per-row statistics are not copied here: coverage prefixes and ranked
counts belong to the profile
(:class:`~repro.stats.profiler.ModelProfile`), which the evaluator and
replica selection read directly.

The workspace is reused across sharder calls, warm-started drift
replans (:meth:`refresh` refills the buffers in place from a new
observed profile — no reallocation), and the :func:`shard_sweep` grids
behind ``repro plan --sweep``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.plan import PlanError
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology


class PlannerWorkspace:
    """Stacked planner statistics for one (model, profile, steps) triple.

    Args:
        model: the model spec being sharded.
        profile: per-table statistics (:class:`~repro.stats.profiler.ModelProfile`).
        steps: ICDF discretization steps (the paper uses 100).
    """

    def __init__(self, model, profile, steps: int = 100):
        if len(profile) != model.num_tables:
            raise ValueError(
                f"profile has {len(profile)} tables, model has "
                f"{model.num_tables}"
            )
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.model = model
        self.steps = int(steps)
        self.num_tables = model.num_tables
        T, S = self.num_tables, self.steps

        # Geometry is fixed by the model; only the statistics refresh.
        self.row_bytes = model.row_bytes
        self._tier_row_bytes_cache: dict[str, np.ndarray] = {}
        self.hash_sizes = model.num_rows
        self.total_bytes = self.hash_sizes * self.row_bytes

        # The sampled coverage fractions are one shared uniform grid.
        self.fractions = np.linspace(0.0, 1.0, S + 1)
        self.d_frac = np.diff(self.fractions)

        self.frac_rows = np.empty((T, S + 1), dtype=np.float64)
        self.grid_rows = np.empty((T, S + 1), dtype=np.int64)
        self.d_grid_rows = np.empty((T, S), dtype=np.int64)
        self.live_rows = np.empty(T, dtype=np.int64)
        self.total_accesses = np.empty(T, dtype=np.float64)
        self.coverage = np.empty(T, dtype=np.float64)
        self.avg_pooling = np.empty(T, dtype=np.float64)
        self.refresh(profile)

    # ------------------------------------------------------------------
    def refresh(self, profile) -> None:
        """Refill every statistics buffer in place from ``profile``.

        The model geometry (table count, hash sizes, row bytes) must
        match the workspace's; only the profiled statistics change.
        Reusing the allocated buffers is what keeps drift replans cheap
        — the serving layer calls this once per replan.
        """
        if len(profile) != self.num_tables:
            raise ValueError(
                f"profile has {len(profile)} tables, workspace holds "
                f"{self.num_tables}"
            )
        for j, stats in enumerate(profile):
            if stats.hash_size != self.hash_sizes[j]:
                raise ValueError(
                    f"table {j}: profile hash size {stats.hash_size} != "
                    f"workspace {self.hash_sizes[j]}"
                )
            cdf = stats.cdf
            self.frac_rows[j] = cdf.fractional_rows_for_coverage_many(
                self.fractions
            )
            self.live_rows[j] = cdf.live_rows
        self.total_accesses[...] = profile.total_accesses
        self.coverage[...] = profile.coverage
        self.avg_pooling[...] = profile.avg_pooling
        # Integer grid rows exactly as every scalar consumer rounds
        # them: ceil(rows - 1e-9).
        self.grid_rows[...] = np.ceil(self.frac_rows - 1e-9)
        self.d_grid_rows[...] = self.grid_rows[:, 1:] - self.grid_rows[:, :-1]
        self.live_bytes = self.live_rows * self.row_bytes
        self._profile = profile

    @property
    def profile(self):
        """The profile the buffers were last refreshed from."""
        return self._profile

    def tier_row_bytes(self, precision: str) -> np.ndarray:
        """Per-table row bytes when stored at ``precision``.

        The vectorized twin of
        :func:`~repro.memory.precision.quantized_row_bytes` — ``fp32``
        returns the raw :attr:`row_bytes` array, keeping the default
        ladder's byte math (and therefore its plans) bit-identical to
        the pre-precision planner.  Cached per precision: geometry is
        fixed for the workspace's lifetime.
        """
        cached = self._tier_row_bytes_cache.get(precision)
        if cached is None:
            from repro.memory.precision import PRECISIONS, validate_precision

            validate_precision(precision)
            if precision == "fp32":
                cached = self.row_bytes
            else:
                bits, overhead = PRECISIONS[precision]
                dim = self.model.dims
                cached = (dim * bits + 7) // 8 + overhead
            self._tier_row_bytes_cache[precision] = cached
        return cached


def sharder_workspace(
    model, profile, steps: int, workspace: PlannerWorkspace | None = None
) -> PlannerWorkspace:
    """The workspace a sharder's ``shard`` plans from.

    The sharder protocol's ``workspace`` keyword, when given, must have
    sampled the sharder's ICDF ``steps``; otherwise a fresh workspace
    is built for this call.
    """
    if workspace is None:
        return PlannerWorkspace(model, profile, steps=steps)
    if workspace.steps != steps:
        raise ValueError(
            f"workspace sampled {workspace.steps} ICDF steps, "
            f"sharder expects {steps}"
        )
    return workspace


def _scale_hbm(topology: SystemTopology, scale: float) -> SystemTopology:
    """A copy of ``topology`` with the HBM tier's capacity scaled."""
    hbm = topology.tiers[0]
    scaled = MemoryTier(
        name=hbm.name,
        capacity_bytes=int(round(hbm.capacity_bytes * scale)),
        bandwidth=hbm.bandwidth,
    )
    return SystemTopology(
        num_devices=topology.num_devices,
        tiers=(scaled,) + topology.tiers[1:],
    )


def validate_scale_grid(values, name: str, allow_zero: bool = False):
    """Up-front validation of a numeric sweep grid.

    Every point must be finite and positive (or zero, for budgets where
    "none" is a legitimate point).  Raises :class:`PlanError` naming the
    offending point — the waterfill's own failure modes on a bad scale
    (negative capacities, NaN marginal densities) surface deep inside
    the solve with no grid context.
    """
    checked = []
    for value in values:
        scale = float(value)
        ok = math.isfinite(scale) and (
            scale > 0 or (allow_zero and scale == 0)
        )
        if not ok:
            requirement = ">= 0" if allow_zero else "> 0"
            raise PlanError(
                f"sweep point {name}={scale:g}: grid values must be "
                f"finite and {requirement}"
            )
        checked.append(scale)
    return checked


def shard_sweep(
    workspace: PlannerWorkspace,
    *,
    sharder,
    topologies=None,
    budgets=None,
    replicate_gib=None,
    strategies=None,
    precisions=None,
    base_topology: SystemTopology | None = None,
    labels=None,
    replicate_scale: float = 1.0,
):
    """Shard one profile across a grid of topologies or budgets.

    The grid reuses ``workspace`` for every point, so a sweep costs one
    statistics build plus one vectorized solve per point — the access
    pattern behind Figure 12/13-style studies and ``repro plan --sweep``.

    Args:
        workspace: the profile's :class:`PlannerWorkspace`.
        sharder: a :class:`~repro.core.fast.RecShardFastSharder` or
            :class:`~repro.core.multitier.MultiTierSharder` (or any
            object exposing ``shard_from_workspace``).
        topologies: explicit grid of :class:`SystemTopology` points
            (mutually exclusive with the other grids).  Points may
            differ in tier count — the tier-count scaling study of
            Section 4.4.
        budgets: HBM capacity scale factors applied to
            ``base_topology``'s first tier.
        replicate_gib: per-device hot-row replica budgets in GiB — each
            point carves the budget from ``base_topology``'s fastest
            tier, shards the remainder, and spends the carved bytes on
            replicas (:func:`~repro.core.replicate.plan_with_replication`),
            yielding plans with ``replica_rows`` set.
        strategies: grid of per-table strategy sets — each point is one
            token (``row`` / ``table`` / ``column`` / ``twrw`` /
            ``auto``) handed to
            :func:`~repro.core.strategies.plan_with_strategies`,
            yielding plans with ``table_strategies`` set.
        precisions: grid of cold-tier storage precisions — each point
            is one precision name (``fp32`` / ``fp16`` / ``int8`` /
            ``int4``) applied to every tier of ``base_topology`` except
            the fastest, which keeps its own precision.  ``fp32`` is
            the unquantized baseline point.
        base_topology: required with ``budgets`` / ``replicate_gib`` /
            ``strategies`` / ``precisions``.
        labels: optional explicit ``sweep_key`` per ``topologies`` point
            (e.g. ``tiers=3``); defaults to ``gpus=<n>``.
        replicate_scale: capacity scale applied to the GiB budgets (the
            same shrink factor every other capacity knob uses).

    Returns:
        One plan per grid point, each stamped with a ``sweep_key`` in
        its metadata (``gpus=<n>`` / ``hbm_scale=<s>`` /
        ``replicate_gib=<g>`` / a ``labels`` entry).
    """
    grids = [
        g is not None
        for g in (topologies, budgets, replicate_gib, strategies, precisions)
    ]
    if sum(grids) != 1:
        raise ValueError(
            "provide exactly one of topologies=, budgets=, "
            "replicate_gib=, strategies=, or precisions="
        )
    # A sweep shards straight from the workspace: check its ICDF steps.
    sharder_workspace(
        workspace.model, workspace.profile, sharder.steps, workspace
    )
    if strategies is not None:
        from repro.core.strategies import plan_with_strategies

        if base_topology is None:
            raise ValueError("strategies= requires base_topology=")
        if labels is not None:
            raise ValueError("labels= applies to topologies= grids")
        plans = []
        for token in strategies:
            try:
                plan = plan_with_strategies(
                    sharder, workspace.model, workspace.profile,
                    base_topology, strategies=token, workspace=workspace,
                )
            except (PlanError, ValueError) as error:
                raise PlanError(
                    f"sweep point strategies={token}: {error}"
                ) from error
            plan.metadata["sweep_key"] = f"strategies={token}"
            plans.append(plan)
        return plans
    if replicate_gib is not None:
        from repro.core.replicate import (
            ReplicationPolicy,
            plan_with_replication,
        )
        from repro.memory.presets import GIB

        if base_topology is None:
            raise ValueError("replicate_gib= requires base_topology=")
        if labels is not None:
            raise ValueError("labels= applies to topologies= grids")
        replicate_gib = validate_scale_grid(
            replicate_gib, "replicate_gib", allow_zero=True
        )
        plans = []
        for gib in replicate_gib:
            policy = ReplicationPolicy(
                capacity_bytes=int(gib * GIB * replicate_scale)
            )
            try:
                plan = plan_with_replication(
                    sharder, workspace.model, workspace.profile,
                    base_topology, policy, workspace=workspace,
                )
            except PlanError as error:
                raise PlanError(
                    f"sweep point replicate_gib={gib:g}: {error}"
                ) from error
            plan.metadata["sweep_key"] = f"replicate_gib={gib:g}"
            plans.append(plan)
        return plans
    if precisions is not None:
        from repro.memory.precision import validate_precision

        if base_topology is None:
            raise ValueError("precisions= requires base_topology=")
        if labels is not None:
            raise ValueError("labels= applies to topologies= grids")
        cold = base_topology.tier_names[1:]
        points = []
        for token in precisions:
            try:
                validate_precision(token)
            except ValueError as error:
                raise PlanError(
                    f"sweep point precisions={token}: {error}"
                ) from error
            point = (
                base_topology.with_precisions(dict.fromkeys(cold, token))
                if cold
                else base_topology
            )
            points.append((f"precisions={token}", point))
    elif budgets is not None:
        if base_topology is None:
            raise ValueError("budgets= requires base_topology=")
        if labels is not None:
            raise ValueError("labels= applies to topologies= grids")
        budgets = validate_scale_grid(budgets, "hbm_scale")
        points = [
            (f"hbm_scale={scale:g}", _scale_hbm(base_topology, scale))
            for scale in budgets
        ]
    else:
        topologies = list(topologies)
        if labels is None:
            labels = [f"gpus={t.num_devices}" for t in topologies]
        elif len(labels) != len(topologies):
            raise ValueError(
                f"{len(labels)} labels for {len(topologies)} topologies"
            )
        points = list(zip(labels, topologies))
    plans = []
    for key, topology in points:
        try:
            plan = sharder.shard_from_workspace(workspace, topology)
        except PlanError as error:
            raise PlanError(f"sweep point {key}: {error}") from error
        plan.metadata["sweep_key"] = key
        plans.append(plan)
    return plans
