"""Hot-row replication and load-balanced routing (FlexShard-style).

RecShard's CDF statistics place each table's rows by tier, but a skewed
workload still concentrates accesses on the few devices that own the
hottest tables: placement alone cannot split one table's traffic across
devices, so the access disparity the offline Table 4 comparison
quantifies shows up online as per-device load imbalance.  FlexShard
(PAPERS.md) shows the fix is orthogonal to tiering: *replicate* the
statically-hottest rows on every device and route each lookup to the
least-loaded replica.  Because RecShard already profiles per-row
expected access counts, the replica set is a pure pre-computation — no
reactive migration, no online popularity tracking.

Pieces:

* :class:`ReplicationPolicy` — a per-device byte budget to spend on
  replica copies of the globally hottest rows.
* :func:`build_replication` — greedy hottest-first selection over the
  profiled counts of fastest-tier rows, read shard by shard through
  the profile's one ranked-count gather
  (:meth:`~repro.stats.profiler.ModelProfile.ranked_counts`, the one
  the cache and staging selection reads), emitting the plan with
  ``replica_rows`` and ``replica_budget_bytes`` set.  The plan's one
  :meth:`~repro.core.plan.ShardingPlan.validate` charges every replica
  copy to the fastest tier of each device that does not hold the row
  whole.  Strategy plans compose: a twrw table's rows are held by the
  shard whose rank range contains them, a column table's by no device
  (every device stores a whole-row copy).
* :func:`plan_with_replication` — carve the replica budget out of the
  fastest tier, shard the remainder, then spend the carved bytes on
  replicas: the end-to-end path behind ``repro plan --replicate-gib``
  and the server's drift replans.

Because every sharding strategy splits rows in descending expected
frequency, "the globally hottest rows" is, per table, a *prefix of the
frequency ranking* — so the executor's replica lane is one more rank
cutoff (exactly like the shard ranges and the cache and staging
lanes), and the remap a replicated lookup resolves through is simply
``rank < replica_rows[table]``.  The routing itself lives in the
execution engine (:class:`~repro.engine.executor.ShardedExecutor`),
which keeps running per-device byte counters and sends each replicated
lookup — on whichever shard its rank falls — to the least-loaded
device.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.plan import PlanError, ShardingPlan
from repro.memory.topology import SystemTopology
from repro.stats.cdf import descending_order


@dataclass(frozen=True)
class ReplicationPolicy:
    """Per-device byte budget spent on replicas of the hottest rows.

    Attributes:
        capacity_bytes: bytes of the fastest tier, per device, reserved
            for replica copies.  Every selected row is replicated to
            every device (its home keeps the original), so a device is
            charged for each selected row it does not already own.
    """

    capacity_bytes: int

    def __post_init__(self):
        if not 0 <= self.capacity_bytes < np.inf:
            raise ValueError(
                f"replication capacity must be >= 0 and finite, "
                f"got {self.capacity_bytes}"
            )


def carve_replica_budget(
    topology: SystemTopology, policy: ReplicationPolicy
) -> SystemTopology:
    """``topology`` with the replica budget removed from the fastest tier.

    Planning on the carved topology is what guarantees the emitted base
    plan leaves exactly ``policy.capacity_bytes`` of fastest-tier
    headroom per device for the replica copies; the carved tier keeps
    every other attribute, its precision included.  With a single device
    there is nowhere to route, so the policy is inert and nothing is
    carved (selection returns an empty set for the same reason).
    """
    if policy.capacity_bytes <= 0 or topology.num_devices < 2:
        return topology
    fastest = topology.tiers[0]
    remaining = fastest.capacity_bytes - policy.capacity_bytes
    if remaining <= 0:
        raise PlanError(
            f"replica budget {policy.capacity_bytes} consumes the whole "
            f"{fastest.capacity_bytes}-byte {fastest.name} tier"
        )
    carved = dataclasses.replace(fastest, capacity_bytes=remaining)
    return dataclasses.replace(
        topology, tiers=(carved,) + topology.tiers[1:]
    )


def build_replication(
    policy: ReplicationPolicy,
    plan: ShardingPlan,
    profile,
    model,
    topology: SystemTopology,
) -> ShardingPlan:
    """Spend the replica budget on the globally hottest rows of ``plan``.

    Candidates are every live row resident on its table's fastest
    tier; they are ordered hottest-first by expected access count (one
    :func:`~repro.stats.cdf.descending_order`, ties broken by (table,
    rank), making selection fully deterministic), and the longest
    prefix whose per-device copy bytes fit the policy budget is
    admitted.  A device is charged for every admitted row it does not
    hold whole (:meth:`~repro.core.plan.ShardingPlan.shards`: the
    unsplit or twrw shard holding the row's rank; a column table's rows
    have no whole holder).  Each candidate is held by at most one of
    the ``D`` devices, so every device is charged at least ``(D-1)/D``
    of a prefix's bytes: the per-device scan stops just past
    ``budget * D / (D-1)`` bytes.
    The candidate set does not depend on the budget — which is what
    makes the selected set *monotone* in ``capacity_bytes``
    (the property test's invariant): a larger budget only ever extends
    the admitted prefix.

    Args:
        policy: the per-device byte budget.
        plan: base placement; any replica set it carries is replaced.
        profile: statistics the expected counts are read from.
        model: table geometry.
        topology: the *physical* topology (uncarved capacities).

    Returns:
        ``plan`` with ``replica_rows`` and ``replica_budget_bytes`` set
        (sharing its ``metadata`` dict).
    """
    num_tables = len(plan)
    replica_rows = np.zeros(num_tables, dtype=np.int64)
    if policy.capacity_bytes <= 0 or topology.num_devices < 2:
        # Replication needs a second device to route to.
        return _with_replicas(plan, replica_rows, policy)
    # Copies are stored at the fastest tier's precision.
    fastest = topology.tiers[0]
    row_bytes = np.array(
        [fastest.row_bytes_for(t.row_bytes) for t in model.tables],
        dtype=np.int64,
    )
    tier0_rows = np.array(
        [p.rows_per_tier[0] for p in plan], dtype=np.int64
    )
    live = np.array([stats.cdf.live_rows for stats in profile])
    # Candidates are gathered shard by shard, so each knows its holder:
    # the device of the shard holding its rank whole, none (-1) for a
    # column table.  Column shards share one rank range, gathered once.
    shards = plan.shards(model)
    distinct = np.ones(shards.table.size, dtype=bool)
    distinct[1:] = (np.diff(shards.table) != 0) | (np.diff(shards.rank_lo) != 0)
    lo = shards.rank_lo
    hi = np.where(
        distinct,
        np.minimum(shards.rank_hi, np.minimum(tier0_rows, live)[shards.table]),
        lo,
    )
    counts, tables = profile.ranked_counts(shards.table, lo, hi)
    holders = np.repeat(
        np.where(shards.dim == model.dims[shards.table], shards.device, -1),
        np.maximum(hi - lo, 0),
    )
    hot = counts > 0
    counts, tables, holders = counts[hot], tables[hot], holders[hot]
    if counts.size == 0:
        return _with_replicas(plan, replica_rows, policy)
    # Candidates arrive in (table, rank) order, so the index is the tie
    # key of the hottest-first order.
    order = descending_order(counts)
    sizes = row_bytes[tables[order]]
    total_cum = np.cumsum(sizes)
    # Every candidate has at most one holder, so the least-holding of
    # the D devices holds at most 1/D of any prefix and is charged at
    # least (D-1)/D of it: no prefix above budget * D / (D-1) bytes can
    # be admitted.  Cutting just past that bound (integer arithmetic)
    # keeps the first inadmissible prefix, so ``take`` is unchanged.
    devices = topology.num_devices
    limit = policy.capacity_bytes * devices
    bound = int(np.searchsorted(total_cum * (devices - 1), limit, "right")) + 1
    order, sizes, total_cum = order[:bound], sizes[:bound], total_cum[:bound]
    homes = holders[order]
    # Per-device copy charge of the prefix ending at candidate i:
    # every device hosts every selected row except the ones it holds
    # whole, so the binding device is the one holding the *least*
    # selected bytes.  Both terms are prefix sums, so the admission
    # check is one monotone comparison per candidate.
    min_home_cum = None
    for device in range(devices):
        cum = np.cumsum(np.where(homes == device, sizes, 0))
        min_home_cum = (
            cum if min_home_cum is None else np.minimum(min_home_cum, cum)
        )
    ok = total_cum - min_home_cum <= policy.capacity_bytes
    take = int(np.argmin(ok)) if not ok.all() else ok.size
    if take:
        replica_rows = np.bincount(
            tables[order[:take]], minlength=num_tables
        )
    return _with_replicas(plan, replica_rows, policy)


def _with_replicas(plan: ShardingPlan, replica_rows, policy) -> ShardingPlan:
    return dataclasses.replace(
        plan,
        replica_rows=replica_rows,
        replica_budget_bytes=int(policy.capacity_bytes),
    )


def plan_with_replication(
    sharder,
    model,
    profile,
    topology: SystemTopology,
    policy: ReplicationPolicy,
    workspace=None,
    warm_start=None,
) -> ShardingPlan:
    """Carve the replica budget, shard the remainder, select replicas.

    The base plan is built by ``sharder`` on a topology whose fastest
    tier is shrunk by the replica budget (so the emitted plan provably
    leaves room for the copies), then :func:`build_replication` spends
    the carved bytes on the globally hottest rows.  ``workspace`` and
    ``warm_start`` are forwarded through the sharder protocol's
    keywords — the drift-replan path hands both in, which keeps a
    replicated replan as incremental as a plain one.
    """
    carved = carve_replica_budget(topology, policy)
    base = sharder.shard(
        model, profile, carved, warm_start=warm_start, workspace=workspace
    )
    replicated = build_replication(policy, base, profile, model, topology)
    base.metadata["replication"] = {
        "budget_bytes_per_device": int(policy.capacity_bytes),
        "replicated_rows": replicated.num_replicated_rows,
        "max_replica_bytes_per_device": int(
            replicated.replica_bytes_per_device(model, topology).max(
                initial=0
            )
        ),
    }
    return replicated
