"""Trace-driven execution of a sharding plan.

Replays jagged training batches against a plan's remapping tables.  For
each table, each lookup index resolves to the tier hosting that row; the
per-GPU iteration time is the sum over the GPU's tables of per-tier
traffic divided by tier bandwidth — the paper's additive cost model (the
summation property discussed under "Key Properties of RecShard's MILP":
mixed HBM/UVM reads within a kernel serialize on current GPUs).

Each lookup gathers one lane code from a per-table
:class:`~repro.engine.lanes.LaneCodes` table built once per executor —
the tier half of the Section 4.3 remapping layer, one byte per row,
saying which of the table's lane edges (tier boundaries, fast-lane and
replica cutoffs, strategy cuts) the row's frequency rank falls below.
Per-tier accounting then reduces to counting small codes, for any tier
count: per-tier counts are prefix differences of the lookups' ranks
against the plan's cumulative tier boundaries.  The device cache model
likewise rides the sorted-by-construction frequency ranking: a hit is
simply ``rank < cached_rows``, one more edge in the code table.

The reference it is pinned against — every lookup resolved through the
remapping tables, replicas routed by a per-lookup argmin — is
``tests/oracles/engine.py``'s ``ScalarExecutor``.  It classifies
independently but shares :meth:`ShardedExecutor._reduce_counts`, so
identical classifications yield *bit-identical* device times.

Two frequency-informed fast-lane models (:mod:`repro.engine.cache`) can
be layered on top:

* a :class:`~repro.engine.cache.CacheModel` serves each device's
  expectedly-hottest HBM rows at cache bandwidth, reproducing the
  locality-driven mean-time gains the paper measures on real GPUs;
* a :class:`~repro.engine.cache.TierStagingModel` serves each cold
  tier's statically-hottest resident rows at the next-faster tier's
  bandwidth (Section 4.4's capacity-scaling hierarchies made fast to
  serve).  Staged accesses stay *counted* in their home tier.

Because the remapping packs hot rows first, both reduce to per-(table,
tier) rank cutoffs that become edges of the same code tables.

A third fast lane is *replication* (a plan's ``replica_rows``, set by
:func:`~repro.core.replicate.build_replication`): each table's
``replica_rows`` hottest rows exist on every device, and a lookup that
resolves below that cutoff is routed to whichever device currently
carries the least served bytes instead of the table's home.  Routing is
greedy least-loaded over running per-device byte counters (ties to the
lowest device id; the counters see each batch's home-lane bytes before
its replicated lookups, in trace order).  Each feature's routed counts
come in closed form (:func:`least_loaded_counts` — the greedy sequence
is the ``n`` smallest pops across per-device arithmetic progressions),
bit-identical to assigning lookup by lookup.
Routed accesses are counted on the *serving* device's fastest tier, so
the per-device access totals (``RunMetrics.load_imbalance``) show the
balancing effect directly.

All of these cutoffs — tier boundaries, cache, staging, replica, and
the table-wise-row-wise strategy cuts — are *registered lanes* in a
:class:`~repro.engine.lanes.LaneRegistry` built once per executor.
Each lane is a per-table cumulative rank cutoff; classification is one
prefix count per lane, read off each batch's code counts
(:meth:`~repro.engine.lanes.LaneSlots.read`) and fed to
:meth:`ShardedExecutor._reduce_counts`.

One loop, :func:`_classify_lanes`, drives every classification: a
single executor's jagged or pre-ranked batch, and
:func:`replay_trace`'s several plans over one trace.  It gathers each
feature's codes once — from one joint code table over every
executor's edges in a multi-plan replay — counts them once per
distinct edge, and hands every executor its lanes' counts.

Per-table sharding strategies (a plan's ``table_strategies``, see
:mod:`repro.core.strategies`) reuse the framework:
column splits change nothing at classification time (every lookup
touches every column shard) — the reduction scatters each table's
per-tier counts across its shard devices, byte traffic exact per dim
share, access counts split largest-remainder so per-table totals are
conserved; twrw splits register one ``cut`` lane per interior rank cut
and the reduction crosses cut prefixes with tier prefixes (a min/max
identity on monotone prefix counts) to land each (tier, shard) cell on
its device.  Strategy plans do not compose with cache/staging lanes
(the executor rejects the combination up front) or with replicas (the
plan's ``validate`` rejects it); they do compose with brownout, whose
clamp leaves a twrw table exactly its tier-0 cells.

The executor reads every lane from the one plan type,
:class:`~repro.core.plan.ShardingPlan`, and checks it with the plan's
single :meth:`~repro.core.plan.ShardingPlan.validate`.  Its analytic
:meth:`ShardedExecutor.expected_device_costs_ms` is the planner's
batched evaluator applied to that plan.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluate import expected_device_costs_ms
from repro.core.plan import ShardingPlan, crossing_cells
from repro.core.strategies import proportional_split
from repro.data.batch import JaggedBatch
from repro.data.model import ModelSpec
from repro.engine.cache import (
    CacheModel,
    TierStagingModel,
    cached_rows_per_table,
    staged_rows_per_table,
)
from repro.engine.lanes import LaneCodes, LaneRegistry, LaneSlots, build_lanes
from repro.engine.metrics import RunMetrics
from repro.engine.ranked import RankedBatch, RankRemapper
from repro.memory.topology import SystemTopology


class ShardedExecutor:
    """Executes embedding lookups for one model under one plan.

    Args:
        model: the model spec (table geometry).
        plan: the sharding plan under test; its ``replica_rows`` enable
            the replica lane (lookups below a table's replica cutoff
            are routed least-loaded across all devices) and its
            ``table_strategies`` the column/twrw shard lanes.
        profile: the profile whose frequency ranking orders rows across
            tiers (the same ranking the remapping layer ships to
            production in Section 4.3).
        topology: tier capacities/bandwidths to charge against.
        validate: check plan feasibility up front (disable only for
            deliberately infeasible what-if runs).
        cache: optional per-device cache model; each device's expectedly
            hottest HBM rows are served at cache bandwidth.
        staging: optional per-device staging model; each cold tier's
            expectedly hottest resident rows are served at the
            next-faster tier's bandwidth (multi-tier hierarchies).
    """

    def __init__(
        self,
        model: ModelSpec,
        plan: ShardingPlan,
        profile,
        topology: SystemTopology,
        validate: bool = True,
        cache: CacheModel | None = None,
        staging: TierStagingModel | None = None,
    ):
        # Strategy plans carry no cache/staging hit lanes, and brownout
        # on a twrw table is exact only because of that: the clamp
        # leaves the table's cold-tier counts at zero, so its clamped
        # tier prefixes cross the unclamped cut prefixes into exactly
        # the tier-0 cells.
        if plan.table_strategies is not None and (
            cache is not None or staging is not None
        ):
            raise ValueError(
                "strategy plans do not compose with cache/staging fast lanes"
            )
        if validate:
            plan.validate(model, topology)
        self.model = model
        self.plan = plan
        self.profile = profile
        self.topology = topology
        self._ranker: RankRemapper | None = None
        self.device_of = np.array([p.device for p in plan], dtype=np.int64)
        self.row_bytes = np.array(
            [t.row_bytes for t in model.tables], dtype=np.float64
        )
        # Cumulative tier boundaries in rank space, shape (tables, tiers):
        # the rows of table j on tier t are ranks [bounds[j, t-1], bounds[j, t]).
        self._tier_bounds = np.array(
            [np.cumsum(p.rows_per_tier) for p in plan], dtype=np.int64
        )
        self._inv_bw = np.array(
            [1.0 / tier.bandwidth for tier in topology.tiers], dtype=np.float64
        )
        self.cache = cache
        self.staging = staging
        self._cache_threshold = np.zeros(model.num_tables, dtype=np.int64)
        if cache is not None:
            for device in range(topology.num_devices):
                for table_index, rows in cached_rows_per_table(
                    cache, plan, profile, model, device
                ).items():
                    self._cache_threshold[table_index] = rows
        # Leading rows of each (table, cold tier) block staged one tier
        # up; column 0 is always zero (CacheModel owns the HBM lane).
        self._stage_rows = np.zeros(
            (model.num_tables, topology.num_tiers), dtype=np.int64
        )
        if staging is not None:
            for device in range(topology.num_devices):
                self._stage_rows += staged_rows_per_table(
                    staging, plan, profile, model, topology.num_tiers, device
                )
        # Replica lane: ranks below a table's replica cutoff exist on
        # every device and are routed least-loaded instead of hitting
        # the home device.  The cutoff is clamped to the fastest tier's
        # boundary (validate() already guarantees containment) and the
        # running byte counters start at zero per executor.
        self._replica_cut = np.zeros(model.num_tables, dtype=np.int64)
        if plan.replica_rows is not None:
            self._replica_cut = np.minimum(
                plan.replica_rows, self._tier_bounds[:, 0]
            )
        self._has_replicas = bool(self._replica_cut.any())
        self._row_bytes_int = np.array(
            [t.row_bytes for t in model.tables], dtype=np.int64
        )
        self._replica_load = np.zeros(topology.num_devices, dtype=np.int64)
        # Device fault state (chaos drills): dead devices serve nothing
        # — their home-lane lookups are *dropped* (tallied per batch in
        # ``last_dropped``) and the replica router masks them out of the
        # least-loaded lane; degraded devices keep serving with their
        # batch times multiplied by a slowdown factor.
        self._device_alive = np.ones(topology.num_devices, dtype=bool)
        self._device_slowdown = np.ones(topology.num_devices, dtype=np.float64)
        self.last_dropped = np.zeros(topology.num_devices, dtype=np.int64)
        # Brownout degraded mode (overload control): while active,
        # cold-tier home-lane lookups are *skipped* — only fast-tier,
        # staged, and replicated rows are served.  Skips are tallied per
        # batch in ``last_browned`` and cumulatively per table, so the
        # quality cost of degraded service is measured, never silent.
        self._brownout = False
        self.last_browned = np.zeros(
            (topology.num_tiers, topology.num_devices), dtype=np.int64
        )
        self.browned_by_table = np.zeros(model.num_tables, dtype=np.int64)
        # Per-(table, tier) fast-lane cutoffs in cumulative rank space:
        # ranks in [bounds[t-1], cutoffs[t]) are served at the tier's
        # fast lane (cache bandwidth for tier 0, tier t-1's bandwidth
        # for cold tiers).  The cache only holds HBM-resident rows and a
        # tier's staged rows live inside its block, so every cutoff is
        # clamped into the tier's boundary interval.
        bounds = self._tier_bounds
        cutoffs = np.empty_like(bounds)
        cutoffs[:, 0] = np.minimum(self._cache_threshold, bounds[:, 0])
        if cache is not None and self._has_replicas:
            # The replica lane owns the leading ranks: cache hits only
            # count ranks in [replica_cut, cutoff).
            cutoffs[:, 0] = np.maximum(cutoffs[:, 0], self._replica_cut)
        if topology.num_tiers > 1:
            cutoffs[:, 1:] = np.minimum(
                bounds[:, :-1] + self._stage_rows[:, 1:], bounds[:, 1:]
            )
        self._tier_cutoffs = cutoffs
        # Tiers whose fast-lane cutoff sits strictly above the tier's
        # lower boundary for at least one table: only these register a
        # hit lane.
        lower = np.zeros_like(bounds)
        lower[:, 1:] = bounds[:, :-1]
        self._hit_tiers = tuple(
            int(t) for t in np.flatnonzero((cutoffs > lower).any(axis=0))
        )
        # Per-table strategy shards: column tables scatter their counts
        # across shard devices at reduce time; twrw tables additionally
        # register one classification lane per interior rank cut.
        self._column_tables: list[tuple] = []
        self._twrw_tables: list[tuple] = []
        self._num_cut_lanes = 0
        cut_points = None
        if plan.table_strategies is not None:
            # One cut lane per interior twrw cut of the widest split.
            self._num_cut_lanes = max(
                (len(s.row_cuts) for s in plan.table_strategies),
                default=0,
            )
            if self._num_cut_lanes:
                cut_points = np.zeros(
                    (model.num_tables, self._num_cut_lanes), dtype=np.int64
                )
            for j, strat in enumerate(plan.table_strategies):
                if strat.kind == "column":
                    dims = np.asarray(strat.dims, dtype=np.int64)
                    self._column_tables.append((
                        j,
                        np.asarray(strat.devices, dtype=np.int64),
                        dims,
                        (dims * model.tables[j].dtype_bytes).astype(
                            np.float64
                        ),
                    ))
                elif strat.kind == "twrw":
                    cut_points[j, : len(strat.row_cuts)] = strat.row_cuts
                    self._twrw_tables.append((
                        j,
                        np.asarray(strat.devices, dtype=np.int64),
                        len(strat.row_cuts),
                    ))
        self._split_idx = np.array(
            [info[0] for info in self._column_tables]
            + [info[0] for info in self._twrw_tables],
            dtype=np.int64,
        )
        self._cut_points = cut_points
        # The lane registry: every cutoff classification reads, in pass
        # order.  Registering a lane here is all it takes to classify it.
        self._lanes: LaneRegistry = build_lanes(
            self._tier_bounds,
            self._tier_cutoffs,
            self._hit_tiers,
            replica_cut=self._replica_cut if self._has_replicas else None,
            strategy_cuts=cut_points,
        )
        # The lane-code tables over this registry's edges, and where
        # each lane reads them.  A multi-plan replay caches its joint
        # table in ``_joint``.
        self._codes = LaneCodes((self._lanes,), self._row_orders())
        self._slots = self._codes.slots(self._lanes, topology.num_tiers)
        self._joint: tuple | None = None

    # ------------------------------------------------------------------
    # Lazily-built helpers
    # ------------------------------------------------------------------
    def _row_orders(self) -> list[np.ndarray]:
        """Each table's rows in descending-frequency order."""
        return [self.profile[p.table_index].cdf.row_order for p in self.plan]

    @property
    def ranker(self) -> RankRemapper:
        """The hashed-index → frequency-rank translator for this profile,
        built on first use (:meth:`prepare`; classification never
        needs it)."""
        if self._ranker is None:
            self._ranker = RankRemapper(self.profile)
        return self._ranker

    def prepare(self, batches) -> list[RankedBatch]:
        """Translate a trace to rank space once, for repeated replay."""
        return self.ranker.rank_trace(batches)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_batch(
        self, batch: JaggedBatch | RankedBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Execute one batch (jagged or pre-ranked).

        Returns:
            times_ms: per-device EMB time for this iteration (ms).
            accesses: (num_tiers, num_devices) access counts; cache and
                staging hits are counted within their home tier, and
                replica-routed lookups on the *serving* device's
                fastest tier.
            tier_hits: (num_tiers, num_devices) accesses served from a
                fast lane — row 0 is device-cache hits, row ``t >= 1``
                is tier-``t`` rows staged at tier ``t - 1`` bandwidth.
            replica_accesses: (num_devices,) lookups served from the
                replica lane on each device (all zeros without the
                plan's ``replica_rows``).
        """
        if isinstance(batch, RankedBatch):
            return self.run_ranked(batch)
        return self.run_jagged(batch)

    # ------------------------------------------------------------------
    # Classification / reduction split (multi-process serving seam)
    # ------------------------------------------------------------------
    def classify_batch(self, batch: JaggedBatch) -> tuple[
        np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None
    ]:
        """Run only the (stateless) classification lanes on one batch.

        Returns the per-``(table, tier)`` access counts, the per-tier
        fast-lane hit counts, the per-table replica-lane counts
        (``None`` without replication), and the per-``(table, slot)``
        twrw cut-lane prefix counts (``None`` without twrw shards) —
        everything :meth:`reduce_classified` needs to produce the
        batch's metrics.

        This is the multi-process serving seam: classification touches
        every lookup but no cross-batch state, so worker processes can
        run it in parallel, while the *stateful* reduction (the replica
        router's running least-loaded byte counters) is replayed by the
        front-end aggregator in batch order — keeping merged metrics
        bit-identical to a single-process run.
        """
        return self._classify_jagged(batch)

    def reduce_classified(
        self,
        counts: np.ndarray,
        hits: np.ndarray,
        replicas: np.ndarray | None = None,
        cuts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pool classified counts into per-device metrics (stateful).

        The public face of :meth:`_reduce_counts` for callers that split
        classification from reduction (the multi-process aggregator).
        With replication enabled this advances the executor's running
        routing counters, so call it exactly once per batch, in batch
        order.
        """
        return self._reduce_counts(
            np.asarray(counts, dtype=np.int64),
            np.asarray(hits, dtype=np.int64),
            None if replicas is None else np.asarray(replicas, dtype=np.int64),
            None if cuts is None else np.asarray(cuts, dtype=np.int64),
        )

    def reset_routing(self) -> None:
        """Zero the replica router's running load counters.

        Starts an independent routing history on the same plan — what a
        server reset needs to replay a second stream as if the executor
        were freshly built (a no-op without replication).
        """
        self._replica_load[:] = 0

    # ------------------------------------------------------------------
    # Brownout degraded mode (overload control)
    # ------------------------------------------------------------------
    @property
    def brownout_active(self) -> bool:
        """Whether cold-tier home-lane lookups are currently skipped."""
        return self._brownout

    def set_brownout(self, active: bool) -> None:
        """Enter/leave degraded mode.

        While active, :meth:`_reduce_counts` serves only the fast tier,
        each cold tier's staged rows, and the replica lane; the skipped
        cold-tier lookups are counted in ``last_browned`` (per batch)
        and ``browned_by_table`` (cumulative).  Purely a reduce-time
        transform: classification is untouched, so the multi-process
        classify/reduce split stays bit-identical under brownout.
        Browned lookups of column and twrw tables are tallied on the
        table's base placement device.
        """
        self._brownout = bool(active)

    def reset_brownout(self) -> None:
        """Leave degraded mode and zero the skip counters."""
        self._brownout = False
        self.last_browned[:] = 0
        self.browned_by_table[:] = 0

    # ------------------------------------------------------------------
    # Device fault state (chaos drills)
    # ------------------------------------------------------------------
    @property
    def dead_devices(self) -> tuple[int, ...]:
        """Devices currently marked failed, ascending."""
        return tuple(int(d) for d in np.flatnonzero(~self._device_alive))

    @property
    def has_faults(self) -> bool:
        """True if any device is failed or degraded."""
        return bool(
            (~self._device_alive).any() or (self._device_slowdown != 1.0).any()
        )

    def fail_device(self, device: int) -> None:
        """Mark a device failed: home-lane lookups on it are dropped
        (counted in ``last_dropped``), replicated lookups are rerouted
        to surviving devices, and its slowdown factor is cleared."""
        self._check_device(device)
        self._device_alive[device] = False
        self._device_slowdown[device] = 1.0

    def recover_device(self, device: int) -> None:
        """Clear a device's failed/degraded state."""
        self._check_device(device)
        self._device_alive[device] = True
        self._device_slowdown[device] = 1.0

    def degrade_device(self, device: int, slowdown: float) -> None:
        """Multiply the device's batch service times by ``slowdown``."""
        self._check_device(device)
        if slowdown <= 0:
            raise ValueError(f"slowdown must be > 0, got {slowdown}")
        if not self._device_alive[device]:
            raise ValueError(f"device {device} is failed, not degradable")
        self._device_slowdown[device] = slowdown

    def clear_faults(self) -> None:
        """Return every device to healthy (alive, no slowdown)."""
        self._device_alive[:] = True
        self._device_slowdown[:] = 1.0
        self.last_dropped[:] = 0

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.topology.num_devices:
            raise ValueError(
                f"device {device} out of range for "
                f"{self.topology.num_devices}-device topology"
            )

    def run_jagged(
        self, batch: JaggedBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized accounting over a jagged batch.

        Metric-identical to ``run_ranked(ranker.rank_batch(batch))``:
        each feature gathers its lane codes straight from the hashed
        ids, so no rank is ever computed.
        """
        return self._reduce_counts(*self._classify_jagged(batch))

    def _classify_jagged(self, batch: JaggedBatch) -> tuple[
        np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None
    ]:
        """Lane-code classification of one jagged batch (no reduce)."""
        return _classify_lanes([self], batch, *_joint_codes([self]))[0]

    def run_ranked(
        self, ranked: RankedBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized accounting over a rank-space batch.

        Each feature's ranks gather their lane codes from the code
        tables' rank-indexed step form (prefix counting: tier ``t``
        serves the ranks between boundary ``t-1`` and boundary ``t``);
        the per-(tier, device) access and traffic matrices are then
        pooled with ``bincount`` over the plan's table → device
        assignment.
        """
        return self._reduce_counts(
            *_classify_lanes([self], ranked, *_joint_codes([self]))[0]
        )

    def _reduce_counts(
        self,
        counts: np.ndarray,
        hits: np.ndarray,
        replicas: np.ndarray | None = None,
        cuts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pool per-(table, tier) counts into per-(tier, device) metrics.

        The pooling is a ``bincount`` over the plan's table → device
        assignment, once for accesses and once for byte traffic; device
        times follow from the additive bandwidth model.  ``hits`` are
        each tier's fast-lane counts: tier 0's move from the HBM lane
        to the cache lane, a cold tier's from its own lane to the
        next-faster tier's.  ``replicas`` (per-table replica-lane
        counts, included in the tier-0 column) are peeled off the home
        device and routed least-loaded across all devices, charged at
        the fastest tier's bandwidth on the device that serves them.

        Strategy-split tables skip the home attribution and scatter at
        reduce time instead: a column table charges every shard its
        exact byte share of each lookup (``dims[s] * dtype_bytes``) and
        splits the lookup counts largest-remainder-proportionally by
        dim; a twrw table crosses its tier prefixes with the classified
        cut prefixes (``cuts``) via the min/max identity to fill the
        per-(tier, shard) cells exactly.
        """
        num_devices = self.topology.num_devices
        num_tiers = self.topology.num_tiers
        self.last_browned[:] = 0
        if self._brownout and num_tiers > 1:
            # Degraded mode: cold-tier home-lane lookups (everything a
            # cold tier serves beyond its staged rows) are skipped, so
            # only fast-tier, staged, and replicated rows execute.  The
            # skip happens before fault accounting — a dead device's
            # cold lookups count as browned, not dropped.
            browned_tbl = counts[:, 1:] - hits[:, 1:]
            if browned_tbl.any():
                counts = counts.copy()
                counts[:, 1:] = hits[:, 1:]
                self.browned_by_table += browned_tbl.sum(axis=1)
                for t in range(1, num_tiers):
                    np.add.at(
                        self.last_browned[t],
                        self.device_of,
                        browned_tbl[:, t - 1],
                    )
        alive = self._device_alive
        faulty = not alive.all()
        route = replicas is not None and self._has_replicas
        if faulty and not alive.any():
            # Nothing survives: the replica lane has nowhere to reroute,
            # so replicated lookups drop with their home lane.
            route = False
        split = bool(self._column_tables or self._twrw_tables)
        if self._twrw_tables and cuts is None:
            raise ValueError(
                "twrw strategy tables require classified cut counts"
            )
        if split:
            counts_home = counts.copy()
            counts_home[self._split_idx, :] = 0
        else:
            counts_home = counts
        counts0 = (
            counts_home[:, 0] - replicas if route else counts_home[:, 0]
        )
        accesses = np.zeros((num_tiers, num_devices), dtype=np.int64)
        traffic = np.zeros((num_tiers, num_devices), dtype=np.float64)
        home_bytes = (
            np.zeros(num_devices, dtype=np.int64) if route else None
        )
        for t in range(num_tiers):
            col = counts0 if t == 0 else counts_home[:, t]
            np.add.at(accesses[t], self.device_of, col)
            traffic[t] = np.bincount(
                self.device_of,
                weights=col * self.row_bytes,
                minlength=num_devices,
            )
            if route:
                np.add.at(
                    home_bytes, self.device_of, col * self._row_bytes_int
                )
        if split:
            # Column shards: every lookup touches every shard for its
            # dim share of the row bytes (traffic is exact); the lookup
            # *counts* are split proportionally by dim with the
            # largest-remainder rule, conserving per-table totals.
            for j, devices, dims, shard_bytes in self._column_tables:
                accesses[:, devices] += proportional_split(counts[j], dims)
                traffic[:, devices] += (
                    counts[j][:, None].astype(np.float64)
                    * shard_bytes[None, :]
                )
            # Twrw shards: the classified cut prefixes cross the tier
            # prefixes — cell (t, s) holds the lookups in both tier
            # t's rank interval and shard s's, by the min/max identity
            # on monotone prefix counts.
            for j, devices, n_cuts in self._twrw_tables:
                pb = np.concatenate(([0], np.cumsum(counts[j])))
                pc = np.concatenate(
                    ([0], cuts[j, :n_cuts], [pb[-1]])
                ).astype(np.int64)
                cells = crossing_cells(pb, pc)
                accesses[:, devices] += cells
                traffic[:, devices] += cells * self.row_bytes[j]
        self.last_dropped[:] = 0
        if faulty:
            # Dead devices serve nothing: their home-lane lookups are
            # dropped (tallied for the recovery metrics), their traffic
            # disappears from the time model, and their pinned bytes
            # stop feeding the replica router's load counters.
            dead = ~alive
            self.last_dropped[dead] = accesses[:, dead].sum(axis=0)
            accesses[:, dead] = 0
            traffic[:, dead] = 0.0
            if route:
                home_bytes[dead] = 0
        replica_accesses = np.zeros(num_devices, dtype=np.int64)
        if route:
            # The routing counters see the batch's home-lane bytes
            # first (so "least loaded" accounts for the traffic the
            # placement already pins), then each feature's replicated
            # lookups in trace order.
            self._replica_load += home_bytes
            replica_accesses, replica_bytes = self._route_replicas(replicas)
            accesses[0] += replica_accesses
            traffic[0] += replica_bytes
        times = (traffic * self._inv_bw[:, None]).sum(axis=0)
        tier_hits = np.zeros((num_tiers, num_devices), dtype=np.int64)
        if self.cache is not None or self.staging is not None:
            for t in range(num_tiers):
                if not hits[:, t].any():
                    continue
                np.add.at(tier_hits[t], self.device_of, hits[:, t])
                hit_bytes = np.bincount(
                    self.device_of, weights=hits[:, t] * self.row_bytes,
                    minlength=num_devices,
                )
                if faulty:
                    # A dead device's hits dropped with its accesses —
                    # no fast-lane discount on traffic already zeroed.
                    tier_hits[t][dead] = 0
                    hit_bytes[dead] = 0.0
                fast_inv_bw = (
                    1.0 / self.cache.bandwidth if t == 0
                    else self._inv_bw[t - 1]
                )
                # Hit bytes move from the tier's lane to the fast lane.
                times -= hit_bytes * self._inv_bw[t]
                times += hit_bytes * fast_inv_bw
        if (self._device_slowdown != 1.0).any():
            times = times * self._device_slowdown
        return times * 1e3, accesses, tier_hits, replica_accesses

    def _route_replicas(
        self, replicas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Send each feature's replicated lookups to least-loaded devices.

        Features are processed in trace (table) order; within a feature
        every lookup weighs the table's ``row_bytes``, so the greedy
        per-lookup assignment has the closed form
        :func:`least_loaded_counts`.  Mutates the executor's running
        byte counters.

        Failed devices are masked out of the lane: the closed form runs
        on the compacted surviving load vector and scatters back (the
        ascending survivor order preserves the lowest-device-id tie
        break), so it matches a per-lookup argmin over survivors under
        any fail set.
        """
        num_devices = self.topology.num_devices
        alive = self._device_alive
        masked = not alive.all()
        alive_idx = np.flatnonzero(alive) if masked else None
        acc = np.zeros(num_devices, dtype=np.int64)
        routed_bytes = np.zeros(num_devices, dtype=np.int64)
        for j in np.flatnonzero(replicas):
            n = int(replicas[j])
            w = int(self._row_bytes_int[j])
            if masked:
                taken = np.zeros(num_devices, dtype=np.int64)
                taken[alive_idx] = least_loaded_counts(
                    self._replica_load[alive_idx], n, w
                )
            else:
                taken = least_loaded_counts(self._replica_load, n, w)
            self._replica_load += taken * w
            acc += taken
            routed_bytes += taken * w
        return acc, routed_bytes.astype(np.float64)

    def run(self, batches) -> RunMetrics:
        """Execute a sequence of batches and collect metrics.

        ``batches`` may mix :class:`~repro.data.batch.JaggedBatch` and
        pre-ranked :class:`~repro.engine.ranked.RankedBatch` items;
        pre-ranking via :meth:`prepare` amortizes the remap across
        strategies sharing a profile.
        """
        rows = []
        browned = [] if self._brownout else None
        for batch in batches:
            rows.append(self.run_batch(batch))
            if browned is not None:
                browned.append(self.last_browned.copy())
        return _collect_metrics(
            self.plan.strategy, self.topology, rows,
            self.cache is not None, self.staging is not None,
            self.plan.replica_rows is not None,
            browned=browned,
        )

    def expected_device_costs_ms(self, batch_size: int) -> np.ndarray:
        """Analytic per-device expected cost (the MILP's Constraint 12):
        the planner's one evaluator,
        :func:`~repro.core.evaluate.expected_device_costs_ms`, on the
        executor's plan.  Useful to cross-check measured times against
        the optimized cost model; the cache and staging models are
        excluded, exactly as the MILP sees the plan.
        """
        return expected_device_costs_ms(
            self.plan, self.model, self.profile, self.topology, batch_size
        )


def least_loaded_counts(load: np.ndarray, n: int, w: int) -> np.ndarray:
    """Per-device item counts of a greedy least-loaded assignment.

    Models assigning ``n`` items of ``w`` bytes each, one at a time, to
    the device with the smallest byte counter (ties to the lowest
    device id), updating the counter after each item.  The assignment
    sequence is exactly the ``n`` lexicographically smallest
    ``(value, device)`` pairs popped from the per-device arithmetic
    progressions ``load[d] + m * w`` — so one integer binary search for
    the value of the ``n``-th pop replaces the per-item loop, and the
    result is bit-identical to the per-item argmin loop.

    Args:
        load: current per-device byte counters (not modified).
        n: items to assign.
        w: bytes per item (must be positive).

    Returns:
        (num_devices,) int64 item counts summing to ``n``.
    """
    load = np.asarray(load, dtype=np.int64)
    counts = np.zeros(load.size, dtype=np.int64)
    if n <= 0:
        return counts
    if w <= 0:
        raise ValueError(f"item weight must be positive, got {w}")

    def pops_below(value: int) -> int:
        """How many progression terms are strictly below ``value``."""
        return int(np.maximum(0, (value - load + w - 1) // w).sum())

    lo = int(load.min())
    hi = lo + n * w  # the n-th pop is at most lo + (n - 1) * w
    while lo < hi:
        mid = (lo + hi) // 2
        if pops_below(mid + 1) >= n:
            hi = mid
        else:
            lo = mid + 1
    nth_value = lo
    counts = np.maximum(0, (nth_value - load + w - 1) // w)
    remaining = n - int(counts.sum())
    if remaining > 0:
        # Pops tied at the n-th value resolve by device id, lowest first.
        tied = np.flatnonzero(
            (nth_value >= load) & ((nth_value - load) % w == 0)
        )
        counts[tied[:remaining]] += 1
    return counts


def _collect_metrics(
    strategy: str,
    topology: SystemTopology,
    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    with_cache: bool,
    with_staging: bool = False,
    with_replicas: bool = False,
    browned: list[np.ndarray] | None = None,
) -> RunMetrics:
    """Stack per-iteration (times, accesses, hits, replicas) rows."""
    times_arr = np.array([r[0] for r in rows])
    stacked = np.array([r[1] for r in rows])  # (iters, tiers, devices)
    tier_accesses = {
        tier.name: stacked[:, t, :] for t, tier in enumerate(topology.tiers)
    }
    hits = None
    if rows and (with_cache or with_staging):
        hits = np.array([r[2] for r in rows])  # (iters, tiers, devices)
    replica = None
    if rows and with_replicas:
        replica = np.array([r[3] for r in rows])  # (iters, devices)
    return RunMetrics(
        strategy=strategy,
        times_ms=times_arr,
        tier_accesses=tier_accesses,
        cache_hits=hits[:, 0, :] if with_cache and hits is not None else None,
        staged_hits=hits if with_staging and hits is not None else None,
        replica_hits=replica,
        browned_out=np.array(browned) if browned else None,
    )


def _classify_lanes(
    executors: list[ShardedExecutor],
    batch: JaggedBatch | RankedBatch,
    codes: LaneCodes,
    slots: list[LaneSlots],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]]:
    """Lane classification of one batch for several executors.

    The engine's one classifier.  Per feature it gathers the
    lookups' codes once — by hashed id for a jagged batch, by rank for a
    :class:`RankedBatch`; the default ``mode="raise"`` rejects an
    out-of-range id with ``IndexError`` — and counts them once per
    distinct edge of ``codes`` into the batch's prefix-count vector.
    Each executor then reads its lanes off that vector in a few array
    operations (``slots[s]`` is executor ``s``'s
    :meth:`LaneCodes.slots`).  ``codes`` must cover every executor's
    edges.  A multi-plan replay thus pays the trace's memory traffic
    once, not once per plan.

    Returns one ``(counts, hits, replicas, cuts)`` per executor, ready
    for its :meth:`~ShardedExecutor._reduce_counts`.
    """
    num_tables = len(executors[0].plan)
    if batch.num_features != num_tables:
        raise ValueError(
            f"batch has {batch.num_features} features, plan has "
            f"{num_tables} tables"
        )
    prefix_counts = codes.prefix_counts
    prefix = [0]
    if isinstance(batch, RankedBatch):
        for j, feature in enumerate(batch):
            prefix += prefix_counts(j, codes.by_rank(j).take(feature.ranks))
    else:
        by_row = codes.by_row
        for j, feature in enumerate(batch):
            prefix += prefix_counts(j, by_row[j].take(feature.values))
    prefix = np.array(prefix, dtype=np.int64)
    return [ex_slots.read(prefix) for ex_slots in slots]


def _joint_codes(
    executors: list[ShardedExecutor],
) -> tuple[LaneCodes, list[LaneSlots]]:
    """One code table over every executor's edges, and each executor's
    slots into it.

    A lone executor uses its own table.  Any other table is cached on
    the first executor for as long as it is replayed with the same
    executors, so repeated replays pay the build once.
    """
    first = executors[0]
    if len(executors) == 1:
        return first._codes, [first._slots]
    registries = tuple(ex._lanes for ex in executors)
    cached = first._joint
    if cached is None or cached[0] != registries:
        codes = LaneCodes(registries, first._row_orders())
        cached = first._joint = (
            registries,
            codes,
            [
                codes.slots(ex._lanes, ex.topology.num_tiers)
                for ex in executors
            ],
        )
    return cached[1], cached[2]


def replay_trace(executors: list[ShardedExecutor], batches) -> list[RunMetrics]:
    """Replay one trace against several plans in a single pass.

    The hot loop of every multi-strategy comparison (Tables 3-5,
    Figures 11-13) replays identical batches against several sharding
    plans of the *same* model, profile, and topology.  Each batch is
    classified for every plan by one :func:`_classify_lanes` call over
    one joint code table — each feature's codes are gathered once and
    counted once per distinct edge of all the plans — then reduced by
    each executor in turn.

    Args:
        executors: one executor per plan; all must share the model,
            profile, and topology (plans and lane sets may differ).
        batches: the common trace — jagged batches, or pre-ranked
            batches from the shared profile's :class:`RankRemapper`.

    Returns:
        One :class:`RunMetrics` per executor, identical to what
        ``executor.run(batches)`` would produce for each alone.
    """
    if not executors:
        return []
    first = executors[0]
    num_tables = len(first.plan)
    num_tiers = first.topology.num_tiers
    for ex in executors:
        if len(ex.plan) != num_tables or ex.topology.num_tiers != num_tiers:
            raise ValueError(
                "replay_trace requires executors sharing one model/topology"
            )
    codes, slots = _joint_codes(executors)
    rows: list[list] = [[] for _ in executors]
    browned: list[list | None] = [
        [] if ex._brownout else None for ex in executors
    ]
    for batch in batches:
        classified = _classify_lanes(executors, batch, codes, slots)
        for s, ex in enumerate(executors):
            rows[s].append(ex._reduce_counts(*classified[s]))
            if browned[s] is not None:
                browned[s].append(ex.last_browned.copy())
    return [
        _collect_metrics(
            ex.plan.strategy, ex.topology, rows[s],
            ex.cache is not None, ex.staging is not None,
            ex.plan.replica_rows is not None,
            browned=browned[s],
        )
        for s, ex in enumerate(executors)
    ]
