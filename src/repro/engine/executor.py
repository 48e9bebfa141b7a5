"""Trace-driven execution of a sharding plan.

Replays jagged training batches against a plan's remapping tables.  For
each table, each lookup index resolves to the tier hosting that row; the
per-GPU iteration time is the sum over the GPU's tables of per-tier
traffic divided by tier bandwidth — the paper's additive cost model (the
summation property discussed under "Key Properties of RecShard's MILP":
mixed HBM/UVM reads within a kernel serialize on current GPUs).

Because the Section 4.3 remapping packs each table's rows hottest
first, every lane of the engine is a per-table rank *edge*: the tier
boundaries, the hot-row replica cutoff, the shard ranges of a
table-wise-row-wise split, and each shard's device-cache and staging
cutoffs.  A table's edges cut its rank line into *segments*, and each
segment lies in one tier and one rank range of each of the table's
shards (:meth:`~repro.core.plan.ShardingPlan.shards`); a *cell* pairs
a segment with a shard that holds it, in one lane (home, fast or
replica).  :meth:`ShardedExecutor._build_segments` labels every cell
once, at build time, with its tier, lane, device and bytes.  Each
lookup then gathers one code — its segment — from a per-table
:class:`~repro.engine.lanes.LaneCodes` table (one byte per row),
classification returns one vector of per-segment lookup counts, and
:meth:`ShardedExecutor._reduce_counts` pools that vector with one
``bincount`` per metric over the static labels.

Per-table sharding strategies (a plan's ``table_strategies``, see
:mod:`repro.core.strategies`) need no lane of their own: a twrw
table's shard ranges are edges like any other, so each of its
segments lands on one shard device; every column shard holds every
segment of its table, moves its dim share of the bytes, and takes a
largest-remainder share of the lookups, conserving each segment's
total.  The lanes on top of the home tiers select per shard, so they
compose with every strategy:

* a :class:`~repro.engine.cache.CacheModel` serves the
  expectedly-hottest HBM rows of each device's shards at cache
  bandwidth, reproducing the locality-driven mean-time gains the paper
  measures on real GPUs;
* a :class:`~repro.engine.cache.TierStagingModel` serves each cold
  tier's statically-hottest resident rows of each device's shards at
  the next-faster tier's bandwidth (Section 4.4's capacity-scaling
  hierarchies made fast to serve).  Cache and staging hits stay
  *counted* in their home tier;
* *replication* (a plan's ``replica_rows``, set by
  :func:`~repro.core.replicate.build_replication`): each table's
  ``replica_rows`` hottest rows exist whole on every device, and a
  lookup below that cutoff — whichever shards hold it — is routed to
  the device currently carrying the least served bytes.  Routing is
  greedy least-loaded over running per-device byte counters (ties to
  the lowest device id; the counters see each batch's home-lane bytes
  before its replicated lookups, in trace order).  Each feature's
  routed counts come in closed form (:func:`least_loaded_counts` — a
  level water-fill over the counters' quotients by the row bytes),
  bit-identical to assigning lookup by lookup.  Routed accesses are counted on the *serving* device's
  fastest tier, so the per-device access totals
  (``RunMetrics.load_imbalance``) show the balancing effect directly.

One loop, :func:`_classify_lanes`, drives every classification: a
single executor's jagged or pre-ranked batch, and
:func:`replay_trace`'s several plans over one trace.  It gathers each
feature's codes once — from one joint code table over every
executor's edges in a multi-plan replay — counts them once per
segment, and folds the joint counts into each executor's segments.

The reference it is pinned against — fast lanes filled row by row per
device, every lookup resolved through the remapping tables, a
per-group reduce, replicas routed by a per-lookup argmin — is
``tests/oracles/engine.py``'s ``ScalarExecutor``.  It selects,
classifies and reduces independently; device times agree bit for
bit, except within ``1e-12`` relative where a cache or staging lane
reads bytes at a second bandwidth.

The executor reads every lane from the one plan type,
:class:`~repro.core.plan.ShardingPlan`, and checks it with the plan's
single :meth:`~repro.core.plan.ShardingPlan.validate`.  Its analytic
:meth:`ShardedExecutor.expected_device_costs_ms` is the planner's
batched evaluator applied to that plan.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluate import expected_device_costs_ms
from repro.core.plan import ShardingPlan
from repro.core.strategies import proportional_split
from repro.data.batch import JaggedBatch
from repro.data.model import ModelSpec
from repro.engine.cache import CacheModel, TierStagingModel, fast_lane_cutoffs
from repro.engine.lanes import LaneCodes
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
            ``table_strategies`` the column/twrw shards.
        profile: the profile whose frequency ranking orders rows across
            tiers (the same ranking the remapping layer ships to
            production in Section 4.3).
        topology: tier capacities/bandwidths to charge against; the
            plan is validated against it.
        cache: optional per-device cache model; the expectedly hottest
            HBM rows of each device's shards are served at cache
            bandwidth.
        staging: optional per-device staging model; each cold tier's
            expectedly hottest resident rows of each device's shards
            are served at the next-faster tier's bandwidth (multi-tier
            hierarchies).
    """

    def __init__(
        self,
        model: ModelSpec,
        plan: ShardingPlan,
        profile,
        topology: SystemTopology,
        cache: CacheModel | None = None,
        staging: TierStagingModel | None = None,
    ):
        plan.validate(model, topology)
        self.model = model
        self.plan = plan
        self.profile = profile
        self.topology = topology
        self._ranker: RankRemapper | None = None
        self.device_of = np.array([p.device for p in plan], dtype=np.int64)
        # Cumulative tier boundaries in rank space, shape (tables, tiers):
        # the rows of table j on tier t are ranks [bounds[j, t-1], bounds[j, t]).
        self._tier_bounds = np.array(
            [np.cumsum(p.rows_per_tier) for p in plan], dtype=np.int64
        )
        self.cache = cache
        self.staging = staging
        # Replica lane: ranks below a table's replica cutoff exist on
        # every device and are routed least-loaded instead of hitting
        # the home device; the running byte counters start at zero per
        # executor.
        self._replica_cut = np.zeros(model.num_tables, dtype=np.int64)
        if plan.replica_rows is not None:
            self._replica_cut = plan.replica_rows
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
        self._build_segments()
        self._joint: tuple | None = None

    def _build_segments(self) -> None:
        """Cut every table's rank line at its lane edges and label the
        cells.

        A table's edges are its tier boundaries, its replica cutoff,
        and its shards' rank ranges and fast-lane cutoffs
        (:meth:`~repro.core.plan.ShardingPlan.shards`,
        :func:`~repro.engine.cache.fast_lane_cutoffs`), so each segment
        lies in one tier, one rank range of each shard, and on each of
        them in one lane.  A *cell* pairs a segment with a shard that
        holds it: one cell per segment, except that every column shard
        holds every segment of its table.  Each cell knows its device,
        its row bytes, its lane (replica below the replica cutoff, fast
        below its shard's fast-lane cutoff in the tier, home otherwise)
        and the bandwidth it is read at.
        """
        model, topology = self.model, self.topology
        num_tiers, num_devices = topology.num_tiers, topology.num_devices
        bounds, replica_cut = self._tier_bounds, self._replica_cut
        shards = self.plan.shards(model)
        cutoffs = fast_lane_cutoffs(
            self.cache, self.staging, self.plan, self.profile, model,
            num_tiers,
        )
        # The replica lane owns the leading ranks: a cache hit only
        # counts ranks in [replica_cut, cutoff).
        cutoffs[:, 0] = np.maximum(cutoffs[:, 0], replica_cut[shards.table])
        edges = [
            set(row)
            for row in np.column_stack((bounds[:, :-1], replica_cut)).tolist()
        ]
        for j, shard_edges in zip(
            shards.table.tolist(),
            np.column_stack((shards.rank_lo, shards.rank_hi, cutoffs)).tolist(),
        ):
            edges[j].update(shard_edges)
        self._codes = codes = LaneCodes(edges, self._row_orders())
        seg_table = np.repeat(
            np.arange(model.num_tables), [len(e) + 1 for e in codes.edges]
        )
        seg_lo = np.array(
            [rank for e in codes.edges for rank in (0, *e)], dtype=np.int64
        )
        seg_tier = (bounds[seg_table, :-1] <= seg_lo[:, None]).sum(axis=1)
        replica = seg_lo < replica_cut[seg_table]
        # Cells: every (segment, shard of its table) pair whose shard
        # rank range holds the segment.
        shard_count = np.bincount(shards.table, minlength=model.num_tables)
        pairs = shard_count[seg_table]
        cell_seg = np.repeat(np.arange(seg_lo.size), pairs)
        cell_shard = (
            np.repeat((np.cumsum(shard_count) - shard_count)[seg_table], pairs)
            + np.arange(cell_seg.size)
            - np.repeat(np.cumsum(pairs) - pairs, pairs)
        )
        lo = seg_lo[cell_seg]
        held = (shards.rank_lo[cell_shard] <= lo) & (
            lo < shards.rank_hi[cell_shard]
        )
        cell_seg, cell_shard, lo = cell_seg[held], cell_shard[held], lo[held]
        device = shards.device[cell_shard]
        tier = seg_tier[cell_seg]
        cell_replica = replica[cell_seg]
        fast = ~cell_replica & (lo < cutoffs[cell_shard, tier])
        # Read bandwidth: the home tier's, the cache's (rate num_tiers)
        # for tier-0 fast cells, the next-faster tier's for staged ones.
        rate = np.where(fast, np.where(tier == 0, num_tiers, tier - 1), tier)
        dtype_bytes = np.array([t.dtype_bytes for t in model.tables])
        self._seg_table = seg_table
        self._cell_seg = cell_seg
        self._cell_at = tier * num_devices + device
        self._cell_rate_at = rate * num_devices + device
        self._cell_bytes = (
            shards.dim[cell_shard] * dtype_bytes[seg_table[cell_seg]]
        ).astype(np.float64)
        self._replica_cells = np.flatnonzero(cell_replica)
        self._fast_cells = np.flatnonzero(fast)
        self._replica_segs = np.flatnonzero(replica)
        # Brownout skips the cold tiers' home-lane cells (replicas lie
        # in tier 0), tallied on the table's home device.
        cold = np.flatnonzero((tier > 0) & ~fast)
        self._cold_cells = cold
        self._cold_table = seg_table[cell_seg[cold]]
        self._cold_at = tier[cold] * num_devices + self.device_of[
            self._cold_table
        ]
        inv_bw = [1.0 / tier.bandwidth for tier in topology.tiers]
        self._inv_bw = np.array(
            inv_bw + [0.0 if self.cache is None else 1.0 / self.cache.bandwidth]
        )
        # Segments several column shards hold split their lookup
        # counts by dim (largest remainder), conserving each segment's
        # total; traffic is exact per dim share.  Replica segments
        # split too: with no survivor to route to, they drop at home.
        self._shared = None
        cells_of = np.bincount(cell_seg, minlength=seg_lo.size)
        multi = np.flatnonzero(cells_of[cell_seg] > 1)
        if multi.size:
            shared = np.flatnonzero(cells_of > 1)
            slot = multi - (np.cumsum(cells_of) - cells_of)[cell_seg[multi]]
            weights = np.zeros((shared.size, cells_of.max()), dtype=np.int64)
            weights[np.searchsorted(shared, cell_seg[multi]), slot] = (
                shards.dim[cell_shard[multi]]
            )
            self._shared = (shared, weights, multi)

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
    def classify_batch(self, batch: JaggedBatch) -> np.ndarray:
        """Run only the (stateless) classification on one batch.

        Returns the batch's per-segment lookup counts (one int64 vector
        summing to ``batch.total_lookups``) — everything
        :meth:`reduce_classified` needs to produce the batch's metrics.

        This is the multi-process serving seam: classification touches
        every lookup but no cross-batch state, so worker processes can
        run it in parallel, while the *stateful* reduction (the replica
        router's running least-loaded byte counters) is replayed by the
        front-end aggregator in batch order — keeping merged metrics
        bit-identical to a single-process run.
        """
        return self._classify_jagged(batch)

    def reduce_classified(
        self, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pool classified counts into per-device metrics (stateful).

        The public face of :meth:`_reduce_counts` for callers that split
        classification from reduction (the multi-process aggregator).
        With replication enabled this advances the executor's running
        routing counters, so call it exactly once per batch, in batch
        order.
        """
        return self._reduce_counts(np.asarray(counts, dtype=np.int64))

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
        return self._reduce_counts(self._classify_jagged(batch))

    def _classify_jagged(self, batch: JaggedBatch) -> np.ndarray:
        """Lane-code classification of one jagged batch (no reduce)."""
        return _classify_lanes([self], batch, *_joint_codes([self]))[0]

    def run_ranked(
        self, ranked: RankedBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized accounting over a rank-space batch.

        Each feature's ranks gather their lane codes from the code
        tables' rank-indexed step form.
        """
        return self._reduce_counts(
            _classify_lanes([self], ranked, *_joint_codes([self]))[0]
        )

    def _reduce_counts(
        self, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pool per-segment lookup counts into per-(tier, device) metrics.

        Every segment's lookups land on its cells' devices, one
        ``bincount`` per metric over the labels :meth:`_build_segments`
        fixed: accesses in the segment's tier, bytes at the cell's read
        bandwidth (fast-lane cells at the cache's or the next-faster
        tier's, counted in their home tier and in ``tier_hits``), and
        device times follow from the additive bandwidth model.  A
        segment several column shards hold splits its lookups across
        them by dim.  Replica segments are peeled off their holders and
        routed least-loaded across the surviving devices, charged at the
        fastest tier's bandwidth on the device that serves them.
        Brownout drops the cold home cells first; then dead devices'
        cells drop.
        """
        num_devices = self.topology.num_devices
        num_tiers = self.topology.num_tiers
        alive = self._device_alive
        faulty = not alive.all()
        # With no survivor the replica lane has nowhere to reroute, so
        # replicated lookups drop with their home lane.
        route = self._has_replicas and alive.any()
        served = counts[self._cell_seg]
        if route:
            served[self._replica_cells] = 0
        accessed = served
        if self._shared is not None:
            shared, weights, cells = self._shared
            accessed = served.copy()
            accessed[cells] = proportional_split(counts[shared], weights)[
                weights > 0
            ]
            if route:
                # The split shares replicated lookups out again.
                accessed[self._replica_cells] = 0
        self.last_browned[:] = 0
        if self._brownout:
            # Degraded mode: cold-tier home-lane lookups (everything a
            # cold tier serves beyond its staged rows) are skipped, so
            # only fast-tier, staged, and replicated rows execute.  The
            # skip happens before fault accounting — a dead device's
            # cold lookups count as browned, not dropped.
            cold = self._cold_cells
            if served[cold].any():
                browned = accessed[cold]
                served[cold] = 0
                accessed[cold] = 0
                self.browned_by_table += np.bincount(
                    self._cold_table, weights=browned,
                    minlength=self.model.num_tables,
                ).astype(np.int64)
                self.last_browned[:] = np.bincount(
                    self._cold_at, weights=browned,
                    minlength=num_tiers * num_devices,
                ).reshape(num_tiers, num_devices)
        size = num_tiers * num_devices
        accesses = np.bincount(
            self._cell_at, weights=accessed, minlength=size
        ).astype(np.int64).reshape(num_tiers, num_devices)
        traffic = np.bincount(
            self._cell_rate_at, weights=served * self._cell_bytes,
            minlength=size + num_devices,
        ).reshape(num_tiers + 1, num_devices)
        fast = self._fast_cells
        tier_hits = np.bincount(
            self._cell_at[fast], weights=accessed[fast], minlength=size
        ).astype(np.int64).reshape(num_tiers, num_devices)
        self.last_dropped[:] = 0
        if faulty:
            # Dead devices serve nothing: their home-lane lookups are
            # dropped (tallied for the recovery metrics), their traffic
            # and fast-lane hits disappear from the time model, and
            # their pinned bytes stop feeding the replica router's load
            # counters.
            dead = ~alive
            self.last_dropped[dead] = accesses[:, dead].sum(axis=0)
            accesses[:, dead] = 0
            traffic[:, dead] = 0.0
            tier_hits[:, dead] = 0
        replica_accesses = np.zeros(num_devices, dtype=np.int64)
        if route:
            # The routing counters see the batch's home-lane bytes
            # first (so "least loaded" accounts for the traffic the
            # placement already pins), then each feature's replicated
            # lookups in trace order.
            self._replica_load += traffic.sum(axis=0).astype(np.int64)
            replicas = np.bincount(
                self._seg_table[self._replica_segs],
                weights=counts[self._replica_segs],
                minlength=self.model.num_tables,
            ).astype(np.int64)
            replica_accesses, replica_bytes = self._route_replicas(replicas)
            accesses[0] += replica_accesses
            traffic[0] += replica_bytes
        times = (traffic * self._inv_bw[:, None]).sum(axis=0)
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
    device id), updating the counter after each item.  With
    ``q, r = divmod(load, w)``, device ``d``'s ``m``-th item lands at
    ``(q_d + m) * w + r_d``: items fill *levels* ``q_d + m``, lowest
    level first, and within one level by ``(r_d, d)``.  So the greedy is
    a water-fill: the items fill every level below some ``K``, giving
    each device ``max(0, K - q_d)`` items, and the rest go one each to
    the devices at or below ``K`` in ``(r_d, d)`` order.  Exact integer
    arithmetic, bit-identical to the per-item argmin loop.

    Args:
        load: current per-device byte counters (not modified).
        n: items to assign.
        w: bytes per item (must be positive).

    Returns:
        (num_devices,) int64 item counts summing to ``n``.
    """
    load = np.asarray(load, dtype=np.int64)
    if n <= 0:
        return np.zeros(load.size, dtype=np.int64)
    if w <= 0:
        raise ValueError(f"item weight must be positive, got {w}")
    q, r = np.divmod(load, w)
    # Filling levels up to q_(k) (the k-th smallest q) takes
    # k * q_(k) - (q_(1) + ... + q_(k)) items, non-decreasing in k; the
    # largest k it fits in fixes the level K the n items reach.
    sorted_q = np.sort(q)
    prefix = np.cumsum(sorted_q)
    k = int(np.count_nonzero(
        np.arange(1, q.size + 1) * sorted_q - prefix <= n
    ))
    level = (n + int(prefix[k - 1])) // k
    counts = np.maximum(0, level - q)
    remaining = n - int(counts.sum())
    if remaining:
        # One more item each, at level K, by (residue, device id).
        at_level = np.flatnonzero(q <= level)
        by_residue = at_level[np.argsort(r[at_level], kind="stable")]
        counts[by_residue[:remaining]] += 1
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
    starts: list[np.ndarray | None],
) -> list[np.ndarray]:
    """Lane classification of one batch for several executors.

    The engine's one classifier.  Per feature it gathers the
    lookups' codes once — by hashed id for a jagged batch, by rank for a
    :class:`RankedBatch`; the default ``mode="raise"`` rejects an
    out-of-range id with ``IndexError`` — and counts them once per
    segment of ``codes``.  ``codes`` must cover every executor's edges;
    executor ``s`` folds the joint segment counts into its own at
    ``starts[s]`` (``None``: its own code table).  A multi-plan replay
    thus pays the trace's memory traffic once, not once per plan.

    Returns one per-segment count vector per executor, ready for its
    :meth:`~ShardedExecutor._reduce_counts`.
    """
    num_tables = len(executors[0].plan)
    if batch.num_features != num_tables:
        raise ValueError(
            f"batch has {batch.num_features} features, plan has "
            f"{num_tables} tables"
        )
    segment_counts = codes.segment_counts
    counts = []
    if isinstance(batch, RankedBatch):
        for j, feature in enumerate(batch):
            counts += segment_counts(j, codes.by_rank(j).take(feature.ranks))
    else:
        by_row = codes.by_row
        for j, feature in enumerate(batch):
            counts += segment_counts(j, by_row[j].take(feature.values))
    counts = np.array(counts, dtype=np.int64)
    return [
        counts if at is None else np.add.reduceat(counts, at) for at in starts
    ]


def _joint_codes(
    executors: list[ShardedExecutor],
) -> tuple[LaneCodes, list[np.ndarray | None]]:
    """One code table over every executor's edges, and where each
    executor's segments start in it.

    A lone executor uses its own table.  Any other table is cached on
    the first executor for as long as it is replayed with the same
    executors, so repeated replays pay the build once.
    """
    first = executors[0]
    if len(executors) == 1:
        return first._codes, [None]
    own = tuple(ex._codes for ex in executors)
    cached = first._joint
    if cached is None or cached[0] != own:
        codes = LaneCodes(
            [set().union(*table_edges) for table_edges in zip(
                *(c.edges for c in own)
            )],
            first._row_orders(),
        )
        cached = first._joint = (
            own, codes, [codes.segment_starts(c.edges) for c in own]
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
    codes, starts = _joint_codes(executors)
    rows: list[list] = [[] for _ in executors]
    browned: list[list | None] = [
        [] if ex._brownout else None for ex in executors
    ]
    for batch in batches:
        classified = _classify_lanes(executors, batch, codes, starts)
        for s, ex in enumerate(executors):
            rows[s].append(ex._reduce_counts(classified[s]))
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
