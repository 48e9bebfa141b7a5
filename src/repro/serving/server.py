"""Online lookup server: microbatched admission over the sharded engine.

A :class:`LookupServer` is a discrete-event simulation of an inference
deployment of one sharded embedding model: requests arrive on a
simulated clock, admission coalesces them into microbatches, and each
released microbatch executes on the
:class:`~repro.engine.executor.ShardedExecutor`, whose per-device times
come from the same tiered-bandwidth cost model the MILP optimizes.  The
engine is model-parallel across tables (as in training), so a batch
completes when its slowest device does, and a plan with balanced,
HBM-resident hot rows serves strictly higher QPS at lower tail latency
— the serving-side restatement of the paper's Table 3 result.

Request streams come from
:func:`~repro.serving.loadgen.synthetic_request_arenas`.  The one
admission path, :meth:`LookupServer.serve_arenas` (what ``repro
serve`` runs), keeps requests feature-major in
:class:`~repro.serving.arena.RequestArena` chunks: release points (size
cap / delay deadline) are computed vectorized over the arrival-time
array, and each microbatch is an offset slice of the arena — no
per-request objects, no per-batch re-concatenation.  The per-request
object loop it replaced is the parity oracle in
``tests/oracles/serving.py``.

A released batch is accounted by two steps around the engine call
(:meth:`LookupServer._begin_batch` and
:meth:`LookupServer._finish_batch`), which the multi-process
aggregator also runs around its reduction.

Serving also closes the loop the paper opens in Section 3.5: feature
statistics drift, so a plan optimal at deployment decays.  The server
tracks observed per-feature statistics online (a streaming
:class:`~repro.stats.profiler.TraceProfiler`), compares them against
the profile the active plan was built from (:class:`DriftMonitor`), and
when drift exceeds a threshold re-shards from the *observed* profile
and hot-swaps the executor — the drift-triggered replan the paper
argues periodic re-sharding should provide.  The replacement plan is
built *off the critical path*: warm-started from the previous plan's
cut points when the sharder supports it, installed by pointer swap, and
its wall-clock build cost surfaced in
:class:`~repro.serving.metrics.ServingMetrics` rather than hidden.
"""

from __future__ import annotations

import inspect
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.replicate import (
    ReplicationPolicy,
    build_replication,
    carve_replica_budget,
)
from repro.core.plan import ShardingPlan, TablePlacement
from repro.core.workspace import PlannerWorkspace
from repro.data.batch import JaggedBatch
from repro.data.model import ModelSpec
from repro.engine.cache import CacheModel, TierStagingModel
from repro.engine.executor import ShardedExecutor
from repro.memory.topology import SystemTopology
from repro.serving.arena import RequestArena
from repro.serving.faults import FaultInjector, FaultSchedule
from repro.serving.metrics import ServingMetrics
from repro.serving.overload import OverloadControl, OverloadController
from repro.serving.queue import iter_microbatch_arenas
from repro.stats.profiler import TraceProfiler


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of one serving deployment.

    Attributes:
        max_batch_size: microbatch release threshold in requests.
        max_delay_ms: longest a request may wait for batchmates.
        overhead_ms_per_batch: fixed per-batch cost (kernel launches,
            dense compute, host round-trip) that batching amortizes.
        drift_threshold_pct: mean per-feature pooling-factor drift (in
            percent, vs the plan's profile) that triggers a replan.
        drift_check_every_batches: how often the monitor is consulted.
        drift_min_samples: observations required before the monitor may
            trigger (guards against small-sample noise).
        profile_sample_rate: fraction of served samples folded into the
            online profile used for replanning (Section 4.1 finds <=1%
            suffices in production; the default profiles everything).
    """

    max_batch_size: int = 256
    max_delay_ms: float = 2.0
    overhead_ms_per_batch: float = 0.05
    drift_threshold_pct: float = 5.0
    drift_check_every_batches: int = 16
    drift_min_samples: int = 1024
    profile_sample_rate: float = 1.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.overhead_ms_per_batch < 0:
            raise ValueError("overhead_ms_per_batch must be >= 0")
        if self.drift_check_every_batches < 1:
            raise ValueError("drift_check_every_batches must be >= 1")


class DriftMonitor:
    """Online drift detector for per-feature pooling statistics.

    Accumulates, per feature, how many samples had the feature present
    and how many lookups they produced; the ratio is the observed
    average pooling factor, compared against the baseline profile the
    current plan was sharded from.  Mean absolute percent change across
    observable features is the drift signal (the quantity Figure 9
    tracks over production months).

    Args:
        profile: baseline :class:`~repro.stats.profiler.ModelProfile`.
        threshold_pct: drift level (percent) that makes
            :meth:`should_replan` true.
        min_samples: samples to observe before triggering.
    """

    #: present-sample floor below which a feature's estimate is noise.
    MIN_PRESENT = 16

    def __init__(self, profile, threshold_pct: float = 5.0, min_samples: int = 1024):
        self.threshold_pct = float(threshold_pct)
        self.min_samples = int(min_samples)
        self.reset(profile)

    def reset(self, profile) -> None:
        """Re-baseline against ``profile`` and clear observations."""
        self._baseline = np.array(
            [stats.avg_pooling for stats in profile], dtype=np.float64
        )
        num_tables = len(self._baseline)
        self._present = np.zeros(num_tables, dtype=np.int64)
        self._lookups = np.zeros(num_tables, dtype=np.int64)
        self._samples = 0

    @property
    def samples_observed(self) -> int:
        return self._samples

    def observe(self, batch: JaggedBatch) -> None:
        """Fold one served batch into the observed statistics.

        Vectorized across features: every feature of a jagged batch
        shares the same ``batch_size + 1`` offsets length, so presence
        and lookup tallies reduce to one stacked-offsets pass instead
        of a Python loop per feature.
        """
        if batch.num_features != self._present.size:
            raise ValueError(
                f"batch has {batch.num_features} features, monitor tracks "
                f"{self._present.size}"
            )
        self._samples += batch.batch_size
        if not batch.num_features:
            return
        offsets = np.stack([f.offsets for f in batch])
        self._present += np.count_nonzero(np.diff(offsets, axis=1), axis=1)
        self._lookups += offsets[:, -1]

    def drift_pct(self) -> float:
        """Mean |percent change| of pooling vs baseline, observable features."""
        eligible = (self._present >= self.MIN_PRESENT) & (self._baseline > 0)
        if not eligible.any():
            return 0.0
        observed = self._lookups[eligible] / self._present[eligible]
        baseline = self._baseline[eligible]
        return float(np.mean(np.abs(observed - baseline) / baseline) * 100.0)

    def should_replan(self) -> bool:
        """Whether enough drift has accumulated to justify re-sharding."""
        return (
            self._samples >= self.min_samples
            and self.drift_pct() >= self.threshold_pct
        )


class LookupServer:
    """Serves embedding lookup requests against a sharded plan.

    The server owns a simulated clock (milliseconds).  Requests are
    admitted through microbatching; each released batch runs on the
    executor, busy-waiting behind the previous batch if the
    engine is occupied (a single model-parallel replica).  Per-request
    latency is queueing wait plus execution time of its batch.

    Re-sharding: when built with a ``sharder`` (rather than a fixed
    ``plan``), the server profiles served traffic online and, when the
    :class:`DriftMonitor` trips, re-shards from the observed profile and
    swaps the executor in place.  The swap is free on the serving clock
    — production re-shards build the new placement off the critical
    path and flip atomically (Section 6.6's remapping tables make that
    a pointer swap) — but the *build* cost is measured in wall-clock
    and recorded in the metrics, and sharders exposing a ``warm_start``
    parameter (``RecShardFastSharder``) rebuild incrementally from the
    outgoing plan's cut points and device assignment.

    Args:
        model: the served model's spec.
        profile: profile the initial plan is built from.
        topology: simulated device/tier hierarchy.
        plan: a fixed sharding plan (mutually exclusive with sharder).
        sharder: strategy object with ``shard(model, profile, topology)``
            — enables drift-triggered replanning.  Works for any tier
            count (:class:`~repro.core.multitier.MultiTierSharder` for
            hierarchies beyond HBM+UVM).
        config: serving tunables.
        cache: optional device cache model passed to the executor.
        staging: optional :class:`~repro.engine.cache.TierStagingModel`
            — each cold tier's statically-hottest resident rows are
            served at the next-faster tier's bandwidth; the staging set
            is recomputed from the observed profile on every replan.
        replication: optional
            :class:`~repro.core.replicate.ReplicationPolicy` — a
            per-device byte budget carved out of the fastest tier and
            spent on replicas of the globally hottest rows, which the
            executor routes least-loaded across devices.  With a
            ``sharder`` the budget is carved *before* every (re)plan
            and the replica set recomputed from the refreshed
            workspace/profile; with a fixed ``plan`` the plan must
            leave the budget's worth of fastest-tier headroom.  A
            ``plan`` that already carries ``replica_rows`` is served
            as-is.
        chaos: optional :class:`~repro.serving.faults.FaultSchedule` of
            scripted device faults fired on the serving clock.  On a
            ``device_fail`` the server (1) masks the device out of the
            replica routing lane (replicated lookups reroute, home-lane
            lookups drop and are counted), (2) with a ``sharder``,
            builds an emergency warm-start replan onto the surviving
            devices and commits it once its modelled re-materialization
            time has elapsed on the simulated clock, and (3) records the
            recovery timeline in the metrics.  Worker events are
            rejected here — they need the multi-process runtime.
        emergency_commit_ms: override the emergency replan's modelled
            commit delay with a fixed simulated value.
        overload: optional :class:`~repro.serving.overload.
            OverloadControl` enabling SLO-driven overload control:
            deadline-aware admission, priority-class shedding, and
            brownout degraded-mode serving.  Every released microbatch
            passes through :meth:`admit_arena` before execution, and a
            ``device_degrade`` chaos event forces brownout (when
            enabled) until the device recovers and latencies subside.
    """

    def __init__(
        self,
        model: ModelSpec,
        profile,
        topology: SystemTopology,
        plan=None,
        sharder=None,
        config: ServingConfig | None = None,
        cache: CacheModel | None = None,
        staging: TierStagingModel | None = None,
        replication: ReplicationPolicy | None = None,
        chaos: FaultSchedule | None = None,
        emergency_commit_ms: float | None = None,
        overload: OverloadControl | None = None,
    ):
        if (plan is None) == (sharder is None):
            raise ValueError("provide exactly one of plan= or sharder=")
        if (
            plan is not None
            and plan.replica_rows is not None
            and replication is not None
        ):
            raise ValueError(
                "the plan already carries a replica set; do not also "
                "pass replication="
            )
        self.model = model
        self.topology = topology
        self.config = config or ServingConfig()
        self.cache = cache
        self.staging = staging
        self.replication = replication
        # Sharders plan against the carved topology so every (re)plan
        # leaves the replica budget free on the fastest tier.
        self._plan_topology = (
            carve_replica_budget(topology, replication)
            if replication is not None
            else topology
        )
        self.sharder = sharder
        sharder_params = (
            inspect.signature(sharder.shard).parameters
            if sharder is not None
            else {}
        )
        self._sharder_warm_starts = "warm_start" in sharder_params
        # Workspace sharders get the server's planner workspace,
        # refreshed in place per replan, so consecutive replans never
        # rebuild the stacked statistics buffers.
        self._sharder_takes_workspace = "workspace" in sharder_params
        self._workspace: PlannerWorkspace | None = None
        self.overload = overload
        self._ovl = (
            OverloadController(overload, self.config.overhead_ms_per_batch)
            if overload is not None
            else None
        )
        self.metrics = ServingMetrics(
            num_devices=topology.num_devices,
            tier_names=topology.tier_names,
            priority_names=overload.priority_names if overload else None,
            tier_precisions=topology.tier_precisions,
        )
        self._busy_until_ms = 0.0
        self._batches_since_check = 0
        self._num_installs = 0
        # Chaos drills: scripted device faults replayed on the serving
        # clock, plus the deferred-commit slot for an emergency replan
        # built after a device failure.
        if chaos is not None:
            chaos.validate_targets(topology.num_devices, num_workers=0)
        self.chaos = chaos
        self._injector = FaultInjector(chaos) if chaos is not None else None
        self._chaos_armed = self._injector is not None
        self._emergency_commit_ms = emergency_commit_ms
        self._pending_install: tuple | None = None
        if plan is not None and self.replication is not None:
            # Fixed plan + policy: select the replica set once.  The
            # plan must leave the budget's worth of headroom (validated
            # when the executor installs it).
            plan = build_replication(
                self.replication, plan, profile, self.model, self.topology
            )
        self._install(
            plan if plan is not None else self._build_plan(profile), profile
        )
        # The construction-time install, kept so a post-drill reset can
        # restore the exact initial plan (and profiler seeding) and make
        # a second stream replay the no-fault baseline bit for bit.
        self._initial_install = (self.plan, self.profile)

    def _build_plan(self, profile, warm_start=None, surviving=None):
        """Shard from ``profile``, reusing the server's planner state.

        Warm start (previous plan's cut points and homes) and the
        in-place-refreshed :class:`PlannerWorkspace` are both handed to
        sharders that support them — together they are what keeps
        ``replan_build_ms`` a repair cost rather than a rebuild cost.
        With replication enabled the sharder plans against the carved
        topology and the replica set is recomputed from the same
        refreshed workspace, so drift replans rebalance the replica
        lane along with the placement.

        ``surviving`` (physical device ids, for emergency replans)
        plans on a reduced topology holding only those devices; the
        warm start must then be in that compact index space, and the
        result is mapped back to physical ids before replication.
        """
        kwargs = {}
        if self._sharder_takes_workspace:
            if self._workspace is None:
                self._workspace = PlannerWorkspace(
                    self.model, profile,
                    steps=getattr(self.sharder, "steps", 100),
                )
            else:
                self._workspace.refresh(profile)
            kwargs["workspace"] = self._workspace
        if warm_start is not None and self._sharder_warm_starts:
            kwargs["warm_start"] = warm_start
        topology = self._plan_topology
        if surviving is not None:
            topology = SystemTopology(
                num_devices=len(surviving), tiers=topology.tiers
            )
        plan = self.sharder.shard(self.model, profile, topology, **kwargs)
        if surviving is not None:
            plan = _with_devices(plan, [surviving[p.device] for p in plan])
        if self.replication is not None:
            plan = build_replication(
                self.replication, plan, profile, self.model, self.topology,
                workspace=kwargs.get("workspace"),
            )
        return plan

    def _install(self, plan, profile) -> None:
        """Activate ``plan`` (initial install or drift replan swap)."""
        prior = getattr(self, "executor", None)
        self.plan = plan
        self.profile = profile
        self.executor = ShardedExecutor(
            self.model, plan, profile, self.topology,
            cache=self.cache, staging=self.staging,
        )
        if prior is not None:
            # Device fault state outlives a plan swap: an emergency
            # replan evacuates a dead device but does not resurrect it.
            self.executor._device_alive[:] = prior._device_alive
            self.executor._device_slowdown[:] = prior._device_slowdown
            # Brownout likewise: degraded mode is an overload-control
            # decision, not a property of any one plan.
            self.executor._brownout = prior._brownout
            self.executor.browned_by_table[:] = prior.browned_by_table
        # Drift tracking only exists where a replan is possible: a
        # fixed-plan server skips the per-batch profiling entirely.
        self.monitor = None
        self._profiler = None
        if self.sharder is not None:
            self.monitor = DriftMonitor(
                profile,
                threshold_pct=self.config.drift_threshold_pct,
                min_samples=self.config.drift_min_samples,
            )
            # Distinct sampling seed per install so consecutive observed
            # profiles draw independent Bernoulli sequences.
            self._profiler = TraceProfiler(
                self.model,
                sample_rate=self.config.profile_sample_rate,
                seed=self._num_installs,
            )
        self._num_installs += 1

    def reset_serving_state(self, rearm_chaos: bool = False) -> None:
        """Start an independent run on the same installed plan.

        Fresh metrics, simulated clock, and replica routing history —
        everything a *stream* accumulates, nothing a *plan* owns.  Lets one server (or one multi-process pool, which
        delegates here) serve several streams back to back with
        per-stream metrics, e.g. repeated benchmark rounds.

        After a failure drill (or any replan) the *initial* plan is
        reinstalled with the install counter rewound, so profiler
        seeding, routing counters, replica sets, and metrics all replay
        — the next stream reproduces a fresh server's no-fault baseline
        bit for bit.  The chaos script is disarmed by default (a drill
        is one-shot per arming); pass ``rearm_chaos=True`` to rewind it
        and run the drill again instead.
        """
        self.metrics = ServingMetrics(
            num_devices=self.topology.num_devices,
            tier_names=self.topology.tier_names,
            priority_names=(
                self.overload.priority_names if self.overload else None
            ),
            tier_precisions=self.topology.tier_precisions,
        )
        self._busy_until_ms = 0.0
        self._batches_since_check = 0
        self._pending_install = None
        if self._injector is not None:
            self._injector.reset()
            self._chaos_armed = rearm_chaos
        if self._ovl is not None:
            self._ovl.reset()
        if self._num_installs > 1:
            self._num_installs = 0
            self._install(*self._initial_install)
        self.executor.clear_faults()
        self.executor.reset_routing()
        self.executor.reset_brownout()

    # ------------------------------------------------------------------
    # Event loop (columnar admission over request arenas)
    # ------------------------------------------------------------------
    def serve_arenas(
        self,
        arenas: Iterable[RequestArena],
        on_replan: Callable[[float], None] | None = None,
    ) -> ServingMetrics:
        """Run the event loop columnar over arena chunks.

        Batch formation is the shared
        :func:`~repro.serving.queue.iter_microbatch_arenas` admission
        pass (release points computed vectorized on the arrival arrays;
        each released batch an offset slice of the arena), also used by
        the multi-process front-end — so the two runtimes release
        identical microbatches.

        Args:
            arenas: columnar request chunks in arrival order (e.g. from
                :func:`~repro.serving.loadgen.synthetic_request_arenas`).
            on_replan: optional callback invoked with the simulated time
                of every drift-triggered replan.

        Returns:
            The accumulated :class:`~repro.serving.metrics.ServingMetrics`.
        """
        for arena, trigger in iter_microbatch_arenas(
            arenas, self.config.max_batch_size, self.config.max_delay_ms
        ):
            if self._ovl is not None:
                arena = self.admit_arena(arena, trigger)
                if arena is None:
                    continue
            self._execute(
                arena.batch, trigger, arena.arrival_ms, on_replan,
                deadlines_ms=arena.deadline_ms, priorities=arena.priority,
            )
        return self.metrics

    def admit_arena(
        self, arena: RequestArena, trigger_ms: float
    ) -> RequestArena | None:
        """Run one released microbatch through overload admission.

        Applies the controller's shed decisions (overflow, then
        priority, then deadline doom — see
        :meth:`~repro.serving.overload.OverloadController.admit`),
        records each shed slice by cause and priority class, and
        returns the surviving sub-arena (``None`` when the whole batch
        was shed; the arena unchanged when admission does not apply).
        """
        ctrl = self._ovl
        if ctrl is None or not ctrl.control.admission_for(arena.has_qos):
            return arena
        keep, sheds = ctrl.admit(
            trigger_ms,
            self._busy_until_ms,
            arena.arrival_ms,
            arena.deadline_ms,
            arena.priority,
            arena.request_lookups,
        )
        for cause, mask in sheds:
            self.metrics.record_shed(
                int(mask.sum()),
                cause=cause,
                priorities=(
                    arena.priority[mask]
                    if arena.priority is not None
                    else None
                ),
            )
        if keep.all():
            return arena
        if not keep.any():
            return None
        return arena.take(keep)

    # ------------------------------------------------------------------
    # Shared batch execution and replanning
    # ------------------------------------------------------------------
    def _execute(
        self,
        batch: JaggedBatch,
        trigger_ms: float,
        arrivals_ms,
        on_replan: Callable[[float], None] | None,
        deadlines_ms=None,
        priorities=None,
    ) -> None:
        """Execute one released microbatch and account it."""
        start, brownout_now = self._begin_batch(trigger_ms)
        device_times, accesses, _, replicas = self.executor.run_batch(batch)
        finish = self._finish_batch(
            start, brownout_now, device_times, accesses, replicas,
            batch.total_lookups, arrivals_ms, deadlines_ms, priorities,
        )
        if self.sharder is None:
            return
        # Two deliberate accumulators: the monitor watches *all* served
        # traffic (cheap per-feature tallies, accurate drift signal);
        # the profiler Bernoulli-subsamples at profile_sample_rate to
        # bound the cost of the full per-row counts a replan needs.
        self.monitor.observe(batch)
        self._profiler.consume(batch)
        self._batches_since_check += 1
        if self._batches_since_check >= self.config.drift_check_every_batches:
            self._batches_since_check = 0
            if self.monitor.should_replan():
                self._replan(finish, on_replan)

    def _begin_batch(self, trigger_ms: float) -> tuple[float, bool]:
        """Engine-independent step before a released batch executes.

        Fixes the batch's start on the busy clock, delivers the chaos
        faults due by its trigger, commits a pending emergency plan
        whose delay has elapsed, and takes the brownout decision.
        Returns ``(start_ms, brownout_now)``.  The multi-process
        aggregator calls this same step around its reduction, which is
        what keeps the two runtimes' metrics bit-identical.
        """
        start = max(trigger_ms, self._busy_until_ms)
        if self._chaos_armed:
            self._apply_due_faults(trigger_ms, start)
            if self._pending_install is not None:
                self._maybe_commit_emergency(start)
        ctrl = self._ovl
        if ctrl is None or not ctrl.control.brownout:
            return start, False
        active = ctrl.update_brownout()
        if active != self.executor.brownout_active:
            self.executor.set_brownout(active)
            self.metrics.record_brownout(start, active)
        return start, active

    def _finish_batch(
        self, start_ms, brownout_now, device_times, accesses, replicas,
        lookups, arrivals_ms, deadlines_ms=None, priorities=None,
    ) -> float:
        """Account one executed batch; returns its finish time.

        Advances the busy clock by the slowest device plus the per-batch
        overhead, records the batch, and feeds the overload
        controller's service-time estimate with the batch's full
        ``lookups`` count (before brownout or fault reductions).
        """
        service = float(device_times.max()) + self.config.overhead_ms_per_batch
        finish = start_ms + service
        self._busy_until_ms = finish
        faults_active = self._chaos_armed and self.executor.has_faults
        self.metrics.record_batch(
            arrivals_ms,
            start_ms=start_ms,
            finish_ms=finish,
            device_times_ms=device_times,
            # Every lookup lands in exactly one (tier, device) cell, so
            # the access matrix already totals the batch's lookups.
            total_lookups=int(accesses.sum()),
            tier_accesses=accesses,
            replica_accesses=(
                replicas
                if self.executor.plan.replica_rows is not None
                else None
            ),
            dropped_lookups=(
                self.executor.last_dropped.copy() if faults_active else None
            ),
            deadlines_ms=deadlines_ms,
            priorities=priorities,
            browned_lookups=(
                self.executor.last_browned.copy() if brownout_now else None
            ),
        )
        if self._ovl is not None:
            self._ovl.observe_batch(
                service,
                lookups,
                finish - np.asarray(arrivals_ms, dtype=np.float64),
            )
        return finish

    def _replan(
        self, now_ms: float, on_replan: Callable[[float], None] | None = None
    ) -> None:
        """Re-shard from the observed profile and hot-swap the executor.

        The build happens off the simulated critical path (the clock
        does not advance), warm-started from the outgoing plan when the
        sharder supports it; the wall-clock build cost is recorded so
        re-shard overhead stays observable.
        """
        build_start = time.perf_counter()
        observed = self._profiler.finish()
        plan = self._build_plan(observed, warm_start=self.plan)
        self._install(plan, observed)
        build_ms = (time.perf_counter() - build_start) * 1e3
        self.metrics.record_replan(now_ms, build_wall_ms=build_ms)
        if on_replan is not None:
            on_replan(now_ms)

    # ------------------------------------------------------------------
    # Fault injection and emergency recovery (chaos drills)
    # ------------------------------------------------------------------
    def _apply_due_faults(self, now_ms: float, start_ms: float) -> None:
        """Deliver every scheduled fault due by ``now_ms``.

        ``start_ms`` is when the triggering batch actually executes —
        the first moment rerouting is in effect, so it closes the
        ``time_to_reroute`` interval.
        """
        for event in self._injector.pop_due(now_ms):
            self.metrics.record_fault(
                event.at_ms, event.kind, event.target, event.describe()
            )
            if event.kind == "device_fail":
                self.executor.fail_device(event.target)
                self.metrics.open_fault_window(event.at_ms)
                self.metrics.record_recovery(
                    "reroute", event.at_ms, start_ms
                )
                self._start_emergency_replan(event.at_ms)
            elif event.kind == "device_degrade":
                self.executor.degrade_device(event.target, event.slowdown)
                if self._ovl is not None:
                    # A degraded device is a known latency cliff: force
                    # brownout rather than waiting for the windowed p99
                    # to discover it.
                    self._ovl.notify_degrade()
            elif event.kind == "device_recover":
                self.executor.recover_device(event.target)
                if self._ovl is not None:
                    self._ovl.notify_recover()
                if not self.executor.dead_devices:
                    # Full topology restored: the evacuation plan under
                    # construction is moot, and degraded service ends.
                    self._pending_install = None
                    self._close_open_windows(event.at_ms)

    def _start_emergency_replan(self, fault_ms: float) -> None:
        """Build a warm-start plan onto the surviving devices.

        The build runs synchronously here (off the simulated critical
        path, like drift replans) but *commits* only once its modelled
        cost has elapsed on the serving clock — the window in which
        serving runs degraded on the replica lane alone.  That delay is
        :meth:`_rematerialize_ms` (or the pinned
        ``emergency_commit_ms``), never the measured build time, so a
        drill's simulated timeline is the same on any host; the wall
        build time is kept as an observation only.  Fixed-plan servers
        have no sharder to rebuild with, so they stay in degraded mode
        until a recover event.
        """
        if self.sharder is None:
            return
        build_start = time.perf_counter()
        plan = self._build_emergency_plan()
        build_ms = (time.perf_counter() - build_start) * 1e3
        delay = (
            self._emergency_commit_ms
            if self._emergency_commit_ms is not None
            else self._rematerialize_ms(plan)
        )
        self._pending_install = (
            plan, self.profile, fault_ms + delay, fault_ms, build_ms
        )

    def _build_emergency_plan(self):
        """Re-shard the current profile onto the surviving devices.

        The sharder plans in a compacted index space (a reduced
        topology holding only survivors, with the replica budget still
        carved out of its fastest tier); the outgoing plan is
        translated into that space as a warm start, with dead-homed
        tables hinted round-robin across survivors; the result is
        mapped back to physical device ids and the replica set
        recomputed so the executor keeps serving in physical space.
        """
        surviving = [int(d) for d in np.flatnonzero(self.executor._device_alive)]
        if not surviving:
            raise RuntimeError("no surviving devices to replan onto")
        compact = {device: i for i, device in enumerate(surviving)}
        spill = itertools.count()
        homes = [
            compact[p.device]
            if p.device in compact
            else next(spill) % len(surviving)
            for p in self.plan
        ]
        return self._build_plan(
            self.profile, warm_start=_with_devices(self.plan, homes),
            surviving=surviving,
        )

    def _rematerialize_ms(self, plan) -> float:
        """Modelled commit delay of ``plan`` replacing the active plan.

        Each home placement's rows that land in a (device, tier) cell
        the active plan did not already fill — every row of a table
        that changes device, the net gain of a tier on the same device
        — are written at that tier's bandwidth; devices fill in
        parallel, so the busiest device sets the delay.
        """
        busy_s = np.zeros(self.topology.num_devices)
        for old, new in zip(self.plan, plan):
            row_bytes = self.model.tables[new.table_index].row_bytes
            for t, tier in enumerate(self.topology.tiers):
                rows = new.rows_per_tier[t]
                if old.device == new.device:
                    rows = max(0, rows - old.rows_per_tier[t])
                busy_s[new.device] += tier.seconds_for_bytes(
                    rows * tier.row_bytes_for(row_bytes)
                )
        return float(busy_s.max()) * 1e3

    def _maybe_commit_emergency(self, start_ms: float) -> None:
        """Swap in the pending emergency plan once its commit delay has
        elapsed on the serving clock."""
        plan, profile, commit_at, fault_ms, build_ms = self._pending_install
        if start_ms < commit_at:
            return
        self._install(plan, profile)
        self._pending_install = None
        self.metrics.record_replan(commit_at, build_wall_ms=build_ms)
        self.metrics.record_recovery(
            "replan", fault_ms, commit_at, wall_ms=build_ms
        )
        self._close_open_windows(commit_at)

    def _close_open_windows(self, now_ms: float) -> None:
        while any(w[1] is None for w in self.metrics.fault_windows):
            self.metrics.close_fault_window(now_ms)


def _with_devices(plan: ShardingPlan, devices) -> ShardingPlan:
    """``plan`` with table ``i`` re-homed on ``devices[i]``."""
    return ShardingPlan(
        strategy=plan.strategy,
        placements=[
            TablePlacement(p.table_index, device, p.rows_per_tier)
            for p, device in zip(plan, devices)
        ],
        metadata=dict(plan.metadata),
    )
