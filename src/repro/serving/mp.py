"""Multi-process serving runtime: worker pool over shared-memory arenas.

Everything the repo measured before this module ran in one Python
process, so every QPS figure was simulated-clock only.  This runtime
puts the columnar fast path under *real* concurrency, in the shape
production stacks use (TorchRec inference: a batching queue feeding a
pool of executor workers):

* the **front-end** (one process) runs the shared admission pass
  (:func:`~repro.serving.queue.iter_microbatch_arenas`), packs each
  released microbatch into a shared-memory segment
  (:meth:`~repro.serving.arena.RequestArena.to_shm`), and dispatches
  ``(seq, handle)`` tasks round-robin over bounded *per-worker* task
  queues (single producer, single consumer each — a worker that dies
  holding its queue's reader lock poisons only its own queue, which
  the self-healing supervisor discards and replaces at respawn;
  a shared MPMC queue would deadlock the whole pool);
* each **worker** process attaches the segment zero-copy, runs the
  executor's stateless *classification* (one lane code per lookup,
  counted per rank segment) on the batch, and ships the batch's one
  segment-count vector back on a results queue;
* the front-end **aggregator** replays the stateful *reduction* — count
  pooling, least-loaded replica routing, the single simulated engine
  clock — strictly in release (``seq``) order.

That classification/reduction split is what makes worker count a pure
throughput knob: replica routing and the busy-clock are sequential
cross-batch state, so they stay in one place, and the merged
:class:`~repro.serving.metrics.ServingMetrics` are **bit-identical** to
a single-process :meth:`~repro.serving.server.LookupServer.serve_arenas`
run of the same stream at any worker count — the parity the
cross-process test suite pins.  The processes parallelize the physical
CPU work (the per-lookup classification, which dominates), not the
simulated topology.

Two serving modes:

* :meth:`MultiProcessServer.serve_arenas` — closed-loop/throughput
  mode: dispatch as fast as the bounded queue admits.  Wall-clock QPS
  of this mode is what ``bench_serving_mp`` gates on.
* :meth:`MultiProcessServer.serve_paced` — open-loop mode: each
  microbatch is offered at the wall-clock time its simulated release
  dictates; when the task queue is full the batch is **shed** (rejected
  newest-first, at batch granularity) instead of queued, so overload
  keeps the queue bounded by construction and
  ``offered == served + shed`` exactly.

The plan is fixed for the lifetime of the pool (drift-triggered
replanning remains a single-process feature; a replan would invalidate
every worker's executor mid-stream).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from typing import Iterable, Iterator

import numpy as np

from repro.engine.executor import ShardedExecutor
from repro.serving.arena import RequestArena, ShmArena
from repro.serving.faults import FaultInjector, FaultSchedule
from repro.serving.metrics import ServingMetrics
from repro.serving.queue import iter_microbatch_arenas
from repro.serving.server import LookupServer, ServingConfig


class WorkerCrashError(RuntimeError):
    """The worker pool is beyond self-healing.

    The supervisor replaces crashed workers (bounded retries with
    exponential backoff, in-flight batches requeued); this error means
    the respawn budget is exhausted — or the pool hung with work
    outstanding — so the front-end aborts instead of blocking forever
    on the results queue, the hang-free failure mode the stress suite
    asserts.  Construct the pool with ``max_respawns=0`` to make any
    crash fatal immediately (the pre-self-healing behavior).
    """


def _worker_main(worker_id, spec, task_queue, result_queue):
    """Worker process body: classify microbatches until told to stop.

    Builds its own :class:`~repro.engine.executor.ShardedExecutor` from
    the picklable ``spec`` (spawn-safe; under fork this is cheap and
    keeps the code path identical), then loops: attach the task's
    shared-memory arena, run the stateless classification, close the
    mapping, ship the segment-count vector back.  A ``None`` task is the
    shutdown sentinel; a negative seq is the scripted-crash sentinel
    (``worker_kill`` drills — hard ``os._exit(1)`` once the results
    already put have been flushed).
    Per-task exceptions are reported as ``err`` results rather than
    killing the worker; only queue-level failures end the loop.

    A vanished segment (``FileNotFoundError`` on attach) is reported as
    a ``gone`` result instead of an error: after a crash-triggered
    requeue the same seq can sit in the task queue twice, and whichever
    copy loses the race attaches a segment the front-end has already
    retired.  The front-end drops ``gone`` results for satisfied seqs.
    """
    model, plan, profile, topology, cache, staging = spec
    executor = ShardedExecutor(
        model, plan, profile, topology, cache=cache, staging=staging
    )
    while True:
        task = task_queue.get()
        if task is None:
            break
        seq, handle = task
        if seq < 0:
            # Scripted worker_kill: die hard (exit code 1).  get()
            # released the task queue's reader lock before returning,
            # but the result queue's feeder thread may still be writing
            # an earlier put() while holding that queue's cross-process
            # write lock — and the result queue is never replaced.
            # Flush and join the feeder first, so the exit neither
            # loses a result nor leaves the lock held.  (SIGKILL-ing a
            # worker blocked *inside* get() would leave the task
            # queue's lock held forever.)
            result_queue.close()
            result_queue.join_thread()
            os._exit(1)
        try:
            shm = ShmArena.attach(handle)
            try:
                counts = executor.classify_batch(shm.arena.batch)
            finally:
                shm.close()
            result_queue.put(("ok", seq, worker_id, counts))
        except FileNotFoundError:
            result_queue.put(("gone", seq, worker_id))
        except Exception as exc:  # surfaced, never swallowed into a hang
            result_queue.put(
                ("err", seq, worker_id, f"{type(exc).__name__}: {exc}")
            )


class MultiProcessServer:
    """Serve a fixed sharding plan with a pool of worker processes.

    Construction mirrors :class:`~repro.serving.server.LookupServer`
    (same ``plan=``/``sharder=`` choice, cache/staging/replication
    lanes, :class:`~repro.serving.server.ServingConfig` tunables) — a
    ``sharder`` is used once to build the initial plan and then
    dropped, because the pool serves a frozen plan.  The front-end
    keeps an in-process :class:`LookupServer` as the aggregation spine:
    its executor performs the sequential reductions and its metrics
    object accumulates the merged results, so summaries and reports
    come out in exactly the single-process schema.

    Args:
        model, profile, topology, plan, sharder, config, cache,
        staging, replication: as for ``LookupServer``.
        workers: worker process count (>= 1).
        queue_depth: aggregate task-queue bound (default
            ``2 * workers``), split evenly across the per-worker
            queues — the backpressure knob; also what overload
            shedding pushes against in paced mode.
        start_method: multiprocessing start method (``"fork"``,
            ``"spawn"``, ...); ``None`` uses the platform default.
        result_timeout_s: longest the front-end will wait on the
            results queue with work outstanding before declaring the
            pool wedged (:class:`WorkerCrashError`).
        chaos: optional :class:`~repro.serving.faults.FaultSchedule`.
            ``worker_kill`` events SIGKILL pool workers on the serving
            clock (the self-healing supervisor's drill); device events
            are applied to the aggregation spine's executor in batch
            order — replicated lookups reroute and drops are counted,
            but the pool serves a *frozen* plan, so there is no
            emergency replan here (that is the single-process
            :class:`~repro.serving.server.LookupServer`'s job).
        max_respawns: total crashed-worker replacements the supervisor
            may perform across the pool's lifetime before a crash
            becomes fatal (:class:`WorkerCrashError`); ``0`` disables
            self-healing.
        respawn_backoff_s: base of the exponential backoff slept
            before each respawn (doubles per respawn, capped at 1 s).
        overload: optional :class:`~repro.serving.overload.
            OverloadControl`, as for ``LookupServer``.  Admission runs
            on the aggregation spine; when deadline/priority shedding
            applies to a stream, the front-end drains all in-flight
            batches before each admission decision (lockstep) so the
            controller sees exactly the single-process backlog —
            brownout-only control keeps full classify parallelism
            because its transform happens at in-order reduction time.
    """

    #: poll granularity for result waits and crash checks (seconds).
    _POLL_S = 0.05

    def __init__(
        self,
        model,
        profile,
        topology,
        plan=None,
        sharder=None,
        config: ServingConfig | None = None,
        cache=None,
        staging=None,
        replication=None,
        workers: int = 2,
        queue_depth: int | None = None,
        start_method: str | None = None,
        result_timeout_s: float = 30.0,
        chaos: FaultSchedule | None = None,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
        overload=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if respawn_backoff_s < 0:
            raise ValueError("respawn_backoff_s must be >= 0")
        if chaos is not None:
            chaos.validate_targets(
                topology.num_devices, num_workers=workers
            )
        spine = LookupServer(
            model, profile, topology,
            plan=plan, sharder=sharder, config=config,
            cache=cache, staging=staging, replication=replication,
            # The spine replays the device events in batch order; worker
            # events are the supervisor's to fire.
            chaos=(
                FaultSchedule(chaos.device_events)
                if chaos is not None and chaos.device_events
                else None
            ),
            overload=overload,
        )
        # Freeze the plan: the pool never replans, so the spine's drift
        # machinery (sharder, and the monitor with its profiler) is
        # dropped; _account runs only the spine's per-batch accounting
        # steps.
        spine.sharder = None
        spine.monitor = None
        self._spine = spine
        self.workers = int(workers)
        self.queue_depth = (
            int(queue_depth) if queue_depth is not None else 2 * self.workers
        )
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.result_timeout_s = float(result_timeout_s)
        self.chaos = chaos
        self._worker_faults = (
            FaultInjector(FaultSchedule(chaos.worker_events))
            if chaos is not None and chaos.worker_events
            else None
        )
        self._worker_chaos_armed = self._worker_faults is not None
        self.max_respawns = int(max_respawns)
        self.respawn_backoff_s = float(respawn_backoff_s)
        #: workers replaced by the supervisor so far (pool lifetime).
        self.respawn_count = 0
        #: human-readable supervisor log (kills observed, respawns) —
        #: kept off ServingMetrics so merged metrics stay bit-identical
        #: to a single-process run of the same stream.
        self.worker_fault_log: list[str] = []
        self._ctx = (
            mp.get_context(start_method)
            if start_method is not None
            else mp.get_context()
        )
        self._spec = (
            model, spine.plan, spine.profile, topology, cache, staging
        )
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        # Per-worker task-queue bound: the aggregate queue_depth is
        # split across the pool's single-consumer queues.
        self._per_worker_depth = max(1, self.queue_depth // self.workers)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    @property
    def config(self) -> ServingConfig:
        return self._spine.config

    @property
    def plan(self):
        return self._spine.plan

    @property
    def metrics(self) -> ServingMetrics:
        return self._spine.metrics

    def reset_serving_state(self, rearm_chaos: bool = False) -> None:
        """Start an independent stream on the same plan and worker pool.

        Resets the aggregator spine (metrics, simulated clock, replica
        routing history, device fault state) without restarting workers
        — their classify pass is stateless, so only the front-end
        carries stream state.  As in the single-process server, the
        chaos script is disarmed unless ``rearm_chaos=True``; the
        supervisor's respawn budget and count are pool-lifetime and
        not reset.
        """
        self._spine.reset_serving_state(rearm_chaos=rearm_chaos)
        if self._worker_faults is not None:
            self._worker_faults.reset()
            self._worker_chaos_armed = rearm_chaos

    def start(self) -> "MultiProcessServer":
        """Spawn the worker pool (idempotent)."""
        if self.started:
            return self
        # Start the parent's shared-memory resource tracker *before*
        # forking, so workers inherit it instead of lazily spawning
        # their own: attach-side registrations then collapse (set
        # semantics) with the owner's, and the owner's unlink clears
        # the single entry — no spurious "leaked shared_memory object"
        # warnings at worker exit, while the tracker's crash-cleanup
        # net stays intact.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._task_qs = [
            self._ctx.Queue(maxsize=self._per_worker_depth)
            for _ in range(self.workers)
        ]
        self._result_q = self._ctx.Queue()
        self._procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(i, self._spec, self._task_qs[i], self._result_q),
                daemon=True,
                name=f"recshard-worker-{i}",
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        return self

    def close(self, timeout_s: float = 5.0) -> None:
        """Shut the pool down cleanly (idempotent).

        Live workers get one ``None`` sentinel each and a join window;
        stragglers (and already-crashed workers) are terminated.  Queues
        are drained and closed so their feeder threads exit.
        """
        if not self.started:
            return
        deadline = time.perf_counter() + timeout_s
        # One sentinel per live worker, on its own queue.  Retry while
        # the worker drains a full queue rather than dropping the
        # sentinel — a dropped sentinel would leave it blocked in
        # get() for the whole join window.
        owed = {
            i for i, p in enumerate(self._procs) if p.is_alive()
        }
        while owed and time.perf_counter() < deadline:
            for index in sorted(owed):
                try:
                    self._task_qs[index].put(None, timeout=0.05)
                    owed.discard(index)
                except queue_mod.Full:
                    pass
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.perf_counter()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for q in self._task_qs:
            # Task queues may be poisoned (a worker SIGKILLed inside
            # get() keeps the reader lock) — drain best-effort and
            # never wait on the feeder thread.
            try:
                while True:
                    q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                pass
            q.close()
            q.cancel_join_thread()
        try:
            while True:
                self._result_q.get_nowait()
        except (queue_mod.Empty, OSError, ValueError):
            pass
        self._result_q.close()
        self._result_q.join_thread()
        self._procs = []
        self._task_qs = []
        self._result_q = None

    def kill_worker(self, index: int) -> None:
        """Hard-kill one worker (SIGKILL, no cleanup).

        The blast radius is the worker's own single-consumer task
        queue (discarded at respawn); scripted ``worker_kill`` drills
        prefer the lock-safe die sentinel and only fall back to this.
        """
        if not self.started:
            raise ValueError("pool is not started")
        self._procs[index].kill()
        self._procs[index].join(timeout=5.0)

    def __enter__(self) -> "MultiProcessServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving modes
    # ------------------------------------------------------------------
    def serve_arenas(self, arenas: Iterable[RequestArena]) -> ServingMetrics:
        """Closed-loop mode: dispatch as fast as the queue admits.

        Batch formation, execution semantics, and merged metrics are
        bit-identical to the single-process
        :meth:`~repro.serving.server.LookupServer.serve_arenas` on the
        same stream; only the wall-clock cost of classification is
        spread across the pool.  Raises :class:`WorkerCrashError` if a
        worker dies (or the pool hangs) with work outstanding.
        """
        self.start()
        released = iter_microbatch_arenas(
            arenas, self.config.max_batch_size, self.config.max_delay_ms
        )
        return self._run(released, paced=False, speed=1.0)

    def serve_paced(
        self, arenas: Iterable[RequestArena], speed: float = 1.0
    ) -> ServingMetrics:
        """Open-loop mode: offer batches on the simulated release clock.

        Each microbatch is offered at the wall-clock time its simulated
        ``trigger_ms`` maps to (``speed`` simulated ms per wall ms; 2.0
        replays a stream twice as fast).  A full task queue sheds the
        offered batch — reject-newest, batch granularity, counted via
        :meth:`~repro.serving.metrics.ServingMetrics.record_shed` — so
        sustained overload keeps queueing bounded instead of unbounded.
        Shed batches never execute; accounting stays exact:
        ``offered == metrics.num_requests + metrics.shed_requests``.
        """
        if speed <= 0:
            raise ValueError("speed must be > 0")
        self.start()
        released = iter_microbatch_arenas(
            arenas, self.config.max_batch_size, self.config.max_delay_ms
        )
        return self._run(released, paced=True, speed=speed)

    # ------------------------------------------------------------------
    # Front-end event loop
    # ------------------------------------------------------------------
    def _run(
        self,
        released: Iterator[tuple[RequestArena, float]],
        paced: bool,
        speed: float,
    ) -> ServingMetrics:
        """Dispatch released microbatches, merge results in seq order.

        ``pending`` holds each in-flight batch's owner-side segment plus
        the accounting inputs (arrivals, trigger); ``results`` holds
        classified counts that arrived out of order.  The aggregation
        cursor advances over consecutive sequence numbers only, so
        reductions replay in release order no matter which worker
        finishes first.  All exits — normal, worker crash, worker error
        — unlink every in-flight segment before returning or raising
        (the no-orphaned-``/dev/shm`` invariant the leak tests scan
        for).
        """
        pending: dict[
            int, tuple[ShmArena, np.ndarray, float, object, object]
        ] = {}
        results: dict[int, tuple] = {}
        cursor = 0  # next seq to account
        seq = 0
        wall_start = None
        first_trigger = None
        ctrl = self._spine._ovl
        try:
            for arena, trigger in released:
                if self._worker_chaos_armed:
                    self._fire_worker_faults(trigger, pending, results)
                if paced:
                    if wall_start is None:
                        wall_start = time.perf_counter()
                        first_trigger = trigger
                    due = wall_start + (trigger - first_trigger) / (
                        1e3 * speed
                    )
                    while True:
                        now = time.perf_counter()
                        if now >= due:
                            break
                        cursor = self._drain(pending, results, cursor)
                        self._check_workers(pending, results)
                        time.sleep(min(self._POLL_S, due - now))
                if ctrl is not None and ctrl.control.admission_for(
                    arena.has_qos
                ):
                    # Lockstep barrier: the controller's backlog and
                    # EWMA state must reflect every earlier batch —
                    # exactly what the single-process loop admits
                    # against — so admission decisions (and therefore
                    # the merged metrics) stay bit-identical at any
                    # worker count.
                    cursor = self._drain_all(pending, results, cursor)
                    arena = self._spine.admit_arena(arena, trigger)
                    if arena is None:
                        continue
                arrivals = np.array(arena.arrival_ms)
                # Register the owner segment in pending *immediately*:
                # from here every exit path (shed, crash, interrupt)
                # finds and retires it — no orphan window between
                # creating the segment and dispatching the task.
                owner = arena.to_shm()
                pending[seq] = (
                    owner, arrivals, trigger,
                    arena.deadline_ms, arena.priority,
                )
                task = (seq, owner.handle)
                if paced:
                    if not self._try_dispatch(seq, task):
                        # Overload: every worker queue is full — reject
                        # the newest batch outright.  Its seq is reused
                        # by the next dispatched batch (shed batches
                        # never enter the in-order accounting stream).
                        del pending[seq]
                        owner.close()
                        owner.unlink()
                        self.metrics.record_shed(
                            arena.num_requests,
                            cause="overflow",
                            priorities=arena.priority,
                        )
                        continue
                else:
                    while not self._try_dispatch(seq, task):
                        cursor = self._drain(pending, results, cursor)
                        self._check_workers(pending, results)
                        time.sleep(self._POLL_S)
                seq += 1
                cursor = self._drain(pending, results, cursor)
            # Stream exhausted: deliver any worker faults scheduled
            # beyond the last release, then wait out the in-flight tail.
            if self._worker_chaos_armed:
                self._fire_worker_faults(float("inf"), pending, results)
            cursor = self._drain_all(pending, results, cursor)
        except BaseException:
            self._abort(pending)
            raise
        return self.metrics

    def _drain_all(self, pending: dict, results: dict, cursor: int) -> int:
        """Block until every in-flight batch is accounted.

        Used at stream end and as the lockstep barrier before an
        overload-admission decision.  Raises
        :class:`WorkerCrashError` when the pool stops producing
        results with work outstanding.
        """
        waited = 0.0
        while pending or results:
            advanced = self._drain(
                pending, results, cursor, block_s=self._POLL_S
            )
            waited = 0.0 if advanced != cursor else waited + self._POLL_S
            cursor = advanced
            self._check_workers(pending, results)
            if waited >= self.result_timeout_s:
                raise WorkerCrashError(
                    f"no results for {self.result_timeout_s:.1f} s with "
                    f"{len(pending)} batches outstanding"
                )
        return cursor

    def _try_dispatch(self, seq: int, task) -> bool:
        """Offer a task to one alive worker, round-robin from ``seq``.

        Returns False when every alive worker's queue is full (the
        aggregate backpressure signal) or no worker is alive; the
        caller then drains results, heals the pool, and retries — or
        sheds, in paced mode.
        """
        for lane in range(self.workers):
            index = (seq + lane) % self.workers
            if not self._procs[index].is_alive():
                continue
            try:
                self._task_qs[index].put_nowait(task)
                return True
            except queue_mod.Full:
                continue
        return False

    def _drain(
        self,
        pending: dict,
        results: dict,
        cursor: int,
        block_s: float = 0.0,
    ) -> int:
        """Pull available results, release their segments, account in order.

        Returns the advanced sequence cursor.  A worker-reported ``err``
        result aborts the run (after segment cleanup, via the caller's
        except path).
        """
        self._pull_results(pending, results, block_s)
        while cursor in results:
            counts = results.pop(cursor)
            _, arrivals, trigger, deadlines, priorities = pending.pop(cursor)
            self._account(counts, trigger, arrivals, deadlines, priorities)
            cursor += 1
        return cursor

    def _pull_results(
        self, pending: dict, results: dict, block_s: float = 0.0
    ) -> None:
        """Collect ready results and retire their segments (no accounting).

        Tolerates the duplicates a crash-triggered requeue can create:
        an ``ok``/``err`` for a seq that is no longer owed (already in
        ``results`` or already accounted out of ``pending``) is stale —
        its segment was retired when the first copy landed — and a
        ``gone`` result is a worker reporting exactly that staleness
        from its side.  Only an ``err`` for a seq still owed aborts.
        """
        while True:
            try:
                if block_s > 0:
                    item = self._result_q.get(timeout=block_s)
                    block_s = 0.0  # only the first get blocks
                else:
                    item = self._result_q.get_nowait()
            except queue_mod.Empty:
                break
            if item[0] == "gone":
                continue
            if item[0] == "err":
                _, err_seq, worker_id, message = item
                if err_seq in pending and err_seq not in results:
                    raise RuntimeError(
                        f"worker {worker_id} failed on batch {err_seq}: "
                        f"{message}"
                    )
                continue
            _, got_seq, _, counts = item
            if got_seq not in pending or got_seq in results:
                continue
            # The worker is done with the segment; the owner retires it.
            owner = pending[got_seq][0]
            owner.close()
            owner.unlink()
            results[got_seq] = counts

    def _account(
        self, counts, trigger_ms, arrivals_ms, deadlines_ms=None,
        priorities=None,
    ):
        """Reduce one classified batch on the spine (sequential state).

        The spine's own before/after-batch steps run around
        :meth:`~repro.engine.executor.ShardedExecutor.reduce_classified`
        exactly as ``LookupServer._execute`` runs them around
        ``run_batch`` — which is why the merged metrics match the
        single-process run bit for bit.  Device chaos events land in
        the before step; the spine has no sharder, so a device failure
        runs reroute-only degraded mode (no emergency replan on a
        frozen plan).
        """
        spine = self._spine
        start, brownout_now = spine._begin_batch(trigger_ms)
        # The full classified count, before brownout/fault reductions
        # reshape the served matrix: the single-process loop's
        # ``batch.total_lookups``.
        lookups = int(counts.sum())
        device_times, accesses, _, reps = spine.executor.reduce_classified(
            counts
        )
        spine._finish_batch(
            start, brownout_now, device_times, accesses, reps, lookups,
            arrivals_ms, deadlines_ms, priorities,
        )

    def _fire_worker_faults(
        self, trigger_ms: float, pending: dict, results: dict
    ) -> None:
        """Deliver scripted worker kills due by ``trigger_ms``.

        The die sentinel rides the victim's own task queue, so the
        worker finishes already-dequeued work and dies at a lock-free
        point (``os._exit(1)``, no cleanup, exit code 1) — the crash
        is real, but it cannot happen while the process holds a queue
        lock, which a mid-``get()`` SIGKILL would turn into a permanent
        pool deadlock.  A worker that fails to die inside the result
        timeout is SIGKILLed anyway (its queue is discarded at
        respawn).  The supervisor then heals the pool before dispatch
        continues, which is what makes the drill deterministic.
        """
        fired = False
        for event in self._worker_faults.pop_due(trigger_ms):
            self.worker_fault_log.append(event.describe())
            index = event.target
            proc = self._procs[index]
            deadline = time.perf_counter() + self.result_timeout_s
            delivered = False
            while proc.is_alive() and time.perf_counter() < deadline:
                if not delivered:
                    try:
                        self._task_qs[index].put_nowait((-1, None))
                        delivered = True
                    except queue_mod.Full:
                        pass
                self._pull_results(pending, results)
                proc.join(timeout=self._POLL_S)
            if proc.is_alive():  # wedged worker: fall back to SIGKILL
                self.kill_worker(index)
            fired = True
        if fired:
            self._check_workers(pending, results)

    def _check_workers(self, pending: dict, results: dict) -> None:
        """Self-healing supervisor: replace dead workers, requeue work.

        Each dead worker is replaced (exponential backoff, same worker
        id and queues) while the respawn budget lasts; every batch
        still owed is then requeued, because the front-end cannot know
        which seqs died with the worker.  Duplicates this creates are
        absorbed by :meth:`_pull_results`.  Budget exhausted →
        :class:`WorkerCrashError` (the caller's abort path unlinks all
        in-flight segments).
        """
        dead = [
            (index, proc)
            for index, proc in enumerate(self._procs)
            if not proc.is_alive()
        ]
        if not dead:
            return
        if self.respawn_count + len(dead) > self.max_respawns:
            detail = ", ".join(
                f"{proc.name} (exit {proc.exitcode})" for _, proc in dead
            )
            raise WorkerCrashError(
                f"worker(s) died with {len(pending)} batches in flight "
                f"and the respawn budget exhausted "
                f"({self.respawn_count}/{self.max_respawns} used): {detail}"
            )
        for index, proc in dead:
            time.sleep(
                min(self.respawn_backoff_s * 2**self.respawn_count, 1.0)
            )
            proc.join(timeout=1.0)
            # The dead worker's queue may hold undelivered tasks and —
            # if it was SIGKILLed inside get() — a permanently-held
            # reader lock.  Abandon it; owed batches are requeued below.
            old = self._task_qs[index]
            old.close()
            old.cancel_join_thread()
            self._task_qs[index] = self._ctx.Queue(
                maxsize=self._per_worker_depth
            )
            replacement = self._ctx.Process(
                target=_worker_main,
                args=(
                    index, self._spec, self._task_qs[index], self._result_q
                ),
                daemon=True,
                name=f"recshard-worker-{index}",
            )
            replacement.start()
            self._procs[index] = replacement
            self.respawn_count += 1
            self.worker_fault_log.append(
                f"respawned worker {index} "
                f"({self.respawn_count}/{self.max_respawns})"
            )
        self._requeue(pending, results)

    def _requeue(self, pending: dict, results: dict) -> None:
        """Re-dispatch every batch still owed after a worker crash.

        The shm segments of owed batches are still owner-held (they are
        only unlinked when a result lands), so re-sending the handle is
        safe; a worker that picks up a stale duplicate later reports
        ``gone``/duplicate and is ignored.
        """
        for seq in sorted(s for s in pending if s not in results):
            task = (seq, pending[seq][0].handle)
            while not self._try_dispatch(seq, task):
                self._pull_results(pending, results)
                if seq in results:
                    break  # landed after all — nothing to requeue
                if not any(p.is_alive() for p in self._procs):
                    # Nobody draining any queue; the next
                    # _check_workers pass deals with the new corpse.
                    return
                time.sleep(self._POLL_S)

    def _abort(self, pending: dict) -> None:
        """Error-path cleanup: no orphaned segments, no wedged pool."""
        for entry in pending.values():
            owner = entry[0]
            owner.close()
            owner.unlink()
        pending.clear()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        self.close(timeout_s=1.0)
