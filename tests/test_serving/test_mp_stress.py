"""Overload, soak, and failure behavior of the multi-process runtime.

Three properties a serving front-end must not lose under stress:

* **bounded overload** — offered load beyond the pool's capacity sheds
  at the bounded task queue instead of queueing without bound, with
  exact accounting (``offered == served + shed``);
* **clean shutdown** — after a soak the pool tears down promptly and
  leaves no worker processes or shared-memory segments behind;
* **fail loud** — with the respawn budget disabled
  (``max_respawns=0``) a dead worker surfaces as
  :class:`~repro.serving.mp.WorkerCrashError` instead of a hang (every
  wait in the front-end is timeout-guarded); the self-healing default
  path is exercised in ``test_mp_selfheal.py``.

The ~10 s bursty soak is marked ``slow`` (tier-1 excludes it; CI runs
it in the dedicated slow step); the crash and shutdown tests are fast
and run in tier-1.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.core import RecShardFastSharder
from repro.data.model import rm2
from repro.engine.executor import ShardedExecutor
from repro.memory import paper_node, paper_scales
from repro.serving import (
    BurstyArrivals,
    MultiProcessServer,
    ServingConfig,
    WorkerCrashError,
    synthetic_request_arenas,
)
from repro.serving.arena import SHM_NAME_PREFIX
from repro.serving.metrics import ServingMetrics
from repro.stats import analytic_profile

FEATURES = 25
GPUS = 2
TOPO_SCALE, ROW_SCALE = paper_scales(FEATURES, GPUS)

CONFIG = ServingConfig(max_batch_size=64, max_delay_ms=1.0)


def small_world():
    model = rm2(num_features=FEATURES, row_scale=ROW_SCALE)
    profile = analytic_profile(model)
    topology = paper_node(num_gpus=GPUS, scale=TOPO_SCALE)
    plan = RecShardFastSharder(batch_size=256).shard(
        model, profile, topology
    )
    return model, profile, topology, plan


def live_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover
        return set()
    return {
        n for n in os.listdir("/dev/shm") if n.startswith(SHM_NAME_PREFIX)
    }


def test_worker_crash_surfaces_instead_of_hanging():
    """Kill the whole pool mid-stream with respawns disabled: the
    front-end must raise WorkerCrashError within its timeout, clean up
    every in-flight segment, and shut the pool down."""
    model, profile, topology, plan = small_world()
    arenas = list(
        synthetic_request_arenas(model, 512, qps=1e9, seed=3)
    )
    before = live_segments()
    pool = MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, result_timeout_s=10.0, max_respawns=0,
    )
    pool.start()
    pool.kill_worker(0)
    pool.kill_worker(1)
    started = time.perf_counter()
    with pytest.raises(WorkerCrashError, match="died"):
        pool.serve_arenas(arenas)
    # Guarded, not hung: the failure surfaced well inside the timeout
    # budget plus slack.
    assert time.perf_counter() - started < 30.0
    assert not pool.started
    assert live_segments() - before == set()


def test_worker_error_is_reported_with_context():
    """An err result for a batch still owed aborts the run with the
    worker's id and batch seq; stale errs (seq no longer owed, e.g.
    after a crash-triggered requeue duplicated the task) are dropped."""
    model, profile, topology, plan = small_world()
    arenas = list(synthetic_request_arenas(model, 256, qps=1e9, seed=5))
    before = live_segments()
    pool = MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=1, result_timeout_s=10.0,
    )
    pool.start()
    owner = arenas[0].to_shm()
    pending = {0: (owner, np.array(arenas[0].arrival_ms), 0.0)}
    pool._result_q.put(("err", 0, 0, "ValueError: boom"))
    with pytest.raises(RuntimeError, match="worker 0 failed on batch 0"):
        for _ in range(60):  # bounded wait for the err to feed through
            pool._drain(pending, {}, 0, block_s=0.5)
        pytest.fail("worker error never surfaced")
    # In the real loop _run's abort path retires pending segments; here
    # the test is the caller.
    owner.close()
    owner.unlink()
    # An err for a seq nobody owes is stale — ignored, not fatal.
    pool._result_q.put(("err", 99, 0, "ValueError: stale duplicate"))
    time.sleep(0.2)
    pool._drain({}, {}, 0, block_s=0.5)
    assert all(p.is_alive() for p in pool._procs)
    pool.close()
    assert live_segments() - before == set()


def test_vanished_segment_reports_gone_not_fatal():
    """A worker handed a handle whose segment was already unlinked
    reports ``gone`` and stays alive: the duplicate-tolerant protocol
    treats it as a stale requeue artifact, not an error."""
    model, profile, topology, plan = small_world()
    arenas = list(synthetic_request_arenas(model, 256, qps=1e9, seed=5))
    before = live_segments()
    pool = MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=1, result_timeout_s=10.0,
    )
    pool.start()
    owner = arenas[0].to_shm()
    handle = owner.handle
    owner.close()
    owner.unlink()
    pool._task_qs[0].put((0, handle))
    deadline = time.perf_counter() + 10.0
    gone = None
    while time.perf_counter() < deadline:
        try:
            gone = pool._result_q.get(timeout=0.5)
            break
        except Exception:
            continue
    assert gone is not None and gone[0] == "gone" and gone[1] == 0
    assert all(p.is_alive() for p in pool._procs)
    # And a normal stream still runs afterwards on the same pool.
    metrics = pool.serve_arenas(arenas)
    assert metrics.num_requests == 256
    pool.close()
    assert live_segments() - before == set()


def test_keyboard_interrupt_leaves_shm_clean():
    """Ctrl-C mid-stream (raised from the accounting hot path) must
    tear the pool down and unlink every in-flight segment."""
    model, profile, topology, plan = small_world()
    arenas = list(synthetic_request_arenas(model, 512, qps=1e9, seed=7))
    before = live_segments()
    pool = MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, result_timeout_s=10.0,
    )
    real_account = pool._account
    calls = {"n": 0}

    def interrupting(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise KeyboardInterrupt
        return real_account(*args, **kwargs)

    pool._account = interrupting
    with pytest.raises(KeyboardInterrupt):
        pool.serve_arenas(arenas)
    assert calls["n"] >= 3
    assert not pool.started
    assert live_segments() - before == set()


def test_clean_shutdown_leaves_nothing_behind():
    """Idle start/stop and post-serve stop both leave no processes,
    no segments, and close() is idempotent."""
    model, profile, topology, plan = small_world()
    before = live_segments()
    pool = MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG, workers=2
    )
    pool.start()
    procs = list(pool._procs)
    arenas = list(synthetic_request_arenas(model, 256, qps=1e9, seed=9))
    metrics = pool.serve_arenas(arenas)
    assert metrics.num_requests == 256
    pool.close()
    pool.close()
    assert not pool.started
    for proc in procs:
        assert not proc.is_alive()
    assert live_segments() - before == set()


def test_paced_overload_sheds_exactly(monkeypatch):
    """A burst far past pool capacity sheds at the bounded queue with
    exact accounting; a quick fast-mode version of the soak.

    The single worker holds its first batch until the front-end has
    shed one, so the queue overflows however fast the worker runs (the
    forked worker inherits the patched classification)."""
    model, profile, topology, plan = small_world()
    arenas = list(synthetic_request_arenas(model, 1024, qps=1e9, seed=13))
    offered = sum(a.num_requests for a in arenas)
    shed_seen = mp.get_context("fork").Event()
    classify = ShardedExecutor.classify_batch
    record_shed = ServingMetrics.record_shed

    def held_classify(self, batch):
        shed_seen.wait(timeout=60)
        return classify(self, batch)

    def signalled_shed(self, *args, **kwargs):
        shed_seen.set()
        return record_shed(self, *args, **kwargs)

    monkeypatch.setattr(ShardedExecutor, "classify_batch", held_classify)
    monkeypatch.setattr(ServingMetrics, "record_shed", signalled_shed)
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=1, queue_depth=1, start_method="fork",
    ) as pool:
        metrics = pool.serve_paced(arenas, speed=1e6)
    assert metrics.shed_requests > 0
    assert metrics.num_requests + metrics.shed_requests == offered
    assert "overload shedding" in metrics.format_report()
    assert metrics.summary()["shed_requests"] == metrics.shed_requests


@pytest.mark.slow
def test_bursty_soak_stays_bounded_and_sheds():
    """~10 s of bursty arrivals at ~2x the pool's sustainable rate:
    the queue stays bounded (by construction — shed beyond depth),
    some load is shed, served+shed accounting is exact, and shutdown
    is clean."""
    model, profile, topology, plan = small_world()

    # Calibrate the sustainable rate from a short closed-loop run, then
    # offer bursts at ~4x it (2x on average over the duty cycle).
    calib = list(synthetic_request_arenas(model, 2048, qps=1e9, seed=21))
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG, workers=2
    ) as pool:
        t0 = time.perf_counter()
        pool.serve_arenas(calib)
        sustainable_qps = 2048 / (time.perf_counter() - t0)

    process = BurstyArrivals(
        burst_qps=4.0 * sustainable_qps,
        idle_qps=0.05 * sustainable_qps,
        burst_ms=250.0,
        idle_ms=250.0,
    )
    soak_s = 10.0
    num_requests = int(process.mean_qps * soak_s)
    arenas = list(
        synthetic_request_arenas(
            model, num_requests, process, seed=23, chunk_size=256
        )
    )
    offered = sum(a.num_requests for a in arenas)
    before = live_segments()
    pool = MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, queue_depth=4, result_timeout_s=60.0,
    )
    procs = []
    with pool:
        procs = list(pool._procs)
        start = time.perf_counter()
        metrics = pool.serve_paced(arenas)
        elapsed = time.perf_counter() - start
    # Overloaded: shedding engaged, accounting exact, and the run took
    # roughly the offered stream's duration (bounded queueing — an
    # unbounded queue would stretch far past it draining backlog).
    assert metrics.shed_requests > 0
    assert metrics.num_requests + metrics.shed_requests == offered
    assert metrics.num_requests > 0
    assert elapsed < 4.0 * soak_s
    # Deterministic policy: reject-newest at batch granularity means
    # every recorded batch executed in full.
    assert sum(metrics.batch_sizes) == metrics.num_requests
    # Clean teardown after the soak.
    assert not pool.started
    for proc in procs:
        assert not proc.is_alive()
    assert live_segments() - before == set()
