"""Self-healing worker pool: respawn, requeue, budget, chaos parity.

The supervisor contract under ``worker_kill`` drills (and real
crashes): dead workers are replaced with exponential backoff while the
respawn budget lasts, every batch still owed is requeued (duplicates
absorbed by the result protocol), and the merged metrics of a healed
run stay bit-identical to a single-process run of the same stream —
crashing and healing the pool must be invisible on the simulated
clock.  Device chaos on the pool runs the spine's reroute-only
degraded mode and must match the equivalent single-process server.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.core import (
    RecShardFastSharder,
    ReplicationPolicy,
    plan_with_replication,
)
from repro.data.model import rm2
from repro.memory import paper_node, paper_scales
from repro.serving import (
    FaultSchedule,
    LookupServer,
    MultiProcessServer,
    ServingConfig,
    WorkerCrashError,
    device_fail,
    synthetic_request_arenas,
    worker_kill,
)
from repro.engine import ShardedExecutor
from repro.serving.arena import SHM_NAME_PREFIX
from repro.serving.mp import _worker_main
from repro.stats import analytic_profile

FEATURES = 25
GPUS = 2
TOPO_SCALE, ROW_SCALE = paper_scales(FEATURES, GPUS)
CONFIG = ServingConfig(max_batch_size=64, max_delay_ms=1.0)
QPS = 50_000.0


def small_world(replicated: bool = False):
    model = rm2(num_features=FEATURES, row_scale=ROW_SCALE)
    profile = analytic_profile(model)
    topology = paper_node(num_gpus=GPUS, scale=TOPO_SCALE)
    sharder = RecShardFastSharder(batch_size=256)
    if replicated:
        policy = ReplicationPolicy(
            capacity_bytes=int((1 << 30) * TOPO_SCALE)
        )
        plan = plan_with_replication(
            sharder, model, profile, topology, policy
        )
    else:
        plan = sharder.shard(model, profile, topology)
    return model, profile, topology, plan


def stream(model, n=1024, seed=3):
    return list(synthetic_request_arenas(model, n, qps=QPS, seed=seed))


def live_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover
        return set()
    return {
        n for n in os.listdir("/dev/shm") if n.startswith(SHM_NAME_PREFIX)
    }


# ----------------------------------------------------------------------
# Worker-kill drill: heal and stay bit-identical
# ----------------------------------------------------------------------
def test_worker_kill_drill_heals_and_matches_single_process():
    model, profile, topology, plan = small_world()
    arenas = stream(model)
    single = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG
    ).serve_arenas(arenas)
    before = live_segments()
    chaos = FaultSchedule([worker_kill(5.0, 1)])
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, chaos=chaos, result_timeout_s=30.0,
    ) as pool:
        merged = pool.serve_arenas(arenas)
        assert pool.respawn_count == 1
        assert any("killed" in line for line in pool.worker_fault_log)
        assert any("respawned" in line for line in pool.worker_fault_log)
    # Healing is invisible on the simulated clock: merged metrics are
    # bit-identical to the single-process run, with no fault block
    # (worker deaths are wall-clock events, not simulated ones).
    assert merged.summary(deterministic_only=True) == single.summary(
        deterministic_only=True
    )
    assert not merged.fault_events
    assert live_segments() - before == set()


def test_kill_sentinel_delivers_results_put_before_it():
    """A worker that classifies one batch and then takes the kill
    sentinel must deliver that batch's ok result: it exits only after
    the result queue's feeder thread has flushed.  An exit that beats
    the feeder loses the result (and can leave the result queue's
    write lock held, hanging the pool).  The exit races the feeder,
    so several workers are drilled in turn."""
    model, profile, topology, plan = small_world()
    arena = stream(model, n=64)[0]
    expected = ShardedExecutor(
        model, plan, profile, topology
    ).classify_batch(arena.batch)
    spec = (model, plan, profile, topology, None, None)
    resource_tracker.ensure_running()
    ctx = multiprocessing.get_context()
    owner = arena.to_shm()
    try:
        for worker_id in range(6):
            tasks, results = ctx.Queue(), ctx.Queue()
            tasks.put((0, owner.handle))
            tasks.put((-1, None))
            worker = ctx.Process(
                target=_worker_main,
                args=(worker_id, spec, tasks, results),
                daemon=True,
            )
            worker.start()
            worker.join(timeout=60.0)
            assert worker.exitcode == 1
            result = results.get(timeout=5.0)
            assert result[:3] == ("ok", 0, worker_id)
            for got, want in zip(result[3:], expected):
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, want)
    finally:
        owner.close()
        owner.unlink()


def test_repeated_kills_heal_within_budget():
    model, profile, topology, plan = small_world()
    chaos = FaultSchedule(
        [worker_kill(2.0, 0), worker_kill(8.0, 1), worker_kill(14.0, 0)]
    )
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, chaos=chaos, max_respawns=3, result_timeout_s=30.0,
        respawn_backoff_s=0.01,
    ) as pool:
        metrics = pool.serve_arenas(stream(model, n=2048))
        assert pool.respawn_count == 3
    assert metrics.num_requests == 2048


def test_budget_exhaustion_raises_with_context():
    model, profile, topology, plan = small_world()
    before = live_segments()
    pool = MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, chaos=FaultSchedule([worker_kill(0.0, 0)]),
        max_respawns=0, result_timeout_s=10.0,
    )
    with pytest.raises(WorkerCrashError, match="respawn budget exhausted"):
        pool.serve_arenas(stream(model))
    assert not pool.started
    assert live_segments() - before == set()


def test_real_crash_heals_like_a_scripted_one():
    """An unscripted SIGKILL mid-stream (not via chaos) is healed by
    the same supervisor path."""
    model, profile, topology, plan = small_world()
    arenas = stream(model, n=2048)
    single = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG
    ).serve_arenas(arenas)
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, result_timeout_s=30.0,
    ) as pool:
        pool.start()
        pool.kill_worker(0)
        merged = pool.serve_arenas(arenas)
        assert pool.respawn_count >= 1
    assert merged.summary(deterministic_only=True) == single.summary(
        deterministic_only=True
    )


# ----------------------------------------------------------------------
# Device chaos on the pool (reroute-only degraded mode)
# ----------------------------------------------------------------------
def test_device_chaos_parity_with_single_process():
    model, profile, topology, plan = small_world(replicated=True)
    arenas = stream(model, n=2048)

    def schedule():
        return FaultSchedule([device_fail(10.0, 1)])

    single = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG,
        chaos=schedule(),
    ).serve_arenas(arenas)
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, chaos=schedule(),
    ) as pool:
        merged = pool.serve_arenas(arenas)
    assert merged.summary(deterministic_only=True) == single.summary(
        deterministic_only=True
    )
    assert merged.dropped_lookups == single.dropped_lookups > 0
    np.testing.assert_array_equal(
        merged.dropped_per_device, single.dropped_per_device
    )
    assert merged.time_to_reroute_ms == single.time_to_reroute_ms


def test_mixed_drill_device_and_worker_faults_together():
    model, profile, topology, plan = small_world(replicated=True)
    arenas = stream(model, n=2048)
    chaos = FaultSchedule([device_fail(10.0, 1), worker_kill(6.0, 0)])
    single = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG,
        chaos=FaultSchedule([device_fail(10.0, 1)]),
    ).serve_arenas(arenas)
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, chaos=chaos, result_timeout_s=30.0,
    ) as pool:
        merged = pool.serve_arenas(arenas)
        assert pool.respawn_count == 1
    assert merged.summary(deterministic_only=True) == single.summary(
        deterministic_only=True
    )


def test_pool_reset_disarms_then_rearm_replays():
    model, profile, topology, plan = small_world(replicated=True)
    arenas = stream(model)
    chaos = FaultSchedule([device_fail(10.0, 1), worker_kill(6.0, 1)])
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=2, chaos=chaos, result_timeout_s=30.0,
    ) as pool:
        first = pool.serve_arenas(arenas)
        assert first.dropped_lookups > 0
        pool.reset_serving_state()
        healthy = pool.serve_arenas(arenas)
        assert healthy.dropped_lookups == 0 and not healthy.fault_events
        pool.reset_serving_state(rearm_chaos=True)
        replay = pool.serve_arenas(arenas)
    assert replay.summary(deterministic_only=True) == first.summary(
        deterministic_only=True
    )


# ----------------------------------------------------------------------
# Constructor validation
# ----------------------------------------------------------------------
def test_pool_constructor_validation():
    model, profile, topology, plan = small_world()
    with pytest.raises(ValueError, match="max_respawns"):
        MultiProcessServer(
            model, profile, topology, plan=plan, config=CONFIG,
            workers=2, max_respawns=-1,
        )
    with pytest.raises(ValueError, match="respawn_backoff_s"):
        MultiProcessServer(
            model, profile, topology, plan=plan, config=CONFIG,
            workers=2, respawn_backoff_s=-0.1,
        )
    with pytest.raises(ValueError, match="only 2 workers"):
        MultiProcessServer(
            model, profile, topology, plan=plan, config=CONFIG,
            workers=2, chaos=FaultSchedule([worker_kill(1.0, 5)]),
        )
