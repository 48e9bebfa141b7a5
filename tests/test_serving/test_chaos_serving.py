"""End-to-end chaos drills on the single-process serving loop.

The drill the tentpole is named for: fail a device mid-stream on a
replicated multi-tier world and check the three-stage recovery story —
(1) replicated lookups reroute immediately (masked least-loaded lane,
zero replicated lookups land on the dead device), (2) an emergency
warm-start replan onto the surviving topology commits after its
modelled re-materialization delay and stops further drops, (3) the whole timeline is measured:
``time_to_reroute_ms``, ``time_to_replan_ms``, drops, and windowed
p50/p99 before/during/after the fault.  Parity drills pin the
shipped engine against the scalar oracle (``tests.oracles``) and the
replay-determinism contracts under faults, and the
reset drills pin the satellite requirement that
``reset_serving_state()`` after a drill reproduces the no-fault
baseline bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    MultiTierSharder,
    ReplicationPolicy,
    plan_with_replication,
)
from repro.data.drift import DriftModel
from repro.data.model import rm2
from repro.memory import node_from_tier_names, paper_scales
from repro.serving import (
    FaultSchedule,
    LookupServer,
    ServingConfig,
    device_degrade,
    device_fail,
    device_recover,
    synthetic_request_arenas,
    worker_kill,
)
from repro.stats import analytic_profile
from tests.oracles.serving import ObjectServer, ScalarServer, iter_requests

FEATURES = 25
GPUS = 2
TOPO_SCALE, ROW_SCALE = paper_scales(FEATURES, GPUS)
GIB = 1 << 30

CONFIG = ServingConfig(max_batch_size=64, max_delay_ms=1.0)
QPS = 50_000.0


def three_tier_world():
    model = rm2(num_features=FEATURES, row_scale=ROW_SCALE)
    profile = analytic_profile(model)
    topology = node_from_tier_names(
        ["hbm:8", "dram:24", "ssd"], num_gpus=GPUS, scale=TOPO_SCALE
    )
    return model, profile, topology


def replicated_server(
    chaos=None, with_sharder=True, config=CONFIG, cls=LookupServer, **kwargs
):
    model, profile, topology = three_tier_world()
    policy = ReplicationPolicy(capacity_bytes=int(GIB * TOPO_SCALE))
    sharder = MultiTierSharder(batch_size=256)
    if with_sharder:
        server = cls(
            model, profile, topology, sharder=sharder, config=config,
            replication=policy, chaos=chaos, **kwargs,
        )
    else:
        plan = plan_with_replication(
            sharder, model, profile, topology, policy
        )
        server = cls(
            model, profile, topology, plan=plan, config=config,
            chaos=chaos, **kwargs,
        )
    return model, server


def stream(model, n=2048, seed=3):
    return list(synthetic_request_arenas(model, n, qps=QPS, seed=seed))


FAIL_MS = 10.0


def drill():
    return FaultSchedule([device_fail(FAIL_MS, 1)])


def replan_recoveries(metrics):
    return sum(entry["kind"] == "replan" for entry in metrics.recoveries)


# ----------------------------------------------------------------------
# The headline drill: fail -> reroute -> emergency replan -> measured
# ----------------------------------------------------------------------
def test_device_fail_drill_recovers_with_measured_timeline():
    model, server = replicated_server(chaos=drill())
    metrics = server.serve_arenas(stream(model))
    # Stage 1: the fault was detected with the next batch trigger and
    # rerouting was live from that batch on.
    assert len(metrics.fault_events) == 1
    assert metrics.fault_events[0]["kind"] == "device_fail"
    assert metrics.time_to_reroute_ms is not None
    assert 0.0 <= metrics.time_to_reroute_ms < 50.0
    # Stage 2: the emergency replan committed onto the survivors —
    # the active plan no longer places anything on device 1.  (A drift
    # replan may also fire; only the emergency one is pinned here.)
    assert metrics.time_to_replan_ms is not None
    assert replan_recoveries(metrics) == 1
    base = getattr(server.plan, "plan", server.plan)
    assert all(p.device != 1 for p in base.placements)
    # Stage 3: drops were counted (home-lane lookups on the dead
    # device between detection and replan commit), all on device 1.
    assert metrics.dropped_lookups > 0
    per_device = metrics.dropped_per_device
    assert per_device[1] == metrics.dropped_lookups
    # The windowed view has traffic in every phase and the summary
    # carries the fault block.
    phases = metrics.windowed_latency()
    assert all(phases[p]["requests"] > 0 for p in ("before", "during", "after"))
    summary = metrics.summary()
    assert summary["faults"] == 1
    assert summary["dropped_lookups"] == metrics.dropped_lookups
    assert "latency_phases" in summary
    report = metrics.format_report()
    assert "device 1 fails" in report
    assert "dropped" in report


def test_emergency_replan_stops_the_bleeding():
    """With a sharder the drops stop at replan commit; a frozen plan
    (reroute-only degraded mode) keeps dropping for the rest of the
    stream — strictly more than the self-healing server."""
    model, healing = replicated_server(chaos=drill())
    healed = healing.serve_arenas(stream(model))
    model, frozen = replicated_server(chaos=drill(), with_sharder=False)
    degraded = frozen.serve_arenas(stream(model))
    assert degraded.num_replans == 0
    assert healed.dropped_lookups < degraded.dropped_lookups
    assert replan_recoveries(healed) == 1


def test_replicated_lookups_never_land_on_dead_device():
    """The replica lane's reason to exist under failure: after the
    fault fires, zero replicated lookups route to the dead device."""
    model, server = replicated_server(chaos=drill(), with_sharder=False)
    metrics = server.serve_arenas(stream(model))
    starts = np.asarray(metrics._batch_start, dtype=np.float64)
    routed = np.stack(
        [chunk for chunk in metrics.replica_access_chunks], axis=0
    )
    fired = metrics.fault_events[0]
    after = starts >= fired["at_ms"]
    assert after.any()
    assert routed[after, 1].sum() == 0
    assert routed[after].sum() > 0  # still rerouting, not dropping


def test_deterministic_commit_override_pins_replan_time():
    model, server = replicated_server(chaos=drill(), emergency_commit_ms=2.5)
    metrics = server.serve_arenas(stream(model))
    assert metrics.time_to_replan_ms is not None
    assert metrics.time_to_replan_ms >= 2.5
    # commit lands with the first batch starting after fault+override
    assert metrics.time_to_replan_ms < 2.5 + 50.0


def test_degrade_drill_raises_tail_latency_without_drops():
    model, server = replicated_server(
        chaos=FaultSchedule([device_degrade(FAIL_MS, 0, 8.0)]),
        with_sharder=False,
    )
    metrics = server.serve_arenas(stream(model))
    assert metrics.dropped_lookups == 0
    phases = metrics.windowed_latency()
    # Degradation opens no fault window (service is degraded, not
    # interrupted), so the phase view keeps everything in "before";
    # the overall tail reflects the slowdown versus a healthy run.
    model, healthy = replicated_server(with_sharder=False)
    baseline = healthy.serve_arenas(stream(model))
    assert metrics.p99_ms > baseline.p99_ms
    assert len(metrics.fault_events) == 1


def test_recover_event_closes_the_window():
    recover_ms = 40.0
    schedule = FaultSchedule(
        [device_fail(FAIL_MS, 1), device_recover(recover_ms, 1)]
    )
    model, server = replicated_server(chaos=schedule, with_sharder=False)
    metrics = server.serve_arenas(stream(model))
    assert server.executor.dead_devices == ()
    assert len(metrics.fault_windows) == 1
    begin, end = metrics.fault_windows[0]
    assert begin == FAIL_MS and end is not None and end >= recover_ms
    # Drops happen only inside the window: batches starting after
    # recovery serve the full topology again.
    phases = metrics.windowed_latency()
    assert phases["after"]["requests"] > 0


def jitter_wall_clock(monkeypatch) -> None:
    """Make every ``perf_counter`` read advance 50-500 ms: a host
    thousands of times slower than any real one, and never the same
    step twice."""
    rng = np.random.default_rng(0)
    ticks = iter(np.cumsum(rng.uniform(0.05, 0.5, size=100_000)))
    monkeypatch.setattr(
        "repro.serving.server.time.perf_counter", lambda: float(next(ticks))
    )


def test_modelled_commit_delay_ignores_the_wall_clock(monkeypatch):
    """The default commit delay is modelled, not measured: a slow,
    jittery wall clock changes the recorded build time and nothing on
    the simulated clock."""
    model, server = replicated_server(chaos=drill())
    baseline = server.serve_arenas(stream(model))
    jitter_wall_clock(monkeypatch)
    model, slow = replicated_server(chaos=drill())
    jittered = slow.serve_arenas(stream(model))
    assert jittered.summary(deterministic_only=True) == baseline.summary(
        deterministic_only=True
    )
    assert replan_recoveries(jittered) == 1
    replan = next(e for e in jittered.recoveries if e["kind"] == "replan")
    # The slow clock did reach the observation, recorded off-path only.
    assert replan["wall_ms"] >= 50.0


def test_drift_replan_ignores_the_wall_clock(monkeypatch):
    """A drift-triggered replan times its build on the wall clock but
    never lets it reach the simulated clock: under the jittery clock
    the deterministic summary is unchanged and every build is still
    recorded."""
    config = dataclasses.replace(
        CONFIG,
        drift_threshold_pct=2.0,
        drift_min_samples=128,
        drift_check_every_batches=2,
    )
    drift = DriftModel(feature_noise=6.0)

    def drifting(model):
        return list(synthetic_request_arenas(
            model, 1024, qps=QPS, seed=6, drift=drift,
            months_per_request=0.05,
        ))

    model, server = replicated_server(config=config)
    baseline = server.serve_arenas(drifting(model))
    assert baseline.num_replans >= 1
    jitter_wall_clock(monkeypatch)
    model, slow = replicated_server(config=config)
    jittered = slow.serve_arenas(drifting(model))
    assert jittered.summary(deterministic_only=True) == baseline.summary(
        deterministic_only=True
    )
    assert len(jittered.replan_build_ms) == jittered.num_replans
    assert min(jittered.replan_build_ms) >= 50.0


# ----------------------------------------------------------------------
# Parity under chaos
# ----------------------------------------------------------------------
def test_scalar_vectorized_parity_under_chaos():
    model, fast = replicated_server(chaos=drill(), emergency_commit_ms=2.0)
    model, slow = replicated_server(
        chaos=drill(), emergency_commit_ms=2.0, cls=ScalarServer
    )
    left = fast.serve_arenas(stream(model))
    right = slow.serve_arenas(stream(model))
    assert left.summary(deterministic_only=True) == right.summary(
        deterministic_only=True
    )
    np.testing.assert_array_equal(
        left.dropped_per_device, right.dropped_per_device
    )


def test_object_api_matches_arena_api_under_chaos():
    arenas_left, arenas_right = None, None
    model, arena_server = replicated_server(
        chaos=drill(), emergency_commit_ms=2.0
    )
    arenas = stream(model, n=1024)
    arena_metrics = arena_server.serve_arenas(arenas)
    model, object_server = replicated_server(
        chaos=drill(), emergency_commit_ms=2.0, cls=ObjectServer
    )
    object_metrics = object_server.serve(iter_requests(arenas))
    assert arena_metrics.summary(
        deterministic_only=True
    ) == object_metrics.summary(deterministic_only=True)


# ----------------------------------------------------------------------
# Reset satellite: drills are one-shot; reset reproduces the baseline
# ----------------------------------------------------------------------
def test_reset_after_drill_reproduces_no_fault_baseline():
    model, baseline_server = replicated_server()
    baseline = baseline_server.serve_arenas(stream(model))
    model, server = replicated_server(chaos=drill())
    first = server.serve_arenas(stream(model))
    assert first.dropped_lookups > 0
    server.reset_serving_state()
    second = server.serve_arenas(stream(model))
    assert second.dropped_lookups == 0 and not second.fault_events
    assert second.summary(deterministic_only=True) == baseline.summary(
        deterministic_only=True
    )


def test_rearm_replays_the_drill_bit_identically():
    model, server = replicated_server(chaos=drill(), emergency_commit_ms=2.0)
    first = server.serve_arenas(stream(model))
    server.reset_serving_state(rearm_chaos=True)
    replay = server.serve_arenas(stream(model))
    assert first.summary(deterministic_only=True) == replay.summary(
        deterministic_only=True
    )
    assert replay.dropped_lookups == first.dropped_lookups > 0


# ----------------------------------------------------------------------
# Validation at the serving boundary
# ----------------------------------------------------------------------
def test_single_process_server_rejects_worker_events():
    with pytest.raises(ValueError, match="multi-process runtime"):
        replicated_server(chaos=FaultSchedule([worker_kill(1.0, 0)]))


def test_server_rejects_out_of_range_device():
    with pytest.raises(ValueError, match="devices"):
        replicated_server(chaos=FaultSchedule([device_fail(1.0, GPUS)]))
