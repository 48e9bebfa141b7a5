"""SLO-driven overload control: goodput under sustained overload.

PR-6's paced front-end could only tail-drop whole batches when its
bounded queue filled — blind to deadlines and request value.  This
bench drives a self-calibrated bursty overload (burst phases at 4x the
measured engine capacity, mean offered load ~2x capacity) through the
deadline/priority admission controller and gates what the controller
is for:

* **goodput** — served-within-deadline under the controller must be at
  least ``RECSHARD_BENCH_MIN_GOODPUT_GAIN`` x the blind tail-drop
  baseline (same stream, same engine, queue-bound shedding only);
* **class protection** — gold traffic keeps its p99 at or under the
  SLO and is never shed while bronze takes the shedding;
* **conservation** — ``offered == served + shed`` exactly, for both
  policies;
* **parity** — the multi-process runtime (2 workers) reproduces the
  single-process controlled run bit for bit;
* **brownout** — on the 3-tier topology, degraded-mode serving (skip
  cold-tier home lanes while the windowed p99 violates the SLO)
  contains the overload p99 below the full-service run, at a measured
  (not silent) cold-coverage cost.

The service regime is bandwidth-bound (per-batch overhead 0.005 ms):
per-lookup cost dominates, so shedding doomed work translates into
engine capacity for work that can still meet its deadline.  Windows
and budgets are derived from a calibration run, so the scenario tracks
the workload-shape knobs.

Environment knobs (on top of the shared workload knobs):
    RECSHARD_BENCH_OVERLOAD_REQUESTS  admission stream length (16384;
                                      the brownout stream runs half)
    RECSHARD_BENCH_MIN_GOODPUT_GAIN   goodput multiple vs tail-drop
                                      (1.5; 0 disables the assertion)
"""

import os

import numpy as np
import pytest

from conftest import (
    BENCH_GPUS,
    TOPO_SCALE,
    format_table,
    report,
    report_json,
)
from repro.core import MultiTierSharder, RecShardFastSharder
from repro.memory import node_from_tier_names
from repro.serving import (
    BurstyArrivals,
    LookupServer,
    MultiProcessServer,
    OverloadControl,
    ServingConfig,
    parse_priority_spec,
    synthetic_request_arenas,
)

OVERLOAD_REQUESTS = int(
    os.environ.get("RECSHARD_BENCH_OVERLOAD_REQUESTS", 16384)
)
MIN_GOODPUT_GAIN = float(
    os.environ.get("RECSHARD_BENCH_MIN_GOODPUT_GAIN", 1.5)
)

#: Bandwidth-bound regime: per-lookup cost dominates the batch floor.
OVERHEAD_MS = 0.005
PRIORITY_SPEC = "gold=0.1,silver=0.3,bronze=0.6"
CALIBRATE_CONFIG = ServingConfig(
    max_batch_size=128, max_delay_ms=0.1, overhead_ms_per_batch=OVERHEAD_MS
)


def calibrate(model, profile, topology, plan):
    """Measure engine capacity (QPS) and per-batch service time."""
    server = LookupServer(
        model, profile, topology, plan=plan, config=CALIBRATE_CONFIG
    )
    arenas = list(
        synthetic_request_arenas(
            model, min(4096, OVERLOAD_REQUESTS), qps=1e9, seed=3
        )
    )
    m = server.serve_arenas(arenas)
    return m.qps, m.horizon_ms / m.num_batches


@pytest.fixture(scope="module")
def admission_runs(models, profiles, topology):
    """Controller vs tail-drop baseline on the same overloaded stream."""
    model = models[1]
    profile = profiles[model.name]
    plan = RecShardFastSharder(batch_size=256).shard(
        model, profile, topology
    )
    capacity, svc_ms = calibrate(model, profile, topology, plan)
    config = ServingConfig(
        max_batch_size=128, max_delay_ms=2 * svc_ms,
        overhead_ms_per_batch=OVERHEAD_MS,
    )
    slo_ms = 5 * svc_ms
    deadline_ms = 8 * svc_ms
    # Burst windows sized in requests (2048 per burst), idle windows
    # equal-length at a quarter of capacity: mean offered ~2.1x
    # capacity, so the overload is *sustained* — a blind queue can
    # never catch up, it only goes stale.
    burst_ms = 2048 / (4 * capacity) * 1e3
    process = BurstyArrivals(
        burst_qps=4 * capacity, idle_qps=0.25 * capacity,
        burst_ms=burst_ms, idle_ms=burst_ms,
    )
    names, shares = parse_priority_spec(PRIORITY_SPEC)
    arenas = list(
        synthetic_request_arenas(
            model, OVERLOAD_REQUESTS, process, seed=7,
            deadline_ms=deadline_ms, priority_shares=shares,
        )
    )
    controlled = OverloadControl(slo_ms=slo_ms, priority_names=names)
    taildrop = OverloadControl(
        queue_limit_ms=4 * deadline_ms,
        deadline_shedding=False, priority_shedding=False,
        priority_names=names,
    )
    runs = {}
    for key, control in (("controlled", controlled), ("taildrop", taildrop)):
        server = LookupServer(
            model, profile, topology, plan=plan, config=config,
            overload=control,
        )
        runs[key] = server.serve_arenas(arenas)
    return {
        "model": model,
        "profile": profile,
        "topology": topology,
        "plan": plan,
        "config": config,
        "control": controlled,
        "arenas": arenas,
        "capacity_qps": capacity,
        "svc_ms": svc_ms,
        "slo_ms": slo_ms,
        "deadline_ms": deadline_ms,
        "offered_mean_x": process.mean_qps / capacity,
        "runs": runs,
    }


@pytest.fixture(scope="module")
def brownout_runs(models, profiles):
    """Brownout vs full service on the overloaded 3-tier topology."""
    model = models[2]
    profile = profiles[model.name]
    topology = node_from_tier_names(
        ["hbm:8", "dram:24", "ssd"], num_gpus=BENCH_GPUS, scale=TOPO_SCALE,
    )
    plan = MultiTierSharder(batch_size=256).shard(model, profile, topology)
    capacity, svc_ms = calibrate(model, profile, topology, plan)
    config = ServingConfig(
        max_batch_size=128, max_delay_ms=0.1,
        overhead_ms_per_batch=OVERHEAD_MS,
    )
    slo_ms = 3 * svc_ms
    burst_ms = 1024 / (2 * capacity) * 1e3
    process = BurstyArrivals(
        burst_qps=2 * capacity, idle_qps=0.3 * capacity,
        burst_ms=burst_ms, idle_ms=2 * burst_ms,
    )
    arenas = list(
        synthetic_request_arenas(
            model, OVERLOAD_REQUESTS // 2, process, seed=11
        )
    )
    control = OverloadControl(
        slo_ms=slo_ms, brownout=True,
        deadline_shedding=False, priority_shedding=False,
        window_requests=512, min_window=128,
    )
    runs = {}
    for key, overload in (("brownout", control), ("full", None)):
        server = LookupServer(
            model, profile, topology, plan=plan, config=config,
            overload=overload,
        )
        runs[key] = server.serve_arenas(arenas)
    return {"slo_ms": slo_ms, "capacity_qps": capacity, "runs": runs}


def test_controller_beats_tail_drop_goodput(admission_runs):
    ctrl = admission_runs["runs"]["controlled"]
    base = admission_runs["runs"]["taildrop"]
    for m in (ctrl, base):
        assert m.offered_requests == OVERLOAD_REQUESTS
        assert m.num_requests + m.shed_requests == OVERLOAD_REQUESTS
    assert ctrl.shed_by_cause  # the controller actually shed
    gain = ctrl.served_within_deadline / max(base.served_within_deadline, 1)
    rows = [
        (
            key,
            m.num_requests,
            m.shed_requests,
            m.served_within_deadline,
            f"{m.goodput_fraction:.2%}",
            f"{m.p99_ms:.4f}",
        )
        for key, m in (("controlled", ctrl), ("tail-drop", base))
    ]
    table = format_table(
        ["policy", "served", "shed", "goodput", "goodput%", "p99 ms"], rows
    )
    report(
        "overload_goodput",
        table
        + f"\n\ngoodput gain: {gain:.2f}x (floor {MIN_GOODPUT_GAIN:g}x)\n"
        + f"offered load: {admission_runs['offered_mean_x']:.2f}x capacity "
        + f"({admission_runs['capacity_qps']:.0f} QPS), "
        + f"slo {admission_runs['slo_ms']:.4f} ms, "
        + f"deadline {admission_runs['deadline_ms']:.4f} ms",
    )
    if MIN_GOODPUT_GAIN > 0:
        assert gain >= MIN_GOODPUT_GAIN, (
            f"goodput gain {gain:.2f}x under floor {MIN_GOODPUT_GAIN}x"
        )


def test_gold_holds_slo_while_bronze_sheds(admission_runs):
    ctrl = admission_runs["runs"]["controlled"]
    stats = ctrl.priority_class_stats()
    assert stats["gold"]["shed"] == 0
    assert stats["bronze"]["shed"] > 0
    assert stats["gold"]["p99_ms"] <= admission_runs["slo_ms"]


def test_mp_controlled_run_is_bit_identical(admission_runs):
    ref = admission_runs["runs"]["controlled"]
    with MultiProcessServer(
        admission_runs["model"],
        admission_runs["profile"],
        admission_runs["topology"],
        plan=admission_runs["plan"],
        config=admission_runs["config"],
        workers=2,
        overload=admission_runs["control"],
    ) as pool:
        got = pool.serve_arenas(admission_runs["arenas"])
    assert ref.summary(deterministic_only=True) == got.summary(
        deterministic_only=True
    )
    assert ref.shed_by_cause == got.shed_by_cause
    np.testing.assert_array_equal(
        ref.tier_access_totals, got.tier_access_totals
    )


def test_brownout_contains_p99_at_measured_cost(brownout_runs):
    browned = brownout_runs["runs"]["brownout"]
    full = brownout_runs["runs"]["full"]
    assert browned.browned_out_lookups > 0
    assert browned.p99_ms < full.p99_ms
    served = sum(browned.batch_lookups)
    coverage_loss = browned.browned_out_lookups / (
        served + browned.browned_out_lookups
    )
    assert coverage_loss < 1.0
    report(
        "overload_brownout",
        format_table(
            ["mode", "p99 ms", "browned lookups", "windows"],
            [
                (
                    "brownout",
                    f"{browned.p99_ms:.4f}",
                    browned.browned_out_lookups,
                    len(browned.brownout_windows),
                ),
                ("full service", f"{full.p99_ms:.4f}", 0, 0),
            ],
        )
        + f"\n\ncold-coverage loss: {coverage_loss:.2%} of offered "
        + f"lookups skipped (slo {brownout_runs['slo_ms']:.4f} ms)",
    )


def test_report_overload_json(admission_runs, brownout_runs):
    ctrl = admission_runs["runs"]["controlled"]
    base = admission_runs["runs"]["taildrop"]
    browned = brownout_runs["runs"]["brownout"]
    full = brownout_runs["runs"]["full"]
    served = sum(browned.batch_lookups)
    path = report_json(
        "overload",
        {
            "requests": OVERLOAD_REQUESTS,
            "offered_mean_x_capacity": admission_runs["offered_mean_x"],
            "capacity_qps": admission_runs["capacity_qps"],
            "slo_ms": admission_runs["slo_ms"],
            "deadline_ms": admission_runs["deadline_ms"],
            "goodput_controlled": ctrl.served_within_deadline,
            "goodput_taildrop": base.served_within_deadline,
            "goodput_gain": ctrl.served_within_deadline
            / max(base.served_within_deadline, 1),
            "shed_by_cause": dict(ctrl.shed_by_cause),
            "priority_classes": ctrl.priority_class_stats(),
            "p99_controlled_ms": ctrl.p99_ms,
            "p99_taildrop_ms": base.p99_ms,
            "brownout": {
                "p99_brownout_ms": browned.p99_ms,
                "p99_full_ms": full.p99_ms,
                "browned_out_lookups": browned.browned_out_lookups,
                "brownout_windows": len(browned.brownout_windows),
                "coverage_loss": browned.browned_out_lookups
                / (served + browned.browned_out_lookups),
                "slo_ms": brownout_runs["slo_ms"],
            },
        },
    )
    assert path.exists()
