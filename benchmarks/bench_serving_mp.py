"""Multi-process serving: wall-clock QPS scaling, overload behavior.

Every other serving number in this repo is simulated-clock; this bench
is the wall-clock one.  It puts the same seeded arena stream through
:class:`~repro.serving.mp.MultiProcessServer` pools of different sizes
and measures *real* sustained requests per second, end to end: shared
admission, shared-memory handoff, parallel worker classification, and
the sequential metrics aggregator.

Gates:

* **parity** — the merged metrics of every pool size must equal the
  single-process ``serve_arenas`` run bit for bit (worker count is a
  throughput knob, not a semantics knob);
* **scaling** — sustained wall-clock QPS at ``RECSHARD_BENCH_MP_WORKERS``
  workers must be at least ``RECSHARD_BENCH_MIN_MP_SCALING`` x the
  1-worker pool (asserted only when the process may run on one CPU
  per worker plus one for the front end; reported regardless);
* **overload** — a paced bursty run past measured closed-loop capacity
  must keep exact ``offered == served + shed`` accounting (whether the
  bounded queue actually sheds depends on how far worker classify
  throughput exceeds the closed-loop estimate; deterministic shedding
  is asserted in ``tests/test_serving/test_mp_stress.py``), and its
  p99 + shed fraction are reported;
* **hygiene** — no orphaned shared-memory segments after any run.

Environment knobs (on top of the shared workload knobs):
    RECSHARD_BENCH_MP_WORKERS      pool size for the scaling gate (4)
    RECSHARD_BENCH_MP_REQUESTS     stream length (16384)
    RECSHARD_BENCH_MIN_MP_SCALING  QPS multiple vs 1 worker (2.0;
                                   0 disables the assertion)
"""

import os
import time

import numpy as np
import pytest

from conftest import (
    BENCH_BATCH,
    BENCH_FEATURES,
    BENCH_GPUS,
    format_table,
    report,
    report_json,
)
from repro.core import RecShardFastSharder
from repro.serving import (
    BurstyArrivals,
    LookupServer,
    MultiProcessServer,
    ServingConfig,
    synthetic_request_arenas,
)
from repro.serving.arena import SHM_NAME_PREFIX

MP_WORKERS = int(os.environ.get("RECSHARD_BENCH_MP_WORKERS", 4))
MP_REQUESTS = int(os.environ.get("RECSHARD_BENCH_MP_REQUESTS", 16384))
MIN_MP_SCALING = float(os.environ.get("RECSHARD_BENCH_MIN_MP_SCALING", 2.0))

CONFIG = ServingConfig(max_batch_size=256, max_delay_ms=2.0)


@pytest.fixture(autouse=True)
def no_orphaned_segments():
    def segments():
        if not os.path.isdir("/dev/shm"):  # pragma: no cover
            return set()
        return {
            n
            for n in os.listdir("/dev/shm")
            if n.startswith(SHM_NAME_PREFIX)
        }

    before = segments()
    yield
    assert segments() - before == set(), "orphaned shared-memory segments"


@pytest.fixture(scope="module")
def mp_world(models, profiles, topology):
    """RM2 plan + pre-generated saturating stream, shared by the views.

    The stream is materialized once outside every timed region: trace
    sampling is workload generation, identical for all pool sizes.
    """
    model = models[1]
    profile = profiles[model.name]
    plan = RecShardFastSharder(batch_size=BENCH_BATCH).shard(
        model, profile, topology
    )
    arenas = list(
        synthetic_request_arenas(
            model, num_requests=MP_REQUESTS, qps=1e9, seed=42
        )
    )
    return model, profile, topology, plan, arenas


def _timed_pool_run(model, profile, topology, plan, arenas, workers):
    """Best-of-2 closed-loop wall-clock of one pool size (warm round
    first); pool startup (fork + per-worker executor build) stays
    outside the timed region, like server construction in the other
    serving benches."""
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG, workers=workers
    ) as pool:
        pool.serve_arenas(arenas[: max(1, len(arenas) // 8)])  # warm
        best = float("inf")
        metrics = None
        for _ in range(2):
            pool.reset_serving_state()  # per-round metrics for parity
            start = time.perf_counter()
            metrics = pool.serve_arenas(arenas)
            best = min(best, time.perf_counter() - start)
    return best, metrics


def test_mp_qps_scaling(mp_world):
    """Wall-clock QPS across pool sizes, parity pinned at every size."""
    model, profile, topology, plan, arenas = mp_world
    single = LookupServer(
        model, profile, topology, plan=plan, config=CONFIG
    ).serve_arenas(arenas)
    reference = single.summary(deterministic_only=True)

    sizes = sorted({1, max(2, MP_WORKERS // 2), MP_WORKERS})
    rows = []
    wall = {}
    for workers in sizes:
        elapsed, metrics = _timed_pool_run(
            model, profile, topology, plan, arenas, workers
        )
        # Bit parity at every pool size (the mp test suite pins the
        # full metric set; the bench re-checks the summary end to end).
        assert metrics.summary(deterministic_only=True) == reference
        np.testing.assert_array_equal(
            metrics.tier_access_totals, single.tier_access_totals
        )
        wall[workers] = elapsed
        rows.append(
            (workers, f"{elapsed * 1e3:.0f}",
             f"{MP_REQUESTS / elapsed:.0f}",
             f"{wall[1] / elapsed:.2f}x" if 1 in wall else "--")
        )
    scaling = wall[1] / wall[MP_WORKERS]
    # Each worker needs a CPU and so does the front end that admits,
    # hands off and aggregates.
    cpus = len(os.sched_getaffinity(0))
    gated = MIN_MP_SCALING > 0 and cpus >= MP_WORKERS + 1
    table = format_table(
        ["workers", "wall (ms)", "sustained QPS", "vs 1 worker"], rows
    )
    report(
        "serving_mp",
        f"{model.name} on {BENCH_GPUS} GPUs ({BENCH_FEATURES} features), "
        f"{MP_REQUESTS} requests, closed-loop, best of 2\n\n{table}\n\n"
        f"scaling at {MP_WORKERS} workers: {scaling:.2f}x "
        f"(floor {MIN_MP_SCALING:g}x, "
        f"{'enforced' if gated else f'not enforced: {cpus} CPUs'}), "
        f"metrics bit-identical to single-process at every pool size",
    )
    report_json(
        "serving_mp",
        {
            "requests": MP_REQUESTS,
            "workers": sizes,
            "wall_s": {str(w): wall[w] for w in sizes},
            "sustained_qps": {
                str(w): MP_REQUESTS / wall[w] for w in sizes
            },
            "scaling": scaling,
            "scaling_floor": MIN_MP_SCALING,
            "scaling_enforced": gated,
            "host_cpus": cpus,
            "parity": "bit-identical",
            "metrics": reference,
        },
    )
    if gated:
        assert scaling >= MIN_MP_SCALING, (
            f"{MP_WORKERS}-worker pool sustained only {scaling:.2f}x the "
            f"1-worker wall-clock QPS (floor {MIN_MP_SCALING:g}x)"
        )


def test_mp_overload_p99_and_shedding(mp_world):
    """Paced bursty overload: bounded queue, exact shed accounting,
    p99 under pressure reported."""
    model, profile, topology, plan, arenas = mp_world
    workers = min(2, MP_WORKERS)
    # Capacity from a short closed-loop run, then bursts well past it.
    with MultiProcessServer(
        model, profile, topology, plan=plan, config=CONFIG,
        workers=workers, queue_depth=2,
    ) as pool:
        calib = arenas[: max(1, len(arenas) // 4)]
        calib_n = sum(a.num_requests for a in calib)
        start = time.perf_counter()
        pool.serve_arenas(calib)
        capacity_qps = calib_n / (time.perf_counter() - start)

        process = BurstyArrivals(
            burst_qps=4.0 * capacity_qps,
            idle_qps=0.05 * capacity_qps,
            burst_ms=100.0,
            idle_ms=100.0,
        )
        overload = list(
            synthetic_request_arenas(
                model, MP_REQUESTS // 2, process, seed=17
            )
        )
        offered = sum(a.num_requests for a in overload)
        pool.reset_serving_state()  # keep calibration out of the numbers
        start = time.perf_counter()
        metrics = pool.serve_paced(overload)
        elapsed = time.perf_counter() - start

    served = metrics.num_requests
    shed = metrics.shed_requests
    assert served + shed == offered
    assert served > 0
    report(
        "serving_mp_overload",
        f"{model.name}, {workers} workers, queue depth 2, bursts at "
        f"~4x measured capacity ({capacity_qps:.0f} QPS closed-loop)\n"
        f"offered {offered}, served {served}, shed {shed} "
        f"({shed / offered:.1%}); p99 {metrics.p99_ms:.3f} ms "
        f"(simulated), wall-clock {elapsed:.2f} s",
    )
    report_json(
        "serving_mp_overload",
        {
            "workers": workers,
            "queue_depth": 2,
            "capacity_qps_estimate": capacity_qps,
            "offered": offered,
            "served": served,
            "shed": shed,
            "shed_fraction": shed / offered,
            "p99_ms_simulated": metrics.p99_ms,
            "wall_s": elapsed,
        },
    )
