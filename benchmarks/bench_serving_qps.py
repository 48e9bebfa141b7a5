"""Serving throughput: QPS and tail latency of the online lookup server.

Not a paper figure — the paper evaluates training replay — but the
serving-side restatement of its Table 3/Figure 11 claim: a plan whose
hot rows sit in HBM, balanced across devices, completes each microbatch
faster, so one model-parallel replica sustains more requests per second
at saturation and lower tail latency below it.

Three views:

* microbatch sweep — batching amortizes per-batch overhead, trading a
  bounded queueing delay for throughput (the dynamic-batching tradeoff
  every production recommender serving stack makes);
* strategy comparison — RecShard's plan vs the strongest baseline under
  a saturating open-loop load, where completed QPS measures engine
  capacity rather than offered load;
* fast-path speedup — the columnar arena path
  (:meth:`~repro.serving.server.LookupServer.serve_arenas`) against the
  per-request object reference, asserting the wall-clock simulation
  throughput multiple the fast path exists to provide, at bit-identical
  per-seed metrics;
* end to end — the same stream's generation alone, and generation plus
  columnar serving with the stream consumed lazily (what ``repro
  serve`` does), as absolute requests/s.

Besides the text report (``reports/serving_qps.txt``), the headline
numbers land machine-readable in ``reports/BENCH_serving.json`` so the
serving perf trajectory is tracked across PRs.
"""

import os
import time

import numpy as np
import pytest

from conftest import BENCH_BATCH, BENCH_GPUS, format_table, report, report_json
from repro.core import RecShardFastSharder
from repro.data.drift import DriftModel
from repro.serving import (
    LookupServer,
    ServingConfig,
    synthetic_request_arenas,
)

REQUESTS = 2048
SATURATING_QPS = 1e9  # all requests arrive (almost) at once
# Wall-clock multiple the columnar fast path must deliver over the
# object reference path.  Below a handful of features the object path
# has too little per-request tuple churn for the ratio to be meaningful,
# so smoke configurations may override via the environment.
MIN_SERVING_SPEEDUP = float(
    os.environ.get("RECSHARD_BENCH_MIN_SERVING_SPEEDUP", 10.0)
)

def _make_server(model, profile, topology, plan, max_batch):
    return LookupServer(
        model, profile, topology, plan=plan,
        config=ServingConfig(max_batch_size=max_batch, max_delay_ms=2.0),
    )


def _serve(model, profile, topology, plan, max_batch):
    server = _make_server(model, profile, topology, plan, max_batch)
    arenas = synthetic_request_arenas(
        model, num_requests=REQUESTS, qps=SATURATING_QPS, seed=42
    )
    return server.serve_arenas(arenas).summary()


@pytest.fixture(scope="module")
def serving_views(models, profiles, topology, headline):
    """Microbatch sweep + strategy comparison on RM2 (shared sections).

    A module fixture so every test of this file (and any subset
    selected with ``-k``) composes its report from the same computed
    views — no cross-test execution-order coupling.
    """
    model = models[1]  # RM2: the UVM-pressured regime
    profile = profiles[model.name]
    results = headline[model.name]
    recshard_plan = results["RecShard"].plan

    # View 1: microbatch size sweep on the RecShard plan.
    sweep_rows = []
    sweep = {}
    for max_batch in (32, 128, 512):
        s = _serve(model, profile, topology, recshard_plan, max_batch)
        sweep[max_batch] = s
        sweep_rows.append(
            (max_batch, f"{s['qps']:.0f}", f"{s['p50_ms']:.3f}",
             f"{s['p99_ms']:.3f}", f"{s['avg_batch_size']:.0f}")
        )
    sweep_table = format_table(
        ["microbatch cap", "QPS", "p50 (ms)", "p99 (ms)", "avg batch"],
        sweep_rows,
    )

    # View 2: plans head to head at a fixed microbatch cap.
    strat_rows = []
    strat = {}
    for name, result in results.items():
        s = _serve(model, profile, topology, result.plan, 256)
        strat[name] = s
        strat_rows.append(
            (name, f"{s['qps']:.0f}", f"{s['p50_ms']:.3f}",
             f"{s['p99_ms']:.3f}",
             f"{s['mean_device_utilization']:.1%}")
        )
    strat_table = format_table(
        ["strategy", "QPS", "p50 (ms)", "p99 (ms)", "mean device util"],
        strat_rows,
    )
    return {
        "sweep": sweep,
        "strategies": strat,
        "tables": (
            f"-- microbatch sweep (RecShard plan) --\n{sweep_table}\n\n"
            f"-- strategies at microbatch cap 256 --\n{strat_table}"
        ),
    }


def test_serving_qps(models, serving_views):
    model = models[1]
    sweep = serving_views["sweep"]
    strat = serving_views["strategies"]
    report(
        "serving_qps",
        f"{model.name} on {BENCH_GPUS} GPUs, {REQUESTS} requests, "
        f"saturating load\n\n{serving_views['tables']}",
    )

    # Every request is served, exactly once.
    assert all(s["requests"] == REQUESTS for s in sweep.values())
    assert all(s["requests"] == REQUESTS for s in strat.values())
    # Batching amortizes per-batch overhead: large caps beat tiny ones
    # at saturation.
    assert sweep[512]["qps"] >= sweep[32]["qps"]
    # RecShard's balanced HBM placement serves at least as fast as every
    # baseline, in capacity and in tail latency.
    baselines = [s for n, s in strat.items() if n != "RecShard"]
    rec = strat["RecShard"]
    assert all(rec["qps"] >= 0.98 * b["qps"] for b in baselines)
    assert all(rec["p99_ms"] <= b["p99_ms"] * 1.02 + 1e-6 for b in baselines)
    best_baseline = max(b["qps"] for b in baselines)
    np.testing.assert_array_less(0, rec["qps"])
    print(f"RecShard serving capacity vs best baseline: "
          f"{rec['qps'] / best_baseline:.2f}x")


def test_serving_drift_replan_build_cost(models, profiles, topology):
    """Drift replans stay cheap: workspace reuse + warm starts.

    Serves a drifted stream through a replanning server (the vectorized
    fast sharder, as ``repro serve`` deploys it) and records how long
    each off-critical-path replan took to build.  The per-replan build
    cost lands in ``BENCH_serving.json`` so regressions in the
    replan path (workspace refresh, warm-started vectorized solve,
    remapper rebuild) are visible across PRs.
    """
    model = models[1]
    profile = profiles[model.name]
    config = ServingConfig(
        max_batch_size=256, max_delay_ms=2.0,
        drift_threshold_pct=2.0, drift_min_samples=256,
        drift_check_every_batches=4,
    )
    server = LookupServer(
        model, profile, topology,
        sharder=RecShardFastSharder(batch_size=BENCH_BATCH, name="RecShard"),
        config=config,
    )
    arenas = synthetic_request_arenas(
        model, num_requests=REQUESTS, qps=SATURATING_QPS, seed=7,
        drift=DriftModel(feature_noise=4.0, alpha_noise=4.0),
        months_per_request=24.0 / REQUESTS,
    )
    metrics = server.serve_arenas(arenas)
    assert metrics.num_replans >= 1, "drifted stream should trigger a replan"
    builds = metrics.replan_build_ms
    text = (
        f"{model.name} on {BENCH_GPUS} GPUs, {REQUESTS} requests, 24 months "
        f"of drift fast-forwarded\n"
        f"drift replans: {metrics.num_replans}, build cost per replan (ms): "
        + ", ".join(f"{b:.1f}" for b in builds)
    )
    report("serving_drift_replans", text)
    report_json(
        "serving_replans",
        {
            "requests": REQUESTS,
            "drift_months": 24.0,
            "replans": metrics.num_replans,
            "replan_build_ms": list(builds),
            "replan_build_mean_ms": float(np.mean(builds)),
            "replan_build_total_ms": metrics.replan_build_total_ms,
        },
    )


def test_serving_fast_path_speedup(models, profiles, topology, headline, serving_views):
    """Columnar fast path: >= 10x simulation throughput, exact parity.

    Serves the identical seeded saturating stream through the object
    reference loop (per-request ``LookupRequest`` + ``MicroBatchQueue``
    + per-batch re-concatenation) and through the arena fast path
    (feature-major chunks, vectorized admission, offset-slice
    coalescing), best-of-two rounds each.  The two runs must agree bit
    for bit on every deterministic serving metric.
    """
    model = models[1]
    profile = profiles[model.name]
    plan = headline[model.name]["RecShard"].plan
    stream_kwargs = dict(num_requests=REQUESTS, qps=SATURATING_QPS, seed=42)

    # Sampling the synthetic trace (inverse-CDF draws) is workload
    # generation, not serving; it is identical for both paths and is
    # done once outside the timed region.  The reference path still
    # materializes its per-request objects *inside* the timed loop —
    # that per-request view construction is exactly what the PR-1
    # stream handed the server and what the columnar path eliminates.
    arenas = list(synthetic_request_arenas(model, **stream_kwargs))

    # Server construction (plan install, rank tables) is deployment
    # work shared by both paths; the timed region is the serving loop.
    def run_reference():
        server = _make_server(model, profile, topology, plan, 256)
        start = time.perf_counter()
        metrics = server.serve(r for arena in arenas for r in arena)
        return time.perf_counter() - start, metrics

    def run_fast():
        server = _make_server(model, profile, topology, plan, 256)
        start = time.perf_counter()
        metrics = server.serve_arenas(arenas)
        return time.perf_counter() - start, metrics

    # End to end: generation is timed on its own and together with the
    # columnar serving loop, which pulls the stream lazily.
    def run_generation():
        start = time.perf_counter()
        list(synthetic_request_arenas(model, **stream_kwargs))
        return time.perf_counter() - start, None

    def run_end_to_end():
        server = _make_server(model, profile, topology, plan, 256)
        start = time.perf_counter()
        metrics = server.serve_arenas(
            synthetic_request_arenas(model, **stream_kwargs)
        )
        return time.perf_counter() - start, metrics

    runs = (run_reference, run_fast, run_generation, run_end_to_end)
    # Warm every path (lazy rank tables, numpy internals, page cache).
    for run in runs:
        run()

    wall_s = {run: [] for run in runs}
    last = {}
    for _ in range(2):
        for run in runs:
            elapsed, last[run] = run()
            wall_s[run].append(elapsed)
    ref_best, fast_best, gen_best, e2e_best = (min(wall_s[r]) for r in runs)
    ref_metrics, fast_metrics = last[run_reference], last[run_fast]
    speedup = ref_best / fast_best

    # Exact per-seed metric parity, the fast path's correctness bar.
    assert ref_metrics.summary(deterministic_only=True) == (
        fast_metrics.summary(deterministic_only=True)
    )
    np.testing.assert_array_equal(
        ref_metrics.latencies_ms(), fast_metrics.latencies_ms()
    )
    np.testing.assert_array_equal(
        ref_metrics.device_busy_ms, fast_metrics.device_busy_ms
    )
    assert last[run_end_to_end].summary(deterministic_only=True) == (
        fast_metrics.summary(deterministic_only=True)
    )

    table = format_table(
        ["serving path", "sim wall-clock (ms)", "requests/s processed"],
        [
            ("reference (objects)", f"{ref_best * 1e3:.1f}",
             f"{REQUESTS / ref_best:.3g}"),
            ("fast (columnar)", f"{fast_best * 1e3:.1f}",
             f"{REQUESTS / fast_best:.3g}"),
        ],
    )
    e2e_table = format_table(
        ["stage", "wall-clock (ms)", "requests/s"],
        [
            ("generation", f"{gen_best * 1e3:.1f}",
             f"{REQUESTS / gen_best:.3g}"),
            ("generation + fast serving", f"{e2e_best * 1e3:.1f}",
             f"{REQUESTS / e2e_best:.3g}"),
        ],
    )
    speedup_text = (
        f"-- columnar fast path vs object reference --\n{table}\n\n"
        f"{model.name}, {REQUESTS} requests, microbatch cap 256: "
        f"fast-path speedup {speedup:.2f}x "
        f"(floor {MIN_SERVING_SPEEDUP:g}x), metrics bit-identical\n\n"
        f"-- end to end, stream generated lazily --\n{e2e_table}"
    )
    body = (
        f"{model.name} on {BENCH_GPUS} GPUs, {REQUESTS} requests, "
        f"saturating load\n\n{serving_views['tables']}"
    )
    report("serving_qps", f"{body}\n\n{speedup_text}")
    report_json(
        "serving",
        {
            "requests": REQUESTS,
            "microbatch_cap": 256,
            "reference_wall_s": ref_best,
            "fast_wall_s": fast_best,
            "speedup": speedup,
            "speedup_floor": MIN_SERVING_SPEEDUP,
            "requests_per_second_processed": REQUESTS / fast_best,
            "generation_wall_s": gen_best,
            "generation_requests_per_s": REQUESTS / gen_best,
            "e2e_wall_s": e2e_best,
            "e2e_requests_per_s": REQUESTS / e2e_best,
            "metrics": fast_metrics.summary(deterministic_only=True),
            "parity": "bit-identical",
            "microbatch_sweep": serving_views["sweep"],
            "strategies": serving_views["strategies"],
        },
    )
    assert speedup >= MIN_SERVING_SPEEDUP
