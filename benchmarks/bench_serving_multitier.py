"""Multi-tier serving: the Section 4.4 capacity-scaling scenario online.

RecShard's multi-tier extension treats each extra memory tier as "a new
point on each EMB's CDF"; Table 5 shows the payoff as per-tier access
counts.  This bench runs that scenario through the serving runtime: a
3-tier HBM/DRAM/SSD node (the host-DRAM slice deliberately small, so a
spilling model *must* reach SSD), planned by the multi-tier greedy
sharder, served under saturating load.

Three gates:

* **fast-path speedup** — the shipped multi-tier configuration
  (columnar arena admission + lane-code executor) must process the
  stream at least ``RECSHARD_BENCH_MIN_MULTITIER_SPEEDUP`` times
  (default 5x) faster than the scalar oracle
  (``tests.oracles.serving.ScalarServer``: per-request object admission +
  per-lookup remap-table executor), at *bit-identical*
  :class:`~repro.serving.metrics.ServingMetrics` — per-tier access
  counts, latencies, and device busy times all exactly equal.
* **Table 5 online** — per-tier access counts accumulated by the
  serving path must equal the offline replay of the same trace content.
* **statistics beat reactive caching** — enabling the frequency-informed
  :class:`~repro.engine.cache.TierStagingModel` must reduce device busy
  time while leaving per-tier access counts untouched.

Headline numbers land machine-readable in
``reports/BENCH_serving_multitier.json``.
"""

import os
import time

import numpy as np
import pytest

from conftest import (
    BENCH_BATCH,
    BENCH_GPUS,
    TOPO_SCALE,
    format_table,
    report,
    report_json,
)
from repro.core import MultiTierSharder
from repro.data.drift import DriftModel
from repro.engine import ShardedExecutor, TierStagingModel
from repro.memory import GIB, node_from_tier_names
from repro.serving import (
    LookupServer,
    ServingConfig,
    synthetic_request_arenas,
)
from tests.oracles.serving import ScalarServer, iter_requests

REQUESTS = 2048
SATURATING_QPS = 1e9
#: Per-GPU tier slices (paper-scale GiB).  HBM is shrunk and the
#: host-DRAM slice kept small so RM3's spill genuinely cascades across
#: all three tiers (at the preset capacities the DRAM boundary would
#: swallow the whole spill, or — with a tiny slice — cold ICDF steps
#: would each overflow it and DRAM would get nothing).
HBM_SLICE_GIB = 8
DRAM_SLICE_GIB = 24
STAGING_GIB = 1.5
MIN_MULTITIER_SPEEDUP = float(
    os.environ.get("RECSHARD_BENCH_MIN_MULTITIER_SPEEDUP", 5.0)
)


@pytest.fixture(scope="module")
def world(models, profiles):
    """RM3 (the heaviest spiller) on a 3-tier HBM/DRAM/SSD node."""
    model = models[2]
    profile = profiles[model.name]
    topology = node_from_tier_names(
        [f"hbm:{HBM_SLICE_GIB}", f"dram:{DRAM_SLICE_GIB}", "ssd"],
        num_gpus=BENCH_GPUS,
        scale=TOPO_SCALE,
    )
    plan = MultiTierSharder(batch_size=BENCH_BATCH, steps=100).shard(
        model, profile, topology
    )
    plan.validate(model, topology)
    return model, profile, topology, plan


def make_server(world, cls=LookupServer, staging=None, max_batch=256):
    model, profile, topology, plan = world
    return cls(
        model, profile, topology, plan=plan,
        config=ServingConfig(max_batch_size=max_batch, max_delay_ms=2.0),
        staging=staging,
    )


def tier_table(metrics, topology) -> str:
    totals = metrics.tier_access_totals
    batches = max(len(metrics.tier_access_chunks), 1)
    rows = []
    for t, tier in enumerate(topology.tiers):
        share = totals[t].sum() / max(totals.sum(), 1)
        rows.append(
            (
                tier.name,
                f"{totals[t].sum():,}",
                f"{totals[t].sum() / batches / topology.num_devices:,.0f}",
                f"{share:.2%}",
            )
        )
    return format_table(
        ["tier", "accesses", "per GPU/batch", "share"], rows
    )


def test_multitier_fast_path_speedup(world):
    """Vectorized multi-tier serving >= 5x the scalar reference,
    bit-identical metrics."""
    model, profile, topology, plan = world
    arenas = list(
        synthetic_request_arenas(
            model, num_requests=REQUESTS, qps=SATURATING_QPS, seed=42
        )
    )

    def run_reference():
        server = make_server(world, cls=ScalarServer)
        start = time.perf_counter()
        metrics = server.serve(iter_requests(arenas))
        return time.perf_counter() - start, metrics

    def run_fast():
        server = make_server(world)
        start = time.perf_counter()
        metrics = server.serve_arenas(arenas)
        return time.perf_counter() - start, metrics

    # Warm both paths (lazy remap/rank tables, numpy internals).
    run_reference()
    run_fast()

    ref_s, fast_s = [], []
    ref_metrics = fast_metrics = None
    for _ in range(2):
        elapsed, ref_metrics = run_reference()
        ref_s.append(elapsed)
        elapsed, fast_metrics = run_fast()
        fast_s.append(elapsed)
    ref_best, fast_best = min(ref_s), min(fast_s)
    speedup = ref_best / fast_best

    # Bit-identical serving metrics, per-tier counts included.
    assert ref_metrics.summary(deterministic_only=True) == (
        fast_metrics.summary(deterministic_only=True)
    )
    np.testing.assert_array_equal(
        ref_metrics.latencies_ms(), fast_metrics.latencies_ms()
    )
    np.testing.assert_array_equal(
        ref_metrics.device_busy_ms, fast_metrics.device_busy_ms
    )
    np.testing.assert_array_equal(
        ref_metrics.tier_access_totals, fast_metrics.tier_access_totals
    )

    # The scenario must genuinely exercise all three tiers.
    totals = fast_metrics.tier_access_totals
    assert (totals.sum(axis=1) > 0).all(), totals

    table = format_table(
        ["serving path", "sim wall-clock (ms)", "requests/s processed"],
        [
            ("reference (objects + scalar engine)",
             f"{ref_best * 1e3:.1f}", f"{REQUESTS / ref_best:.3g}"),
            ("fast (columnar + vectorized engine)",
             f"{fast_best * 1e3:.1f}", f"{REQUESTS / fast_best:.3g}"),
        ],
    )
    text = (
        f"{model.name} on {BENCH_GPUS} GPUs over "
        f"{'/'.join(topology.tier_names)} (hbm/dram slices "
        f"{HBM_SLICE_GIB}/{DRAM_SLICE_GIB} GiB/GPU paper-scale), "
        f"{REQUESTS} requests, "
        f"saturating load\n\n"
        f"-- per-tier serving access counts (Table 5 online) --\n"
        f"{tier_table(fast_metrics, topology)}\n\n"
        f"-- vectorized multi-tier path vs scalar reference --\n{table}\n\n"
        f"speedup {speedup:.2f}x (floor {MIN_MULTITIER_SPEEDUP:g}x), "
        f"metrics bit-identical"
    )
    report("serving_multitier", text)
    report_json(
        "serving_multitier",
        {
            "requests": REQUESTS,
            "tiers": list(topology.tier_names),
            "hbm_slice_gib": HBM_SLICE_GIB,
            "dram_slice_gib": DRAM_SLICE_GIB,
            "reference_wall_s": ref_best,
            "fast_wall_s": fast_best,
            "speedup": speedup,
            "speedup_floor": MIN_MULTITIER_SPEEDUP,
            "parity": "bit-identical",
            "tier_accesses": fast_metrics.summary(
                deterministic_only=True
            )["tier_accesses"],
            "metrics": fast_metrics.summary(deterministic_only=True),
        },
    )
    assert speedup >= MIN_MULTITIER_SPEEDUP


def test_multitier_serving_matches_offline_replay(world):
    """Per-tier serving counts == offline Table 5 replay, same trace."""
    model, profile, topology, plan = world
    arenas = list(
        synthetic_request_arenas(
            model, num_requests=REQUESTS, qps=SATURATING_QPS, seed=77
        )
    )
    server = make_server(world)
    metrics = server.serve_arenas(arenas)

    executor = ShardedExecutor(model, plan, profile, topology)
    offline = np.zeros(
        (topology.num_tiers, topology.num_devices), dtype=np.int64
    )
    for arena in arenas:
        _, accesses, _, _ = executor.run_batch(arena.batch)
        offline += accesses
    np.testing.assert_array_equal(metrics.tier_access_totals, offline)
    assert metrics.tier_access_totals.sum() == sum(metrics.batch_lookups)


def test_multitier_staging_beats_no_staging(world):
    """The statically-informed staging cache cuts cold-tier time at
    identical access counts (RecShard's statistics vs reactive caches)."""
    model, profile, topology, plan = world
    staging = TierStagingModel(
        capacity_bytes=int(STAGING_GIB * GIB * TOPO_SCALE)
    )
    arenas = list(
        synthetic_request_arenas(
            model, num_requests=REQUESTS // 2, qps=SATURATING_QPS, seed=13
        )
    )
    plain = make_server(world).serve_arenas(arenas)
    staged = make_server(world, staging=staging).serve_arenas(arenas)
    np.testing.assert_array_equal(
        plain.tier_access_totals, staged.tier_access_totals
    )
    saved = 1.0 - staged.device_busy_ms.sum() / plain.device_busy_ms.sum()
    assert saved > 0.0
    report(
        "serving_multitier_staging",
        f"{model.name}: staging {STAGING_GIB} GiB/GPU/cold-tier "
        f"(paper-scale) cuts device busy time by {saved:.1%} at identical "
        f"per-tier access counts\n"
        f"p50 {plain.p50_ms:.3f} -> {staged.p50_ms:.3f} ms, "
        f"p99 {plain.p99_ms:.3f} -> {staged.p99_ms:.3f} ms",
    )


def test_multitier_drift_replans(models, profiles):
    """Drift-triggered replanning end to end on the 3-tier topology."""
    model = models[2]
    profile = profiles[model.name]
    topology = node_from_tier_names(
        [f"hbm:{HBM_SLICE_GIB}", f"dram:{DRAM_SLICE_GIB}", "ssd"],
        num_gpus=BENCH_GPUS,
        scale=TOPO_SCALE,
    )
    server = LookupServer(
        model, profile, topology,
        sharder=MultiTierSharder(batch_size=BENCH_BATCH, steps=100),
        config=ServingConfig(
            max_batch_size=256, max_delay_ms=2.0,
            drift_threshold_pct=2.0, drift_min_samples=256,
            drift_check_every_batches=4,
        ),
    )
    arenas = synthetic_request_arenas(
        model, num_requests=REQUESTS, qps=SATURATING_QPS, seed=7,
        drift=DriftModel(feature_noise=4.0, alpha_noise=4.0),
        months_per_request=24.0 / REQUESTS,
    )
    metrics = server.serve_arenas(arenas)
    assert metrics.num_replans >= 1, "drifted stream should trigger a replan"
    assert metrics.num_requests == REQUESTS
    builds = metrics.replan_build_ms
    report(
        "serving_multitier_replans",
        f"{model.name} 3-tier drifted stream: {metrics.num_replans} "
        f"replans, build cost per replan (ms): "
        + ", ".join(f"{b:.1f}" for b in builds),
    )
