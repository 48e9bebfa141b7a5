"""Hot-row replication: load-balanced serving under a skewed workload.

RecShard's placement balances *expected cost*, but a table is an atomic
placement unit: when one feature dominates the traffic, the device that
owns it is the hot spot no assignment can dissolve.  This bench builds
that adversarial workload — one mega-hot feature carrying just under
half of all lookups — and shows the FlexShard-style fix end to end:
replicate the statically-hottest rows on every GPU (budget carved out
of HBM by :func:`repro.core.replicate.plan_with_replication`) and route
each replicated lookup to the least-loaded GPU.

Three gates:

* **routing parity** — the shipped replica lane (closed-form
  least-loaded assignment per feature) must produce *bit-identical*
  :class:`~repro.serving.metrics.ServingMetrics` to the scalar oracle
  (``tests.oracles.serving.ScalarServer``: per-lookup argmin loop + per-lookup
  remap classification),
  replica routing and per-device access totals included.
* **load balance** — replication must cut the max/mean per-device
  access imbalance by at least ``RECSHARD_BENCH_MIN_IMBALANCE_GAIN``
  (default 2x) versus the unreplicated plan of the same workload.
* **no QPS regression** — the replicated configuration must sustain at
  least the plain configuration's simulated QPS (it should win: the
  hot device bounds every batch, and replication is precisely what
  offloads it).

Headline numbers land machine-readable in
``reports/BENCH_replication.json``.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    BENCH_BATCH,
    BENCH_FEATURES,
    BENCH_GPUS,
    ROW_SCALE,
    TOPO_SCALE,
    format_table,
    report,
    report_json,
)
from repro.core import (
    RecShardFastSharder,
    ReplicationPolicy,
    plan_with_replication,
)
from repro.data.model import rm2
from repro.memory import GIB, paper_node
from repro.serving import LookupServer, ServingConfig, synthetic_request_arenas
from repro.stats import analytic_profile
from tests.oracles.serving import ScalarServer, iter_requests

REQUESTS = 2048
SATURATING_QPS = 1e9
#: Per-GPU replica budget (paper-scale GiB), carved out of HBM.
REPLICATE_GIB = 2.0
#: The hot feature's expected lookups as a multiple of everything else:
#: at 0.8 it carries ~44% of all traffic, which no table-granular
#: placement can spread across GPUs.
HOT_SHARE = 0.8
MIN_IMBALANCE_GAIN = float(
    os.environ.get("RECSHARD_BENCH_MIN_IMBALANCE_GAIN", 2.0)
)


def build_skewed_model():
    """RM2 with one mega-hot feature (always present, huge pooling).

    The skew is expressed relative to the rest of the population so the
    hot share survives the CI shrink knobs, and the hot feature's value
    distribution is Zipfian enough that a modest replica budget covers
    most of its traffic — the regime FlexShard reports for production
    embedding accesses.
    """
    base = rm2(num_features=BENCH_FEATURES, row_scale=ROW_SCALE)
    rest = sum(
        t.feature.coverage * t.feature.avg_pooling for t in base.tables
    )
    tables = list(base.tables)
    hot = max(range(len(tables)), key=lambda j: tables[j].num_rows)
    feature = replace(
        tables[hot].feature,
        coverage=1.0,
        avg_pooling=max(1.0, HOT_SHARE * rest),
        pooling_sigma=0.4,
        alpha=1.2,
    )
    tables[hot] = replace(tables[hot], feature=feature)
    return base.with_tables(tables)


@pytest.fixture(scope="module")
def world():
    model = build_skewed_model()
    profile = analytic_profile(model)
    topology = paper_node(num_gpus=BENCH_GPUS, scale=TOPO_SCALE)
    sharder = RecShardFastSharder(batch_size=BENCH_BATCH, name="RecShard")
    plain = sharder.shard(model, profile, topology)
    plain.validate(model, topology)
    policy = ReplicationPolicy(
        capacity_bytes=int(REPLICATE_GIB * GIB * TOPO_SCALE)
    )
    replicated = plan_with_replication(
        sharder, model, profile, topology, policy
    )
    replicated.validate(model, topology)
    return model, profile, topology, plain, replicated


def make_server(world, plan, cls=LookupServer):
    model, profile, topology, _, _ = world
    return cls(
        model, profile, topology, plan=plan,
        config=ServingConfig(max_batch_size=256, max_delay_ms=2.0),
    )


def stream(model, seed):
    return list(
        synthetic_request_arenas(
            model, num_requests=REQUESTS, qps=SATURATING_QPS, seed=seed
        )
    )


def test_replica_routing_parity(world):
    """Vectorized closed-form routing == scalar per-lookup argmin,
    bit-identical serving metrics (and it must not be slower)."""
    model, profile, topology, plain, replicated = world
    arenas = stream(model, seed=42)

    def run_reference():
        server = make_server(world, replicated, cls=ScalarServer)
        start = time.perf_counter()
        metrics = server.serve(iter_requests(arenas))
        return time.perf_counter() - start, metrics

    def run_fast():
        server = make_server(world, replicated)
        start = time.perf_counter()
        metrics = server.serve_arenas(arenas)
        return time.perf_counter() - start, metrics

    run_reference()  # warm lazy remap/rank tables
    run_fast()
    ref_s, fast_s = [], []
    ref_metrics = fast_metrics = None
    for _ in range(2):
        elapsed, ref_metrics = run_reference()
        ref_s.append(elapsed)
        elapsed, fast_metrics = run_fast()
        fast_s.append(elapsed)
    speedup = min(ref_s) / min(fast_s)

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
    np.testing.assert_array_equal(
        ref_metrics.replica_access_totals, fast_metrics.replica_access_totals
    )
    # The lane must actually fire for the parity to mean anything.
    assert fast_metrics.replica_access_totals.sum() > 0
    # Closed-form routing replaces a per-lookup Python loop; on the
    # skewed stream (hundreds of replicated lookups per microbatch) it
    # must at least break even.
    assert speedup >= 1.0, f"vectorized routing slower: {speedup:.2f}x"
    world_report = {
        "routing_speedup": speedup,
        "replica_hits": int(fast_metrics.replica_access_totals.sum()),
    }
    report(
        "replication_parity",
        f"{model.name} skewed stream, {REQUESTS} requests: scalar vs "
        f"vectorized replica routing bit-identical; fast path "
        f"{speedup:.2f}x the per-lookup reference, "
        f"{world_report['replica_hits']} lookups routed",
    )


def test_replication_balances_load_without_qps_regression(world):
    """>= MIN_IMBALANCE_GAIN reduction in max/mean device accesses at
    no simulated-QPS loss, with machine-readable evidence."""
    model, profile, topology, plain, replicated = world
    arenas = stream(model, seed=77)

    plain_metrics = make_server(world, plain).serve_arenas(arenas)
    repl_metrics = make_server(world, replicated).serve_arenas(arenas)

    assert plain_metrics.num_requests == REQUESTS
    assert repl_metrics.num_requests == REQUESTS
    # Identical trace content: replication moves lookups between
    # devices, never creates or drops them.
    assert (
        repl_metrics.device_access_totals.sum()
        == plain_metrics.device_access_totals.sum()
    )

    imbalance_plain = plain_metrics.load_imbalance
    imbalance_repl = repl_metrics.load_imbalance
    gain = imbalance_plain / imbalance_repl
    qps_plain = plain_metrics.qps
    qps_repl = repl_metrics.qps

    rows = [
        ("plain", f"{imbalance_plain:.2f}x", f"{qps_plain:,.0f}",
         f"{plain_metrics.p99_ms:.3f}", "0"),
        ("replicated", f"{imbalance_repl:.2f}x", f"{qps_repl:,.0f}",
         f"{repl_metrics.p99_ms:.3f}",
         f"{repl_metrics.replica_access_totals.sum():,}"),
    ]
    table = format_table(
        ["plan", "device imbalance", "QPS", "p99 (ms)", "replica hits"],
        rows,
    )
    text = (
        f"{model.name} + mega-hot feature (~"
        f"{HOT_SHARE / (1 + HOT_SHARE):.0%} of lookups) on {BENCH_GPUS} "
        f"GPUs, {REQUESTS} requests, saturating load, replica budget "
        f"{REPLICATE_GIB:g} GiB/GPU paper-scale\n\n{table}\n\n"
        f"imbalance reduction {gain:.2f}x (floor {MIN_IMBALANCE_GAIN:g}x), "
        f"QPS {qps_repl / qps_plain:.2f}x plain"
    )
    report("replication", text)
    report_json(
        "replication",
        {
            "requests": REQUESTS,
            "hot_share": HOT_SHARE / (1 + HOT_SHARE),
            "replicate_gib": REPLICATE_GIB,
            "replicated_rows": replicated.num_replicated_rows,
            "replica_hits": int(repl_metrics.replica_access_totals.sum()),
            "imbalance_plain": imbalance_plain,
            "imbalance_replicated": imbalance_repl,
            "imbalance_gain": gain,
            "imbalance_gain_floor": MIN_IMBALANCE_GAIN,
            "qps_plain": qps_plain,
            "qps_replicated": qps_repl,
            "p99_ms_plain": plain_metrics.p99_ms,
            "p99_ms_replicated": repl_metrics.p99_ms,
            "parity": "bit-identical",
        },
    )
    assert gain >= MIN_IMBALANCE_GAIN, (
        f"imbalance gain {gain:.2f}x below floor {MIN_IMBALANCE_GAIN:g}x "
        f"({imbalance_plain:.2f}x -> {imbalance_repl:.2f}x)"
    )
    assert qps_repl >= qps_plain, (
        f"QPS regressed: {qps_plain:,.0f} -> {qps_repl:,.0f}"
    )


def test_replicated_drift_replans(world):
    """Drift replans recompute the replica set from the observed profile
    and keep serving without interruption."""
    from repro.data.drift import DriftModel

    model, profile, topology, _, _ = world
    policy = ReplicationPolicy(
        capacity_bytes=int(REPLICATE_GIB * GIB * TOPO_SCALE)
    )
    server = LookupServer(
        model, profile, topology,
        sharder=RecShardFastSharder(batch_size=BENCH_BATCH, name="RecShard"),
        config=ServingConfig(
            max_batch_size=256, max_delay_ms=2.0,
            drift_threshold_pct=2.0, drift_min_samples=256,
            drift_check_every_batches=4,
        ),
        replication=policy,
    )
    arenas = synthetic_request_arenas(
        model, num_requests=REQUESTS, qps=SATURATING_QPS, seed=7,
        drift=DriftModel(feature_noise=4.0, alpha_noise=4.0),
        months_per_request=24.0 / REQUESTS,
    )
    metrics = server.serve_arenas(arenas)
    assert metrics.num_replans >= 1, "drifted stream should trigger a replan"
    assert metrics.num_requests == REQUESTS
    # The post-replan executor still carries a replica set built from
    # the observed statistics.
    assert server.executor.plan.replica_rows is not None
    assert server.executor.plan.replica_rows.sum() > 0
    report(
        "replication_replans",
        f"{model.name} drifted skewed stream: {metrics.num_replans} "
        f"replans, replica set recomputed each time "
        f"({metrics.replan_build_total_ms:.1f} ms build wall-clock "
        f"off-path); replica lane served "
        f"{metrics.replica_access_totals.sum()} lookups",
    )
