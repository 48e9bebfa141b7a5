"""Per-table sharding-strategy enumeration: auto-pick vs row-range-only.

The strategy planner's reason to exist is the workload LPT cannot fix:
one table so wide (embedding dim) that wherever its row ranges land,
that device is the makespan.  This bench builds exactly that shape —
a heterogeneous table population with its hottest table widened to a
dominant dim — and gates:

* **gain** — ``repro plan --strategies auto``'s per-table winners
  (scored by ``expected_device_costs_ms_many`` under the one shared
  capacity model) must beat the row-range-only plan's expected max
  device cost by at least ``RECSHARD_BENCH_MIN_STRATEGY_GAIN`` ×,
  and the picked assignment must actually be mixed (≥ 1 non-row
  strategy);
* **parity** — replaying a trace through the auto plan, the
  lane-code classifier and the scalar oracle
  (``tests.oracles.engine.ScalarExecutor``) must produce
  bit-identical metrics (access counts, fast-lane hits, device times)
  — the segment reduce against the oracle's per-group reduce, including
  the column split and any twrw shard ranges;
* **composition** — the auto plan served once more with hot-row
  replicas and a device cache (both selected per shard) must match the
  oracle too (device times within its ``FAST_LANE_RTOL``), every
  lookup accessed once.

Environment knobs:
    RECSHARD_BENCH_MIN_STRATEGY_GAIN  row-only/auto makespan multiple
                                      the auto plan must reach (1.5)
    RECSHARD_BENCH_WIDE_DIM           dominant table's embedding dim
                                      (2048)

Headline numbers land machine-readable in
``reports/BENCH_strategies.json``.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from conftest import (
    BENCH_BATCH,
    BENCH_FEATURES,
    BENCH_GPUS,
    BENCH_ITERS,
    format_table,
    report,
    report_json,
)
from repro.core import (
    RecShardFastSharder,
    ReplicationPolicy,
    build_replication,
    carve_replica_budget,
    plan_with_strategies,
)
from repro.data.feature import SparseFeatureSpec
from repro.data.model import EmbeddingTableSpec, ModelSpec
from repro.data.synthetic import TraceGenerator
from repro.engine import CacheModel, ShardedExecutor
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.engine import ScalarExecutor, assert_same_times

MIN_STRATEGY_GAIN = float(
    os.environ.get("RECSHARD_BENCH_MIN_STRATEGY_GAIN", 1.5)
)
WIDE_DIM = int(os.environ.get("RECSHARD_BENCH_WIDE_DIM", 2048))
BASE_DIM = 32
ROWS = 2048
SEED = 0


def build_wide_world():
    """A table population with one dominant wide-dim table.

    Statistics are heterogeneous (the planner must still tier-split
    every table); the hottest table by expected access weight is
    widened to ``WIDE_DIM`` so its byte traffic dwarfs the rest —
    the shape where row-range-only placement hits its makespan wall.
    """
    rng = np.random.default_rng(SEED)
    tables = []
    for i in range(BENCH_FEATURES):
        hash_size = int(ROWS * rng.uniform(0.5, 2.0))
        tables.append(
            EmbeddingTableSpec(
                feature=SparseFeatureSpec(
                    name=f"t{i}",
                    cardinality=hash_size * 2,
                    hash_size=hash_size,
                    alpha=float(rng.uniform(0.8, 1.5)),
                    avg_pooling=float(rng.uniform(2, 30)),
                    coverage=float(rng.uniform(0.2, 1.0)),
                    hash_seed=i,
                ),
                dim=BASE_DIM,
            )
        )
    weights = [t.feature.avg_pooling * t.feature.coverage for t in tables]
    wide = int(np.argmax(weights))
    tables[wide] = dataclasses.replace(tables[wide], dim=WIDE_DIM)
    model = ModelSpec(name="wide", tables=tuple(tables))
    profile = analytic_profile(model)
    total = model.total_bytes
    # Roomy HBM: capacity pressure is the planner benches' subject;
    # here the makespan imbalance is, so shard candidates never lose
    # to a capacity technicality.
    topology = SystemTopology.two_tier(
        num_devices=BENCH_GPUS,
        hbm_capacity=total,
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )
    return model, profile, topology, wide


def test_auto_strategies_beat_row_only():
    """Gate: mixed per-table winners vs the row-range-only makespan."""
    model, profile, topology, wide = build_wide_world()
    sharder = RecShardFastSharder(batch_size=BENCH_BATCH, steps=60)
    start = time.perf_counter()
    sp = plan_with_strategies(
        sharder, model, profile, topology, strategies=("auto",)
    )
    plan_ms = (time.perf_counter() - start) * 1e3
    sp.validate(model, topology)
    meta = sp.metadata
    gain = meta["row_only_max_cost_ms"] / meta["estimated_max_cost_ms"]
    counts = sp.strategy_counts()
    non_row = sum(counts[k] for k in ("table", "column", "twrw"))
    assert non_row >= 1, f"auto pick degenerated to all-row: {counts}"
    assert sp.table_strategies[wide].kind != "row", (
        "the dominant wide table was left row-range-only"
    )
    assert gain >= MIN_STRATEGY_GAIN, (
        f"strategy gain {gain:.2f}x below floor {MIN_STRATEGY_GAIN}x "
        f"(row-only {meta['row_only_max_cost_ms']:.4f} ms, "
        f"auto {meta['estimated_max_cost_ms']:.4f} ms)"
    )

    rows = [
        ["row-range-only", f"{meta['row_only_max_cost_ms']:.4f}", "-"],
        [
            "auto strategies",
            f"{meta['estimated_max_cost_ms']:.4f}",
            f"{gain:.2f}x",
        ],
    ]
    report(
        "strategies_gain",
        format_table(
            ["plan", "est. max GPU ms", "gain"], rows
        )
        + f"\nmix: {counts}  plan build: {plan_ms:.0f} ms",
    )
    report_json(
        "strategies",
        {
            "wide_dim": WIDE_DIM,
            "row_only_max_cost_ms": meta["row_only_max_cost_ms"],
            "auto_max_cost_ms": meta["estimated_max_cost_ms"],
            "gain": gain,
            "min_gain_floor": MIN_STRATEGY_GAIN,
            "strategy_counts": counts,
            "plan_build_ms": plan_ms,
        },
    )


def _serve_against_oracle(model, profile, topology, plan, **lanes):
    """Replay a trace through ``plan`` on the lane-code executor and
    the scalar oracle: identical access counts, fast-lane hits and
    replica accesses, device times bit-identical (within the oracle's
    ``FAST_LANE_RTOL`` with a cache), every lookup accessed once.
    Returns the summed (hits, replica accesses)."""
    fast = ShardedExecutor(model, plan, profile, topology, **lanes)
    slow = ScalarExecutor(model, plan, profile, topology, **lanes)
    gen = TraceGenerator(model, batch_size=BENCH_BATCH, seed=7)
    total_lookups = 0
    hits = replicas = 0
    for _ in range(max(2, BENCH_ITERS)):
        batch = gen.next_batch()
        ft, fa, fh, fr = fast.run_batch(batch)
        st, sa, sh, sr = slow.run_batch(batch)
        np.testing.assert_array_equal(fa, sa)
        np.testing.assert_array_equal(fh, sh)
        np.testing.assert_array_equal(fr, sr)
        assert_same_times(ft, st, fast)
        assert fa.sum() == batch.total_lookups
        total_lookups += batch.total_lookups
        hits += fh.sum()
        replicas += fr.sum()
    assert total_lookups > 0
    return hits, replicas


def test_auto_plan_scalar_vectorized_parity():
    """Gate: bit-identical metrics on every lane of the auto plan."""
    model, profile, topology, _ = build_wide_world()
    sharder = RecShardFastSharder(batch_size=BENCH_BATCH, steps=60)
    sp = plan_with_strategies(
        sharder, model, profile, topology, strategies=("auto",)
    )
    _serve_against_oracle(model, profile, topology, sp)


def test_auto_plan_composes_with_replicas_and_cache():
    """Gate: the auto plan served again with hot-row replicas (carve,
    pick strategies, spend the carved bytes) and a device cache, whose
    hot sets are selected per shard — matching the scalar oracle."""
    model, profile, topology, wide = build_wide_world()
    sharder = RecShardFastSharder(batch_size=BENCH_BATCH, steps=60)
    policy = ReplicationPolicy(
        capacity_bytes=topology.tiers[0].capacity_bytes // 64
    )
    sp = plan_with_strategies(
        sharder, model, profile, carve_replica_budget(topology, policy),
        strategies=("auto",),
    )
    sp = build_replication(policy, sp, profile, model, topology)
    sp.validate(model, topology)
    assert sp.table_strategies[wide].kind in ("column", "twrw")
    assert sp.num_replicated_rows > 0
    cache = CacheModel(
        capacity_bytes=topology.tiers[0].capacity_bytes // 64,
        bandwidth=2e12,
    )
    hits, replicas = _serve_against_oracle(
        model, profile, topology, sp, cache=cache
    )
    assert hits > 0 and replicas > 0
