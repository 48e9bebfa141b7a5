"""Serving with the hot-row replica lane: parity, replans, metrics.

End-to-end coverage of ``LookupServer(replication=...)``: the columnar
fast path and the per-request scalar reference must stay bit-identical
with replication on (three-tier topology included), drift replans must
recompute the replica set from the observed profile, and the serving
metrics must expose the replica lane and the device-load imbalance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MultiTierSharder,
    RecShardFastSharder,
    ReplicationPolicy,
    plan_with_replication,
)
from repro.data.drift import DriftModel
from repro.data.model import rm2, rm3
from repro.memory import node_from_tier_names, paper_node, paper_scales
from repro.serving import (
    LookupServer,
    ServingConfig,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile

FEATURES = 49
GPUS = 4
TOPO_SCALE, ROW_SCALE = paper_scales(FEATURES, GPUS)
REQUESTS = 384
GIB = 2**30


def two_tier_world():
    model = rm2(num_features=FEATURES, row_scale=ROW_SCALE)
    profile = analytic_profile(model)
    topology = paper_node(num_gpus=GPUS, scale=TOPO_SCALE)
    return model, profile, topology


def three_tier_world():
    model = rm3(num_features=FEATURES, row_scale=ROW_SCALE)
    profile = analytic_profile(model)
    topology = node_from_tier_names(
        ["hbm:8", "dram:24", "ssd"], num_gpus=GPUS, scale=TOPO_SCALE
    )
    return model, profile, topology


def policy(gib: float = 1.0) -> ReplicationPolicy:
    return ReplicationPolicy(capacity_bytes=int(gib * GIB * TOPO_SCALE))


def arenas_for(model, seed: int):
    return list(
        synthetic_request_arenas(
            model, num_requests=REQUESTS, qps=1e9, seed=seed
        )
    )


@pytest.mark.parametrize("world_builder,sharder_cls", [
    (two_tier_world, RecShardFastSharder),
    (three_tier_world, MultiTierSharder),
])
def test_fast_and_reference_paths_bit_identical(world_builder, sharder_cls):
    """Columnar+vectorized vs objects+scalar, replica lane on — including
    the three-tier hierarchy the issue pins."""
    model, profile, topology, = world_builder()
    arenas = arenas_for(model, seed=31)

    def serve(vectorized):
        server = LookupServer(
            model, profile, topology,
            sharder=sharder_cls(batch_size=256),
            config=ServingConfig(max_batch_size=128, max_delay_ms=2.0),
            replication=policy(),
            vectorized=vectorized,
        )
        if vectorized:
            return server, server.serve_arenas(arenas)
        return server, server.serve(r for a in arenas for r in a)

    fast_server, fast = serve(True)
    _, reference = serve(False)
    assert fast.summary(deterministic_only=True) == (
        reference.summary(deterministic_only=True)
    )
    np.testing.assert_array_equal(
        fast.latencies_ms(), reference.latencies_ms()
    )
    np.testing.assert_array_equal(
        fast.tier_access_totals, reference.tier_access_totals
    )
    np.testing.assert_array_equal(
        fast.replica_access_totals, reference.replica_access_totals
    )
    assert fast.replica_access_totals.sum() > 0
    assert fast_server.executor.plan.replica_rows is not None
    summary = fast.summary()
    assert summary["replica_hits"] == int(fast.replica_access_totals.sum())
    assert summary["load_imbalance"] >= 1.0
    assert "replica lane" in fast.format_report()


def test_serving_counts_match_offline_replay_with_replication():
    """Table 5 online still holds with routing in play: serving-path
    per-tier/per-device counts equal an offline replay of the same
    trace through a fresh executor."""
    from repro.engine import ShardedExecutor

    model, profile, topology = two_tier_world()
    plan = plan_with_replication(
        RecShardFastSharder(batch_size=256), model, profile, topology,
        policy(),
    )
    arenas = arenas_for(model, seed=13)
    server = LookupServer(
        model, profile, topology, plan=plan,
        config=ServingConfig(max_batch_size=128, max_delay_ms=2.0),
    )
    metrics = server.serve_arenas(arenas)
    executor = ShardedExecutor(model, plan, profile, topology)
    offline = np.zeros(
        (topology.num_tiers, topology.num_devices), dtype=np.int64
    )
    offline_replicas = np.zeros(topology.num_devices, dtype=np.int64)
    for arena in arenas:
        _, accesses, _, replicas = executor.run_batch(arena.batch)
        offline += accesses
        offline_replicas += replicas
    np.testing.assert_array_equal(metrics.tier_access_totals, offline)
    np.testing.assert_array_equal(
        metrics.replica_access_totals, offline_replicas
    )


def test_fixed_plan_with_policy_wraps_once():
    model, profile, topology = two_tier_world()
    carved_plan = RecShardFastSharder(batch_size=256).shard(
        model, profile, topology
    )
    # A plan built on the full topology leaves no headroom; the server
    # must surface that as a validation error rather than oversubscribe.
    with pytest.raises(Exception):
        LookupServer(
            model, profile, topology, plan=carved_plan,
            replication=policy(8.0),
        )
    replicated = plan_with_replication(
        RecShardFastSharder(batch_size=256), model, profile, topology,
        policy(),
    )
    server = LookupServer(model, profile, topology, plan=replicated)
    metrics = server.serve_arenas(arenas_for(model, seed=3))
    assert metrics.replica_access_totals.sum() > 0


def test_drift_replans_recompute_replica_set():
    model, profile, topology = two_tier_world()
    server = LookupServer(
        model, profile, topology,
        sharder=RecShardFastSharder(batch_size=256),
        config=ServingConfig(
            max_batch_size=128, max_delay_ms=2.0,
            drift_threshold_pct=2.0, drift_min_samples=128,
            drift_check_every_batches=2,
        ),
        replication=policy(),
    )
    first_rows = server.executor.plan.replica_rows.copy()
    arenas = synthetic_request_arenas(
        model, num_requests=REQUESTS * 2, qps=1e9, seed=17,
        drift=DriftModel(feature_noise=4.0, alpha_noise=4.0),
        months_per_request=24.0 / (REQUESTS * 2),
    )
    metrics = server.serve_arenas(arenas)
    assert metrics.num_replans >= 1
    replicated = server.executor.plan
    assert replicated.replica_rows is not None
    assert replicated.replica_rows.sum() > 0
    # The replica set was rebuilt from observed statistics (the drifted
    # profile virtually always moves at least one cutoff).
    assert not np.array_equal(first_rows, replicated.replica_rows)
    # Replica budget still honored after every replan.
    replicated.validate(model, topology)


def test_replication_reduces_imbalance_on_skewed_features():
    """A deliberately skewed mini-workload: the replica lane must
    strictly reduce max/mean device accesses."""
    from dataclasses import replace

    model, _, topology = two_tier_world()
    tables = list(model.tables)
    hot = max(range(len(tables)), key=lambda j: tables[j].num_rows)
    rest = sum(
        t.feature.coverage * t.feature.avg_pooling for t in tables
    )
    tables[hot] = replace(
        tables[hot],
        feature=replace(
            tables[hot].feature,
            coverage=1.0, avg_pooling=max(1.0, 0.8 * rest),
            pooling_sigma=0.4, alpha=1.2,
        ),
    )
    model = model.with_tables(tables)
    profile = analytic_profile(model)
    arenas = arenas_for(model, seed=23)
    sharder = RecShardFastSharder(batch_size=256)
    plain_plan = sharder.shard(model, profile, topology)
    replicated = plan_with_replication(
        sharder, model, profile, topology, policy(2.0)
    )
    config = ServingConfig(max_batch_size=128, max_delay_ms=2.0)
    plain = LookupServer(
        model, profile, topology, plan=plain_plan, config=config
    ).serve_arenas(arenas)
    balanced = LookupServer(
        model, profile, topology, plan=replicated, config=config
    ).serve_arenas(arenas)
    assert balanced.load_imbalance < plain.load_imbalance
    assert balanced.qps >= plain.qps
