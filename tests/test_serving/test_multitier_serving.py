"""Multi-tier serving runtime: end-to-end tests.

The capacity-scaling scenario of Section 4.4 run through the *online*
layer: a 3-tier (HBM/DRAM/SSD) topology planned by the multi-tier
greedy sharder, served by the lane-code engine, drift-replanned
mid-stream, with per-tier access counts surfaced in
:class:`~repro.serving.metrics.ServingMetrics` — and the whole shipped
configuration pinned bit-for-bit against the scalar per-request oracle
(``tests.oracles.serving.ScalarServer``: object admission + per-lookup
remap-table executor).
"""

import numpy as np
import pytest

from repro.core import MultiTierSharder
from repro.data.drift import DriftModel
from repro.engine import ShardedExecutor, TierStagingModel
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.serving import (
    LookupServer,
    ServingConfig,
    ServingMetrics,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile
from tests.oracles.engine import FAST_LANE_RTOL
from tests.oracles.serving import ScalarServer, iter_requests
from tests.test_core.conftest import build_model

BATCH = 64


@pytest.fixture
def world():
    model = build_model(num_tables=6, seed=51)
    profile = analytic_profile(model)
    total = model.total_bytes
    topology = SystemTopology(
        num_devices=2,
        tiers=(
            MemoryTier("hbm", int(total * 0.15 / 2), 200e9),
            MemoryTier("dram", int(total * 0.3 / 2), 10e9),
            MemoryTier("ssd", total, 1e9),
        ),
    )
    return model, profile, topology


def make_server(world, staging=None, cls=LookupServer, **config_kwargs):
    model, profile, topology = world
    kwargs = dict(max_batch_size=16, max_delay_ms=1.0)
    kwargs.update(config_kwargs)
    return cls(
        model, profile, topology,
        sharder=MultiTierSharder(batch_size=BATCH, steps=20),
        config=ServingConfig(**kwargs),
        staging=staging,
    )


def assert_same_metrics(ref: ServingMetrics, fast: ServingMetrics, rtol=0.0):
    """Bit-identical metrics; simulated times within ``rtol`` (the
    oracle's ``FAST_LANE_RTOL`` when a staging lane is on)."""
    want = ref.summary(deterministic_only=True)
    got = fast.summary(deterministic_only=True)
    assert got.pop("tier_accesses") == want.pop("tier_accesses")
    assert got == pytest.approx(want, rel=rtol, abs=0)
    assert ref.batch_sizes == fast.batch_sizes
    assert ref.batch_lookups == fast.batch_lookups
    assert ref.replan_ms == fast.replan_ms
    np.testing.assert_allclose(
        fast.latencies_ms(), ref.latencies_ms(), rtol=rtol, atol=0
    )
    np.testing.assert_allclose(
        fast.device_busy_ms, ref.device_busy_ms, rtol=rtol, atol=0
    )
    np.testing.assert_array_equal(
        ref.tier_access_totals, fast.tier_access_totals
    )
    for a, b in zip(ref.tier_access_chunks, fast.tier_access_chunks):
        np.testing.assert_array_equal(a, b)


class TestMultiTierEndToEnd:
    def test_three_tier_serving_touches_every_tier(self, world):
        server = make_server(world)
        metrics = server.serve_arenas(
            synthetic_request_arenas(world[0], 400, qps=30000, seed=1)
        )
        totals = metrics.tier_access_totals
        assert totals.shape == (3, 2)
        assert metrics.tier_names == ("hbm", "dram", "ssd")
        assert (totals.sum(axis=1) > 0).all(), totals
        assert totals.sum() == sum(metrics.batch_lookups)
        # The fastest tier holds the hottest rows: its share dominates.
        assert metrics.tier_access_fraction("hbm") > 0.5
        assert "tier_accesses" in metrics.summary(deterministic_only=True)
        assert "tier accesses" in metrics.format_report()

    def test_fast_path_matches_scalar_reference_with_drift(self, world):
        """Columnar admission + lane-code engine vs object admission +
        scalar engine: bit-identical metrics through drift replans
        (simulated times within the oracle's fast-lane tolerance)."""
        kwargs = dict(
            num_requests=600, qps=30000, seed=5,
            drift=DriftModel(feature_noise=6.0, alpha_noise=4.0),
            months_per_request=0.05, chunk_size=128,
        )
        config = dict(
            drift_threshold_pct=1.0, drift_min_samples=128,
            drift_check_every_batches=4,
        )
        staging = TierStagingModel(
            capacity_bytes=world[0].total_bytes // 30
        )
        fast = make_server(world, staging=staging, **config)
        fast_metrics = fast.serve_arenas(
            synthetic_request_arenas(world[0], **kwargs)
        )
        ref = make_server(world, staging=staging, cls=ScalarServer, **config)
        ref_metrics = ref.serve(
            iter_requests(synthetic_request_arenas(world[0], **kwargs))
        )
        assert fast_metrics.num_replans >= 1
        assert_same_metrics(ref_metrics, fast_metrics, rtol=FAST_LANE_RTOL)

    def test_staging_reduces_latency_not_counts(self, world):
        kwargs = dict(num_requests=400, qps=1e9, seed=3)
        plain = make_server(world)
        plain_metrics = plain.serve_arenas(
            synthetic_request_arenas(world[0], **kwargs)
        )
        staged = make_server(
            world,
            staging=TierStagingModel(
                capacity_bytes=world[0].total_bytes // 20
            ),
        )
        staged_metrics = staged.serve_arenas(
            synthetic_request_arenas(world[0], **kwargs)
        )
        # Identical placement and identical traffic...
        np.testing.assert_array_equal(
            plain_metrics.tier_access_totals,
            staged_metrics.tier_access_totals,
        )
        # ...but statically-staged hot cold rows serve faster.
        assert (
            staged_metrics.device_busy_ms.sum()
            < plain_metrics.device_busy_ms.sum()
        )
        assert staged_metrics.p50_ms <= plain_metrics.p50_ms + 1e-12

    def test_serving_counts_match_offline_replay(self, world):
        """Table 5 online: per-tier serving counts equal the offline
        replay of the same trace content, microbatching regardless."""
        model, profile, topology = world
        plan = MultiTierSharder(batch_size=BATCH, steps=20).shard(
            model, profile, topology
        )
        arenas = list(
            synthetic_request_arenas(model, 500, qps=40000, seed=9)
        )
        server = LookupServer(
            model, profile, topology, plan=plan,
            config=ServingConfig(max_batch_size=16, max_delay_ms=1.0),
        )
        metrics = server.serve_arenas(arenas)

        executor = ShardedExecutor(model, plan, profile, topology)
        offline = np.zeros(
            (topology.num_tiers, topology.num_devices), dtype=np.int64
        )
        for arena in arenas:
            _, accesses, _, _ = executor.run_batch(arena.batch)
            offline += accesses
        np.testing.assert_array_equal(metrics.tier_access_totals, offline)

    def test_two_tier_server_unchanged_by_tier_metrics(self, world):
        """The two-tier default path reports tier counts too."""
        model = build_model(num_tables=4, seed=52)
        profile = analytic_profile(model)
        total = model.total_bytes
        topology = SystemTopology.two_tier(
            2, int(total * 0.4 / 2), 200e9, total, 10e9
        )
        from repro.core import RecShardFastSharder

        server = LookupServer(
            model, profile, topology,
            sharder=RecShardFastSharder(batch_size=BATCH),
            config=ServingConfig(max_batch_size=16, max_delay_ms=1.0),
        )
        metrics = server.serve_arenas(
            synthetic_request_arenas(model, 200, qps=20000, seed=2)
        )
        assert metrics.tier_names == ("hbm", "uvm")
        assert metrics.tier_access_totals.sum() == sum(metrics.batch_lookups)


class TestServingMetricsTierChunks:
    def test_chunks_accumulate(self):
        metrics = ServingMetrics(num_devices=2, tier_names=("hbm", "uvm"))
        metrics.record_batch(
            arrivals_ms=[0.0], start_ms=0.0, finish_ms=1.0,
            device_times_ms=np.array([1.0, 0.5]), total_lookups=7,
            tier_accesses=np.array([[4, 2], [1, 0]]),
        )
        metrics.record_batch(
            arrivals_ms=[1.0], start_ms=1.0, finish_ms=2.0,
            device_times_ms=np.array([1.0, 0.5]), total_lookups=3,
            tier_accesses=np.array([[1, 1], [0, 1]]),
        )
        np.testing.assert_array_equal(
            metrics.tier_access_totals, [[5, 3], [1, 1]]
        )
        assert len(metrics.tier_access_chunks) == 2
        assert metrics.tier_access_fraction("hbm") == pytest.approx(0.8)
        assert metrics.tier_access_fraction(1) == pytest.approx(0.2)
        assert metrics.summary()["tier_accesses"] == {"hbm": 8, "uvm": 2}

    def test_without_tier_matrices(self):
        metrics = ServingMetrics(num_devices=2)
        metrics.record_batch(
            arrivals_ms=[0.0], start_ms=0.0, finish_ms=1.0,
            device_times_ms=np.array([1.0, 0.5]), total_lookups=7,
        )
        assert metrics.tier_access_totals.size == 0
        assert metrics.tier_access_fraction(0) == 0.0
        assert "tier_accesses" not in metrics.summary()

    def test_chunk_is_copied(self):
        metrics = ServingMetrics(num_devices=1, tier_names=("hbm",))
        chunk = np.array([[5]])
        metrics.record_batch(
            arrivals_ms=[0.0], start_ms=0.0, finish_ms=1.0,
            device_times_ms=np.array([1.0]), total_lookups=5,
            tier_accesses=chunk,
        )
        chunk[0, 0] = 999  # caller reuses its buffer (the executor does)
        assert metrics.tier_access_totals[0, 0] == 5
        assert metrics.tier_access_chunks[0][0, 0] == 5
