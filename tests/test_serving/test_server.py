"""Tests for the online lookup server, drift monitor, and metrics."""

import numpy as np
import pytest

from repro.core import RecShardFastSharder
from repro.data.drift import DriftModel
from repro.data.synthetic import TraceGenerator
from repro.memory.topology import SystemTopology
from repro.serving import (
    DriftMonitor,
    LookupServer,
    ServingConfig,
    ServingMetrics,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile
from tests.oracles.serving import iter_requests
from tests.test_core.conftest import build_model


def request_stream(model, **kwargs):
    """The per-request view of a seeded arena stream."""
    return iter_requests(synthetic_request_arenas(model, **kwargs))


BATCH = 64


@pytest.fixture
def world():
    model = build_model(num_tables=5, seed=41)
    profile = analytic_profile(model)
    total = model.total_bytes
    topology = SystemTopology.two_tier(
        num_devices=2,
        hbm_capacity=int(total * 0.4 / 2),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )
    return model, profile, topology


class TestSyntheticStream:
    def test_deterministic_per_seed(self, world):
        model, _, _ = world
        a = list(request_stream(model, num_requests=50, qps=1000, seed=3))
        b = list(request_stream(model, num_requests=50, qps=1000, seed=3))
        assert len(a) == len(b) == 50
        for ra, rb in zip(a, b):
            assert ra.arrival_ms == rb.arrival_ms
            for fa, fb in zip(ra.features, rb.features):
                np.testing.assert_array_equal(fa, fb)

    def test_arrivals_monotone_and_rate_plausible(self, world):
        model, _, _ = world
        stream = list(
            request_stream(model, num_requests=400, qps=10000, seed=5)
        )
        arrivals = [r.arrival_ms for r in stream]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        # 400 requests at 10k QPS span ~40 ms, give or take Poisson noise.
        assert 15.0 < arrivals[-1] < 120.0

    def test_request_shape(self, world):
        model, _, _ = world
        request = next(
            iter(request_stream(model, num_requests=1, qps=100, seed=1))
        )
        assert request.num_features == model.num_tables


class TestLookupServer:
    def test_serves_every_request_once(self, world):
        model, profile, topology = world
        server = LookupServer(
            model, profile, topology,
            sharder=RecShardFastSharder(batch_size=BATCH),
            config=ServingConfig(max_batch_size=16, max_delay_ms=1.0),
        )
        metrics = server.serve_arenas(
            synthetic_request_arenas(model, num_requests=300, qps=50000, seed=9)
        )
        assert metrics.num_requests == 300
        assert metrics.num_batches >= 300 // 16
        assert sum(metrics.batch_sizes) == 300

    def test_latency_includes_queue_wait(self, world):
        model, profile, topology = world
        # One request: it must wait out the full delay budget before the
        # (size-1'd) queue releases it.
        server = LookupServer(
            model, profile, topology,
            sharder=RecShardFastSharder(batch_size=BATCH),
            config=ServingConfig(max_batch_size=100, max_delay_ms=3.0),
        )
        metrics = server.serve_arenas(
            synthetic_request_arenas(model, num_requests=1, qps=1000, seed=2)
        )
        assert metrics.num_requests == 1
        assert metrics.p50_ms >= 3.0

    def test_fixed_plan_never_replans(self, world):
        model, profile, topology = world
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            model, profile, topology
        )
        server = LookupServer(
            model, profile, topology, plan=plan,
            config=ServingConfig(
                max_batch_size=16, max_delay_ms=1.0,
                drift_threshold_pct=0.0, drift_min_samples=1,
            ),
        )
        metrics = server.serve_arenas(
            synthetic_request_arenas(model, num_requests=200, qps=50000, seed=4)
        )
        assert metrics.num_replans == 0

    def test_drift_triggers_replan(self, world):
        model, profile, topology = world
        server = LookupServer(
            model, profile, topology,
            sharder=RecShardFastSharder(batch_size=BATCH),
            config=ServingConfig(
                max_batch_size=32, max_delay_ms=1.0,
                drift_threshold_pct=2.0,
                drift_min_samples=128,
                drift_check_every_batches=2,
            ),
        )
        replan_times = []
        stream = synthetic_request_arenas(
            model, num_requests=600, qps=50000, seed=6,
            drift=DriftModel(feature_noise=6.0),
            months_per_request=0.05,
        )
        metrics = server.serve_arenas(stream, on_replan=replan_times.append)
        assert metrics.num_requests == 600
        assert metrics.num_replans >= 1
        assert replan_times == metrics.replan_ms

    def test_quantized_topology_surfaces_precisions(self, world):
        model, profile, topology = world
        server = LookupServer(
            model, profile, topology.with_precisions("uvm=int8"),
            sharder=RecShardFastSharder(batch_size=BATCH),
            config=ServingConfig(max_batch_size=16, max_delay_ms=1.0),
        )
        metrics = server.serve_arenas(
            synthetic_request_arenas(model, num_requests=100, qps=50000, seed=9)
        )
        summary = metrics.summary()
        assert summary["tier_precisions"] == ["fp32", "int8"]
        assert summary["tier_expected_rel_error"][1] > 0.0
        assert "tier precisions:" in metrics.format_report()

    def test_fp32_summary_schema_unchanged(self, world):
        model, profile, topology = world
        server = LookupServer(
            model, profile, topology,
            sharder=RecShardFastSharder(batch_size=BATCH),
            config=ServingConfig(max_batch_size=16, max_delay_ms=1.0),
        )
        metrics = server.serve_arenas(
            synthetic_request_arenas(model, num_requests=100, qps=50000, seed=9)
        )
        summary = metrics.summary()
        assert "tier_precisions" not in summary
        assert "tier_expected_rel_error" not in summary

    def test_requires_exactly_one_of_plan_or_sharder(self, world):
        model, profile, topology = world
        with pytest.raises(ValueError):
            LookupServer(model, profile, topology)
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            model, profile, topology
        )
        with pytest.raises(ValueError):
            LookupServer(
                model, profile, topology, plan=plan,
                sharder=RecShardFastSharder(batch_size=BATCH),
            )


class TestDriftMonitor:
    def test_no_drift_on_matching_traffic(self, world):
        model, profile, _ = world
        monitor = DriftMonitor(model, profile, threshold_pct=5.0, min_samples=64)
        generator = TraceGenerator(model, batch_size=256, seed=11)
        for batch in generator.batches(4):
            monitor.observe(batch)
        assert monitor.samples_observed == 1024
        assert monitor.drift_pct() < 5.0
        assert not monitor.should_replan()

    def test_detects_pooling_drift(self, world):
        model, profile, _ = world
        monitor = DriftMonitor(model, profile, threshold_pct=5.0, min_samples=64)
        drifted = DriftModel(user_plateau=40.0, content_plateau=40.0).drift_model(
            model, month=20
        )
        generator = TraceGenerator(drifted, batch_size=256, seed=12)
        for batch in generator.batches(4):
            monitor.observe(batch)
        assert monitor.drift_pct() > 5.0
        assert monitor.should_replan()

    def test_reset_rebaselines(self, world):
        model, profile, _ = world
        monitor = DriftMonitor(model, profile, threshold_pct=5.0, min_samples=64)
        drifted_model = DriftModel(user_plateau=40.0, content_plateau=40.0).drift_model(
            model, month=20
        )
        generator = TraceGenerator(drifted_model, batch_size=256, seed=13)
        for batch in generator.batches(2):
            monitor.observe(batch)
        monitor.reset(analytic_profile(drifted_model))
        assert monitor.samples_observed == 0
        for batch in generator.batches(2):
            monitor.observe(batch)
        assert monitor.drift_pct() < 5.0

    def test_min_samples_guard(self, world):
        model, profile, _ = world
        monitor = DriftMonitor(model, profile, threshold_pct=0.0, min_samples=10_000)
        generator = TraceGenerator(model, batch_size=64, seed=14)
        monitor.observe(next(generator.batches(1)))
        assert not monitor.should_replan()


class TestServingMetrics:
    def test_percentiles_and_qps(self):
        metrics = ServingMetrics(num_devices=2)
        metrics.record_batch(
            arrivals_ms=[0.0, 1.0], start_ms=2.0, finish_ms=4.0,
            device_times_ms=np.array([1.0, 2.0]), total_lookups=10,
        )
        metrics.record_batch(
            arrivals_ms=[5.0], start_ms=6.0, finish_ms=10.0,
            device_times_ms=np.array([4.0, 3.0]), total_lookups=5,
        )
        assert metrics.num_requests == 3
        # Latencies: 4, 3, 5 ms; horizon 0 -> 10 ms.
        assert metrics.latencies_ms().tolist() == [4.0, 3.0, 5.0]
        assert metrics.p50_ms == pytest.approx(4.0)
        assert metrics.qps == pytest.approx(3 / 10 * 1e3)
        assert metrics.lookups_per_second == pytest.approx(15 / 10 * 1e3)
        np.testing.assert_allclose(
            metrics.device_utilization(), [0.5, 0.5]
        )

    def test_empty_metrics(self):
        metrics = ServingMetrics(num_devices=2)
        assert metrics.qps == 0.0
        assert metrics.p99_ms == 0.0
        assert metrics.horizon_ms == 0.0
        summary = metrics.summary()
        assert summary["requests"] == 0
        assert "p99_ms" in summary

    def test_format_report_mentions_replans(self):
        metrics = ServingMetrics(num_devices=1)
        metrics.record_batch(
            arrivals_ms=[0.0], start_ms=0.0, finish_ms=1.0,
            device_times_ms=np.array([1.0]), total_lookups=1,
        )
        metrics.record_replan(1.0)
        report = metrics.format_report()
        assert "QPS" in report
        assert "replans" in report


def test_package_quickstart_runs(capsys):
    """The ``repro.serving`` Quickstart block runs as written."""
    import textwrap

    import repro.serving

    block = repro.serving.__doc__.split("Quickstart::", 1)[1]
    exec(textwrap.dedent(block), {})
    assert "requests served:   500" in capsys.readouterr().out
