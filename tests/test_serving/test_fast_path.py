"""Parity tests: columnar serving fast path vs the object reference path.

The fast path (arena-backed streams, vectorized admission in
``LookupServer.serve_arenas``) must be a pure representation change:
for a fixed seed it has to produce *bit-identical*
:class:`~repro.serving.metrics.ServingMetrics` to the per-request
object path — same QPS, same latency percentiles, same per-request
latencies, same simulated replan times — including when drift triggers
mid-stream re-sharding.
"""

from itertools import chain

import numpy as np
import pytest

from repro.core import RecShardFastSharder
from repro.data.drift import DriftModel
from repro.memory.topology import SystemTopology
from repro.serving import (
    LookupServer,
    RequestArena,
    ServingConfig,
    ServingMetrics,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

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


def make_server(world, plan=None, **config_kwargs):
    model, profile, topology = world
    kwargs = dict(max_batch_size=16, max_delay_ms=1.0)
    kwargs.update(config_kwargs)
    if plan is not None:
        return LookupServer(
            model, profile, topology, plan=plan, config=ServingConfig(**kwargs)
        )
    return LookupServer(
        model, profile, topology,
        sharder=RecShardFastSharder(batch_size=BATCH),
        config=ServingConfig(**kwargs),
    )


def assert_bit_identical(ref: ServingMetrics, fast: ServingMetrics):
    """Every deterministic field of the two metrics matches exactly."""
    assert ref.summary(deterministic_only=True) == fast.summary(
        deterministic_only=True
    )
    assert ref.batch_sizes == fast.batch_sizes
    assert ref.batch_lookups == fast.batch_lookups
    assert ref.replan_ms == fast.replan_ms
    np.testing.assert_array_equal(ref.arrival_ms, fast.arrival_ms)
    np.testing.assert_array_equal(ref.start_ms, fast.start_ms)
    np.testing.assert_array_equal(ref.finish_ms, fast.finish_ms)
    np.testing.assert_array_equal(ref.latencies_ms(), fast.latencies_ms())
    np.testing.assert_array_equal(ref.device_busy_ms, fast.device_busy_ms)


class TestStreamParity:
    """Arena chunks and the object stream carry identical content."""

    def test_arenas_match_object_stream(self, world):
        model, _, _ = world
        kwargs = dict(num_requests=300, qps=20000, seed=9)
        objects = list(chain.from_iterable(synthetic_request_arenas(model, **kwargs)))
        from_arenas = [
            r
            for arena in synthetic_request_arenas(model, **kwargs)
            for r in arena
        ]
        assert len(objects) == len(from_arenas) == 300
        for a, b in zip(objects, from_arenas):
            assert a.request_id == b.request_id
            assert a.arrival_ms == b.arrival_ms
            for fa, fb in zip(a.features, b.features):
                np.testing.assert_array_equal(fa, fb)

    def test_drifted_arenas_match_object_stream(self, world):
        model, _, _ = world
        kwargs = dict(
            num_requests=400, qps=30000, seed=3,
            drift=DriftModel(feature_noise=6.0, alpha_noise=4.0),
            months_per_request=0.05, chunk_size=128,
        )
        objects = list(chain.from_iterable(synthetic_request_arenas(model, **kwargs)))
        arenas = list(synthetic_request_arenas(model, **kwargs))
        assert sum(a.num_requests for a in arenas) == 400
        i = 0
        for arena in arenas:
            assert arena.base_id == i
            for r in arena:
                assert r.arrival_ms == objects[i].arrival_ms
                for fa, fb in zip(r.features, objects[i].features):
                    np.testing.assert_array_equal(fa, fb)
                i += 1

    def test_request_views_are_zero_copy(self, world):
        model, _, _ = world
        arena = next(iter(synthetic_request_arenas(model, 50, qps=1000, seed=1)))
        request = arena.request(3)
        for j, values in enumerate(request.features):
            if values.size:
                assert values.base is arena.batch[j].values


class TestServeParity:
    def test_fixed_plan_parity(self, world):
        model, profile, topology = world
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            model, profile, topology
        )
        kwargs = dict(num_requests=500, qps=40000, seed=11)
        ref = make_server(world, plan=plan).serve(
            chain.from_iterable(synthetic_request_arenas(model, **kwargs))
        )
        fast = make_server(world, plan=plan).serve_arenas(
            synthetic_request_arenas(model, **kwargs)
        )
        assert ref.num_requests == 500
        assert_bit_identical(ref, fast)

    def test_drift_replan_parity(self, world):
        model, _, _ = world
        config = dict(
            max_batch_size=32,
            drift_threshold_pct=2.0,
            drift_min_samples=128,
            drift_check_every_batches=2,
        )
        kwargs = dict(
            num_requests=600, qps=50000, seed=6,
            drift=DriftModel(feature_noise=6.0),
            months_per_request=0.05,
        )
        ref_replans, fast_replans = [], []
        ref = make_server(world, **config).serve(
            chain.from_iterable(synthetic_request_arenas(model, **kwargs)),
            on_replan=ref_replans.append,
        )
        fast = make_server(world, **config).serve_arenas(
            synthetic_request_arenas(model, **kwargs),
            on_replan=fast_replans.append,
        )
        assert ref.num_replans >= 1
        assert ref_replans == fast_replans == fast.replan_ms
        assert_bit_identical(ref, fast)
        # Build cost is wall-clock: recorded per replan, excluded from
        # the deterministic summary, surfaced in the full one.
        assert len(fast.replan_build_ms) == fast.num_replans
        assert all(b > 0 for b in fast.replan_build_ms)
        assert "replan_build_total_ms" in fast.summary()
        assert "replan_build_total_ms" not in fast.summary(deterministic_only=True)

    def test_parity_across_chunk_boundaries(self, world):
        """Microbatches straddling arena chunks release identically."""
        model, profile, topology = world
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            model, profile, topology
        )
        kwargs = dict(num_requests=211, qps=60000, seed=17)
        ref = make_server(world, plan=plan, max_batch_size=13).serve(
            chain.from_iterable(
                synthetic_request_arenas(model, **kwargs, chunk_size=7)
            )
        )
        fast = make_server(world, plan=plan, max_batch_size=13).serve_arenas(
            synthetic_request_arenas(model, **kwargs, chunk_size=7)
        )
        assert ref.num_requests == 211
        assert_bit_identical(ref, fast)

    def test_parity_zero_delay(self, world):
        """max_delay_ms=0 releases every request alone, on both paths."""
        model, profile, topology = world
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            model, profile, topology
        )
        kwargs = dict(num_requests=40, qps=5000, seed=2)
        ref = make_server(world, plan=plan, max_delay_ms=0.0).serve(
            chain.from_iterable(synthetic_request_arenas(model, **kwargs))
        )
        fast = make_server(world, plan=plan, max_delay_ms=0.0).serve_arenas(
            synthetic_request_arenas(model, **kwargs)
        )
        assert ref.num_batches == 40
        assert_bit_identical(ref, fast)

    def test_empty_stream(self, world):
        model, profile, topology = world
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            model, profile, topology
        )
        fast = make_server(world, plan=plan).serve_arenas(
            synthetic_request_arenas(model, num_requests=0, qps=1000, seed=0)
        )
        assert fast.num_requests == 0
        assert fast.qps == 0.0


class TestRequestArena:
    def test_batch_view_slices_are_views(self, world):
        model, _, _ = world
        arena = next(iter(synthetic_request_arenas(model, 64, qps=1000, seed=5)))
        view = arena.batch_view(8, 24)
        assert view.batch_size == 16
        for j, feature in enumerate(view):
            assert feature.offsets[0] == 0
            if feature.values.size:
                assert feature.values.base is arena.batch[j].values
            np.testing.assert_array_equal(
                feature.sample(0), arena.batch[j].sample(8)
            )

    def test_concat_roundtrip(self, world):
        model, _, _ = world
        arena = next(iter(synthetic_request_arenas(model, 60, qps=1000, seed=8)))
        rejoined = RequestArena.concat(
            [arena.slice(0, 25), arena.slice(25, 60)]
        )
        assert rejoined.num_requests == 60
        assert rejoined.base_id == arena.base_id
        np.testing.assert_array_equal(rejoined.arrival_ms, arena.arrival_ms)
        for j in range(arena.num_features):
            np.testing.assert_array_equal(
                rejoined.batch[j].values, arena.batch[j].values
            )
            np.testing.assert_array_equal(
                rejoined.batch[j].offsets, arena.batch[j].offsets
            )

    def test_from_requests_roundtrip(self, world):
        model, _, _ = world
        requests = list(
            chain.from_iterable(synthetic_request_arenas(model, 20, qps=1000, seed=4))
        )
        arena = RequestArena.from_requests(requests)
        assert arena.num_requests == 20
        for i, r in enumerate(arena):
            assert r.request_id == requests[i].request_id
            assert r.arrival_ms == requests[i].arrival_ms
            for fa, fb in zip(r.features, requests[i].features):
                np.testing.assert_array_equal(fa, fb)

    def test_rejects_decreasing_arrivals(self, world):
        model, _, _ = world
        arena = next(iter(synthetic_request_arenas(model, 4, qps=1000, seed=0)))
        with pytest.raises(ValueError):
            RequestArena(arena.batch, arena.arrival_ms[::-1].copy())

    def test_rejects_length_mismatch(self, world):
        model, _, _ = world
        arena = next(iter(synthetic_request_arenas(model, 4, qps=1000, seed=0)))
        with pytest.raises(ValueError):
            RequestArena(arena.batch, arena.arrival_ms[:-1])


class TestWarmStartReplan:
    def test_warm_start_matches_cold_on_same_profile(self, world):
        model, profile, topology = world
        sharder = RecShardFastSharder(batch_size=BATCH)
        cold = sharder.shard(model, profile, topology)
        warm = sharder.shard(model, profile, topology, warm_start=cold)
        warm.validate(model, topology)
        assert warm.metadata.get("warm_started") is True
        disparity = cold.placement_disparity(warm)
        assert disparity["uvm_to_hbm"] == 0.0
        assert disparity["hbm_to_uvm"] == 0.0
        assert [p.device for p in warm] == [p.device for p in cold]

    def test_warm_start_from_drifted_profile_is_valid(self, world):
        model, profile, topology = world
        sharder = RecShardFastSharder(batch_size=BATCH)
        cold = sharder.shard(model, profile, topology)
        drifted = analytic_profile(
            DriftModel(user_plateau=40.0, content_plateau=40.0).drift_model(
                model, month=20
            )
        )
        warm = sharder.shard(model, drifted, topology, warm_start=cold)
        warm.validate(model, topology)
