"""QoS × drift-replanning regression tests.

The serving CLI used to reject ``--deadline-ms``/``--priorities``
whenever ``--drift-months > 0``: the drifting synthetic stream could
not carry QoS columns, and nobody had pinned that overload-controller
state survives a replan.  These tests pin the lifted restriction at the
library layer:

* :func:`synthetic_request_arenas` draws QoS columns from a dedicated
  RNG stream, so arrivals and content never move when QoS is toggled —
  and the columns match the undrifted stream's under drift, for steady
  and bursty arrivals alike;
* a server with deadline/priority shedding *and* drift replanning keeps
  one :class:`OverloadController` across replans, its EWMA/admission
  state intact, and its accounting exact (offered == served + shed).
"""

import numpy as np
import pytest

from repro.core import RecShardFastSharder
from repro.data.drift import DriftModel
from repro.memory.topology import SystemTopology
from repro.serving import (
    BurstyArrivals,
    LookupServer,
    OverloadControl,
    ServingConfig,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

QPS = 50_000
SHARES = (0.2, 0.8)


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


def _assert_arena_streams_equal(ref, got, qos=True):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        np.testing.assert_array_equal(a.arrival_ms, b.arrival_ms)
        for fa, fb in zip(a.batch, b.batch):
            np.testing.assert_array_equal(fa.values, fb.values)
        if qos:
            np.testing.assert_array_equal(a.deadline_ms, b.deadline_ms)
            np.testing.assert_array_equal(a.priority, b.priority)


class TestQosStream:
    def test_bursty_drifted_stream_keeps_arrivals_and_qos(self, world):
        # Drift moves lookup content only: a bursty process times the
        # drifted stream exactly as it times the undrifted one, and the
        # QoS columns replay the same dedicated stream.
        model, _, _ = world
        bursty = BurstyArrivals(burst_qps=4 * QPS, idle_qps=QPS / 10)
        kwargs = dict(
            seed=7, chunk_size=50, deadline_ms=8.0, priority_shares=SHARES
        )
        base = list(synthetic_request_arenas(model, 300, bursty, **kwargs))
        drifted = list(
            synthetic_request_arenas(
                model, 300, bursty, **kwargs,
                drift=DriftModel(feature_noise=6.0),
                months_per_request=0.05,
            )
        )
        assert len(base) == len(drifted)
        for a, b in zip(base, drifted):
            np.testing.assert_array_equal(a.arrival_ms, b.arrival_ms)
            np.testing.assert_array_equal(a.deadline_ms, b.deadline_ms)
            np.testing.assert_array_equal(a.priority, b.priority)
        assert any(
            not np.array_equal(fa.values, fb.values)
            for a, b in zip(base, drifted)
            for fa, fb in zip(a.batch, b.batch)
        )

    def test_qos_toggle_leaves_arrivals_and_content_unmoved(self, world):
        # QoS columns come from a dedicated RNG stream keyed off the
        # seed, so turning them on must not perturb the stream itself.
        model, _, _ = world
        plain = list(synthetic_request_arenas(model, 300, qps=QPS, seed=7))
        qos = list(
            synthetic_request_arenas(
                model, 300, qps=QPS, seed=7,
                deadline_ms=8.0, priority_shares=SHARES,
            )
        )
        _assert_arena_streams_equal(plain, qos, qos=False)
        for arena in plain:
            assert arena.deadline_ms is None and arena.priority is None
        for arena in qos:
            np.testing.assert_array_equal(
                arena.deadline_ms, arena.arrival_ms + 8.0
            )
            assert set(np.unique(arena.priority)) <= {0, 1}

    def test_qos_columns_bit_identical_under_drift(self, world):
        # Drift redraws lookup content per chunk, but deadlines track
        # arrivals and priorities replay the same dedicated stream —
        # the invariant that makes QoS × drift results comparable to
        # the no-drift baseline.
        model, _, _ = world
        base = list(
            synthetic_request_arenas(
                model, 300, qps=QPS, seed=7,
                deadline_ms=8.0, priority_shares=SHARES,
            )
        )
        drifted = list(
            synthetic_request_arenas(
                model, 300, qps=QPS, seed=7,
                deadline_ms=8.0, priority_shares=SHARES,
                drift=DriftModel(feature_noise=6.0),
                months_per_request=0.05,
            )
        )
        for a, b in zip(base, drifted):
            np.testing.assert_array_equal(a.arrival_ms, b.arrival_ms)
            np.testing.assert_array_equal(a.deadline_ms, b.deadline_ms)
            np.testing.assert_array_equal(a.priority, b.priority)

    def test_rejects_bad_qos_knobs(self, world):
        model, _, _ = world
        with pytest.raises(ValueError, match="deadline_ms"):
            next(
                synthetic_request_arenas(
                    model, 10, qps=QPS, deadline_ms=0.0
                )
            )
        with pytest.raises(ValueError, match="positive"):
            next(
                synthetic_request_arenas(
                    model, 10, qps=QPS, priority_shares=(0.5, -0.5)
                )
            )
        with pytest.raises(ValueError, match="sum to 1"):
            next(
                synthetic_request_arenas(
                    model, 10, qps=QPS, priority_shares=(0.5, 0.9)
                )
            )


class TestQosWithDriftReplan:
    def _serve(self, world, drift):
        model, profile, topology = world
        # Aggressive drift knobs only when the stream actually drifts;
        # the quiet baseline keeps the defaults (min_samples above the
        # stream length), so sampling noise cannot trip a replan.
        config = (
            ServingConfig(
                max_batch_size=32, max_delay_ms=1.0,
                drift_threshold_pct=2.0,
                drift_min_samples=128,
                drift_check_every_batches=2,
            )
            if drift
            else ServingConfig(max_batch_size=32, max_delay_ms=1.0)
        )
        server = LookupServer(
            model, profile, topology,
            sharder=RecShardFastSharder(batch_size=64),
            config=config,
            overload=OverloadControl(
                slo_ms=5.0,
                deadline_shedding=True,
                priority_shedding=True,
                priority_names=("gold", "bronze"),
            ),
        )
        controller = server._ovl
        arenas = synthetic_request_arenas(
            model, 600, qps=QPS, seed=6,
            deadline_ms=8.0, priority_shares=SHARES,
            drift=DriftModel(feature_noise=6.0) if drift else None,
            months_per_request=0.05 if drift else 0.0,
        )
        metrics = server.serve_arenas(arenas)
        return server, controller, metrics

    def test_replans_fire_and_accounting_stays_exact(self, world):
        server, controller, metrics = self._serve(world, drift=True)
        assert metrics.num_replans >= 1
        assert metrics.offered_requests == 600
        assert metrics.num_requests + metrics.shed_requests == 600
        # Per-class views survived the replans.
        classes = metrics.priority_class_stats()
        assert set(classes) == {"gold", "bronze"}

    def test_controller_state_survives_replans(self, world):
        server, controller, metrics = self._serve(world, drift=True)
        assert metrics.num_replans >= 1
        # The controller is constructed once and never replaced by
        # _install: EWMA state accumulated before a replan keeps
        # steering admission after it.
        assert server._ovl is controller
        assert controller.ms_per_lookup is not None
        assert controller.predict_service_ms(64) > 0.0

    def test_qos_metrics_defined_with_and_without_drift(self, world):
        _, _, still = self._serve(world, drift=False)
        _, _, drifted = self._serve(world, drift=True)
        assert still.num_replans == 0
        assert drifted.num_replans >= 1
        for metrics in (still, drifted):
            assert 0.0 <= metrics.goodput_fraction <= 1.0
            assert metrics.offered_requests == 600
