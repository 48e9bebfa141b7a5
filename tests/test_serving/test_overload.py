"""SLO-driven overload control: admission, shedding, brownout.

Covers the whole overload stack bottom-up: QoS columns surviving the
arena transforms and the shared-memory handoff, the loadgen's
bit-compatibility guarantee (QoS on/off changes no arrival or lookup),
the EWMA service-time estimator and the admission decision procedure
(overflow / priority / deadline, with exact keep-or-shed partition),
the brownout hysteresis controller and the executor's degraded-mode
accounting, and finally the runtime integrations: single-process
object-vs-columnar parity and multi-process parity, both bit for bit
with the controller active.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MultiTierSharder, RecShardFastSharder
from repro.data.model import rm2, rm3
from repro.memory import node_from_tier_names, paper_node, paper_scales
from repro.serving import (
    BurstyArrivals,
    LookupServer,
    MultiProcessServer,
    OverloadControl,
    OverloadController,
    PoissonArrivals,
    RequestArena,
    ServingConfig,
    ServingMetrics,
    parse_priority_spec,
    synthetic_request_arenas,
)
from tests.oracles.serving import (
    LookupRequest,
    ObjectServer,
    arena_from_requests,
    iter_requests,
    request_at,
)
from tests.test_serving.test_mp_serving import assert_metrics_bit_identical

FEATURES = 49
GPUS = 4
TOPO_SCALE, ROW_SCALE = paper_scales(FEATURES, GPUS)

CONFIG = ServingConfig(max_batch_size=64, max_delay_ms=0.5)


def two_tier_world():
    model = rm2(num_features=FEATURES, row_scale=ROW_SCALE)
    topology = paper_node(num_gpus=GPUS, scale=TOPO_SCALE)
    return model, topology, RecShardFastSharder(batch_size=256)


def three_tier_world():
    model = rm3(num_features=FEATURES, row_scale=ROW_SCALE)
    topology = node_from_tier_names(
        ["hbm:8", "dram:24", "ssd"], num_gpus=GPUS, scale=TOPO_SCALE
    )
    return model, topology, MultiTierSharder(batch_size=256)


def make_server(world, control=None, config=CONFIG, cls=LookupServer):
    from repro.stats import analytic_profile

    model, topology, sharder = world()
    profile = analytic_profile(model)
    server = cls(
        model, profile, topology, sharder=sharder, config=config,
        overload=control,
    )
    return model, profile, topology, server


def qos_stream(model, n, qps, seed, deadline_ms=None, shares=None):
    return list(
        synthetic_request_arenas(
            model, n, PoissonArrivals(qps), seed=seed,
            deadline_ms=deadline_ms, priority_shares=shares,
        )
    )


# ----------------------------------------------------------------------
# Priority spec / control validation
# ----------------------------------------------------------------------
class TestParsePrioritySpec:
    def test_parses_names_and_shares(self):
        names, shares = parse_priority_spec("gold=0.1,silver=0.3,bronze=0.6")
        assert names == ("gold", "silver", "bronze")
        assert shares == (0.1, 0.3, 0.6)

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "gold",
            "gold=zero",
            "gold=-0.5,bronze=1.5",
            "gold=0.5,gold=0.5",
            "gold=0.5,bronze=0.6",
        ],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_priority_spec(spec)


class TestOverloadControl:
    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="slo_ms"):
            OverloadControl(slo_ms=0.0)
        with pytest.raises(ValueError, match="queue_limit_ms"):
            OverloadControl(queue_limit_ms=-1.0)
        with pytest.raises(ValueError, match="brownout requires"):
            OverloadControl(brownout=True)
        with pytest.raises(ValueError, match="hysteresis"):
            OverloadControl(
                slo_ms=1.0, brownout=True,
                brownout_enter=0.5, brownout_exit=0.5,
            )

    def test_admission_for(self):
        # A queue bound can shed any batch; deadline/priority shedding
        # only bites when the batch carries QoS columns.
        assert OverloadControl(queue_limit_ms=1.0).admission_for(False)
        assert not OverloadControl(slo_ms=1.0).admission_for(False)
        assert OverloadControl(slo_ms=1.0).admission_for(True)
        bare = OverloadControl(
            slo_ms=1.0, deadline_shedding=False, priority_shedding=False
        )
        assert not bare.admission_for(True)


# ----------------------------------------------------------------------
# QoS columns through the arena transforms
# ----------------------------------------------------------------------
def _qos_arena(n=8, seed=0):
    rng = np.random.default_rng(seed)
    requests = [
        LookupRequest(
            request_id=i,
            features=(np.arange(i, i + 3, dtype=np.int64),),
            arrival_ms=float(i),
            deadline_ms=float(i) + 5.0,
            priority=int(rng.integers(3)),
        )
        for i in range(n)
    ]
    return arena_from_requests(requests)


class TestArenaQoS:
    def test_from_requests_materializes_only_nondefault(self):
        plain = arena_from_requests(
            [
                LookupRequest(i, (np.arange(2, dtype=np.int64),), float(i))
                for i in range(4)
            ]
        )
        assert not plain.has_qos
        assert plain.deadline_ms is None and plain.priority is None
        arena = _qos_arena()
        assert arena.has_qos
        np.testing.assert_array_equal(
            arena.deadline_ms, arena.arrival_ms + 5.0
        )

    def test_partial_defaults_are_filled(self):
        arena = arena_from_requests(
            [
                LookupRequest(0, (np.arange(2, dtype=np.int64),), 0.0),
                LookupRequest(
                    1, (np.arange(2, dtype=np.int64),), 1.0, priority=2
                ),
            ]
        )
        assert arena.has_qos
        assert arena.deadline_ms.tolist() == [np.inf, np.inf]
        assert arena.priority.tolist() == [0, 2]

    def test_slice_take_concat_carry_qos(self):
        arena = _qos_arena(10)
        part = arena.slice(2, 7)
        np.testing.assert_array_equal(part.deadline_ms, arena.deadline_ms[2:7])
        np.testing.assert_array_equal(part.priority, arena.priority[2:7])
        keep = np.zeros(10, dtype=bool)
        keep[[1, 4, 9]] = True
        kept = arena.take(keep)
        np.testing.assert_array_equal(
            kept.deadline_ms, arena.deadline_ms[keep]
        )
        np.testing.assert_array_equal(kept.priority, arena.priority[keep])
        merged = RequestArena.concat([arena.slice(0, 4), arena.slice(4, 10)])
        np.testing.assert_array_equal(merged.deadline_ms, arena.deadline_ms)
        np.testing.assert_array_equal(merged.priority, arena.priority)

    def test_concat_mixed_fills_defaults(self):
        plain = arena_from_requests(
            [LookupRequest(100, (np.arange(2, dtype=np.int64),), 100.0)]
        )
        merged = RequestArena.concat([_qos_arena(3), plain])
        assert merged.has_qos
        assert merged.deadline_ms[-1] == np.inf
        assert merged.priority[-1] == 0

    def test_shm_round_trip_preserves_qos(self):
        arena = _qos_arena(6)
        shm = arena.to_shm()
        try:
            assert shm.handle.has_qos
            attached = RequestArena.from_shm(shm.handle)
            try:
                view = attached.arena
                np.testing.assert_array_equal(
                    view.deadline_ms, arena.deadline_ms
                )
                np.testing.assert_array_equal(view.priority, arena.priority)
                np.testing.assert_array_equal(
                    view.arrival_ms, arena.arrival_ms
                )
            finally:
                del view
                attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_request_view_exposes_qos(self):
        arena = _qos_arena(4)
        req = request_at(arena, 2)
        assert req.deadline_ms == float(arena.deadline_ms[2])
        assert req.priority == int(arena.priority[2])


# ----------------------------------------------------------------------
# Loadgen QoS columns
# ----------------------------------------------------------------------
class TestLoadgenQoS:
    def _flatten(self, arenas):
        merged = RequestArena.concat(list(arenas))
        values = np.concatenate(
            [
                merged.batch[f].values
                for f in range(merged.num_features)
            ]
        )
        return merged, values

    def test_qos_off_and_on_share_arrivals_and_content(self):
        model = rm2(num_features=9, row_scale=1e-4)
        plain, plain_values = self._flatten(
            qos_stream(model, 300, qps=50000, seed=13)
        )
        qos, qos_values = self._flatten(
            qos_stream(
                model, 300, qps=50000, seed=13,
                deadline_ms=4.0, shares=(0.25, 0.75),
            )
        )
        assert not plain.has_qos and qos.has_qos
        np.testing.assert_array_equal(plain.arrival_ms, qos.arrival_ms)
        np.testing.assert_array_equal(plain_values, qos_values)
        np.testing.assert_array_equal(
            qos.deadline_ms, qos.arrival_ms + 4.0
        )
        assert set(np.unique(qos.priority)) <= {0, 1}

    def test_priority_draw_is_seed_deterministic(self):
        model = rm2(num_features=9, row_scale=1e-4)
        kwargs = dict(qps=50000, deadline_ms=4.0, shares=(0.5, 0.3, 0.2))
        a, _ = self._flatten(qos_stream(model, 200, seed=3, **kwargs))
        b, _ = self._flatten(qos_stream(model, 200, seed=3, **kwargs))
        c, _ = self._flatten(qos_stream(model, 200, seed=4, **kwargs))
        np.testing.assert_array_equal(a.priority, b.priority)
        assert not np.array_equal(a.priority, c.priority)

    def test_deadline_only_fills_priority_zero(self):
        model = rm2(num_features=9, row_scale=1e-4)
        merged, _ = self._flatten(
            qos_stream(model, 100, qps=50000, seed=1, deadline_ms=2.0)
        )
        assert merged.priority.tolist() == [0] * 100

    def test_rejects_bad_qos_parameters(self):
        model = rm2(num_features=9, row_scale=1e-4)
        with pytest.raises(ValueError, match="deadline_ms"):
            list(
                synthetic_request_arenas(
                    model, 10, PoissonArrivals(1000), deadline_ms=0.0
                )
            )
        with pytest.raises(ValueError, match="positive"):
            list(
                synthetic_request_arenas(
                    model, 10, PoissonArrivals(1000),
                    priority_shares=(0.5, -0.5),
                )
            )
        with pytest.raises(ValueError, match="sum to 1"):
            list(
                synthetic_request_arenas(
                    model, 10, PoissonArrivals(1000),
                    priority_shares=(0.5, 0.6),
                )
            )


class TestBurstyBoundaryRegression:
    def test_phase_boundary_rounding_cannot_stall(self):
        # At now_ms magnitudes where one ulp exceeds the cycle period,
        # ``t - (t % period) + period`` rounds back to ``t`` and the
        # draw loop used to spin forever; the nextafter guard forces
        # progress.  This returns (quickly) instead of hanging.
        process = BurstyArrivals(
            burst_qps=1e6, idle_qps=0.0, burst_ms=0.1, idle_ms=0.497
        )
        rng = np.random.default_rng(0)
        times = process.arrivals(rng, now_ms=1e16, count=4)
        assert times.shape == (4,)
        assert np.all(np.diff(times) >= 0)
        assert np.all(np.isfinite(times))

    def test_submillisecond_windows_draw_cleanly(self):
        process = BurstyArrivals(
            burst_qps=2e7, idle_qps=1e6, burst_ms=0.103, idle_ms=0.494
        )
        rng = np.random.default_rng(7)
        times = process.arrivals(rng, now_ms=0.0, count=5000)
        assert np.all(np.diff(times) >= 0)


# ----------------------------------------------------------------------
# Estimator and admission decisions (controller unit tests)
# ----------------------------------------------------------------------
def _assert_partition(n, keep, sheds):
    """keep plus the shed masks must tile the batch exactly."""
    union = keep.copy()
    for _, mask in sheds:
        assert not (union & mask).any()
        union |= mask
    assert union.all() and union.size == n


class TestEstimator:
    def test_optimistic_until_first_observation(self):
        ctrl = OverloadController(OverloadControl(), 0.05)
        assert ctrl.ms_per_lookup is None
        assert ctrl.predict_service_ms(10_000) == pytest.approx(0.05)

    def test_ewma_update(self):
        ctrl = OverloadController(OverloadControl(ewma_alpha=0.5), 0.05)
        ctrl.observe_batch(1.05, 100, np.empty(0))
        assert ctrl.ms_per_lookup == pytest.approx(0.01)
        ctrl.observe_batch(2.05, 100, np.empty(0))
        assert ctrl.ms_per_lookup == pytest.approx(0.5 * 0.02 + 0.5 * 0.01)
        assert ctrl.predict_service_ms(200) == pytest.approx(
            0.05 + 200 * 0.015
        )

    def test_zero_lookup_batch_leaves_estimate(self):
        ctrl = OverloadController(OverloadControl(), 0.05)
        ctrl.observe_batch(0.05, 0, np.empty(0))
        assert ctrl.ms_per_lookup is None

    def test_reset_clears_state(self):
        control = OverloadControl(slo_ms=1.0, brownout=True, min_window=1)
        ctrl = OverloadController(control, 0.05)
        ctrl.observe_batch(1.05, 100, np.full(8, 99.0))
        ctrl.notify_degrade()
        assert ctrl.update_brownout()
        ctrl.reset()
        assert ctrl.ms_per_lookup is None
        assert not ctrl.brownout_active
        assert ctrl.windowed_p99_ms() is None


class TestAdmit:
    def _batch(self, n, deadline=None, priorities=None):
        arrivals = np.zeros(n, dtype=np.float64)
        deadlines = (
            None if deadline is None
            else np.full(n, deadline, dtype=np.float64)
        )
        prios = (
            None if priorities is None
            else np.asarray(priorities, dtype=np.int64)
        )
        lookups = np.full(n, 10, dtype=np.int64)
        return arrivals, deadlines, prios, lookups

    def test_admits_everything_when_unloaded(self):
        ctrl = OverloadController(OverloadControl(slo_ms=5.0), 0.05)
        arrivals, deadlines, prios, lookups = self._batch(
            4, deadline=100.0, priorities=[0, 1, 2, 1]
        )
        keep, sheds = ctrl.admit(
            0.0, 0.0, arrivals, deadlines, prios, lookups
        )
        assert keep.all() and not sheds

    def test_overflow_sheds_whole_batch(self):
        ctrl = OverloadController(
            OverloadControl(queue_limit_ms=1.0), 0.05
        )
        arrivals, deadlines, prios, lookups = self._batch(3)
        # Engine backlogged 2 ms past the release: over the 1 ms bound.
        keep, sheds = ctrl.admit(
            10.0, 12.0, arrivals, deadlines, prios, lookups
        )
        assert not keep.any()
        assert [cause for cause, _ in sheds] == ["overflow"]
        _assert_partition(3, keep, sheds)

    def test_deadline_doom_sheds_only_doomed(self):
        ctrl = OverloadController(OverloadControl(), 0.0)
        ctrl.observe_batch(1.0, 10, np.empty(0))  # 0.1 ms per lookup
        arrivals = np.zeros(4)
        lookups = np.full(4, 10, dtype=np.int64)
        # Predicted finish = 10 (backlog) + 4*10*0.1 = 14.
        deadlines = np.array([20.0, 13.0, 15.0, 5.0])
        keep, sheds = ctrl.admit(
            0.0, 10.0, arrivals, deadlines, None, lookups
        )
        assert keep.tolist() == [True, False, True, False]
        assert [cause for cause, _ in sheds] == ["deadline"]
        _assert_partition(4, keep, sheds)

    def test_priority_sheds_lowest_class_first_never_gold(self):
        control = OverloadControl(slo_ms=1.0, slo_margin=1.0)
        ctrl = OverloadController(control, 0.0)
        ctrl.observe_batch(1.0, 10, np.empty(0))  # 0.1 ms per lookup
        arrivals = np.zeros(6)
        lookups = np.full(6, 10, dtype=np.int64)
        prios = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        # 6 requests would finish at 6.0 — way past the 1.0 SLO; even
        # gold alone (2.0) misses, but class 0 is never shed.
        keep, sheds = ctrl.admit(
            0.0, 0.0, arrivals, None, prios, lookups
        )
        assert keep.tolist() == [True, True, False, False, False, False]
        assert [cause for cause, _ in sheds] == ["priority", "priority"]
        assert prios[sheds[0][1]].tolist() == [2, 2]
        assert prios[sheds[1][1]].tolist() == [1, 1]
        _assert_partition(6, keep, sheds)

    def test_priority_then_deadline_compose(self):
        control = OverloadControl(slo_ms=3.05, slo_margin=1.0)
        ctrl = OverloadController(control, 0.0)
        ctrl.observe_batch(1.0, 10, np.empty(0))
        arrivals = np.zeros(4)
        lookups = np.full(4, 10, dtype=np.int64)
        prios = np.array([0, 0, 0, 1], dtype=np.int64)
        # Shedding class 1 brings predicted finish to 3.0 (fits the
        # SLO); request 1's deadline still dooms it.
        deadlines = np.array([10.0, 2.0, 10.0, 10.0])
        keep, sheds = ctrl.admit(
            0.0, 0.0, arrivals, deadlines, prios, lookups
        )
        assert keep.tolist() == [True, False, True, False]
        assert sorted(cause for cause, _ in sheds) == [
            "deadline", "priority",
        ]
        _assert_partition(4, keep, sheds)


# ----------------------------------------------------------------------
# Brownout hysteresis (controller unit tests)
# ----------------------------------------------------------------------
class TestBrownoutHysteresis:
    CONTROL = OverloadControl(
        slo_ms=1.0, brownout=True, brownout_enter=1.0, brownout_exit=0.6,
        window_requests=32, min_window=8,
    )

    def _feed(self, ctrl, latency, count=8):
        ctrl.observe_batch(0.0, 0, np.full(count, latency))

    def test_enters_and_exits_with_hysteresis(self):
        ctrl = OverloadController(self.CONTROL, 0.05)
        assert not ctrl.update_brownout()
        self._feed(ctrl, 2.0)
        assert ctrl.update_brownout()  # p99 2.0 >= 1.0
        # Between exit (0.6) and enter (1.0): stays browned out.
        self._feed(ctrl, 0.8, count=32)
        assert ctrl.update_brownout()
        self._feed(ctrl, 0.3, count=32)
        assert not ctrl.update_brownout()
        # And stays out until enter is crossed again.
        self._feed(ctrl, 0.8, count=32)
        assert not ctrl.update_brownout()

    def test_short_window_is_not_trusted(self):
        ctrl = OverloadController(self.CONTROL, 0.05)
        self._feed(ctrl, 5.0, count=4)  # below min_window=8
        assert not ctrl.update_brownout()
        self._feed(ctrl, 5.0, count=4)
        assert ctrl.update_brownout()

    def test_degrade_forces_and_pins_brownout(self):
        ctrl = OverloadController(self.CONTROL, 0.05)
        ctrl.notify_degrade()
        assert ctrl.update_brownout()  # forced, window empty
        self._feed(ctrl, 0.1, count=32)
        assert ctrl.update_brownout()  # recovered p99, still pinned
        ctrl.notify_recover()
        assert not ctrl.update_brownout()

    def test_disabled_control_never_activates(self):
        ctrl = OverloadController(OverloadControl(slo_ms=1.0), 0.05)
        ctrl.notify_degrade()
        self._feed(ctrl, 50.0, count=64)
        assert not ctrl.update_brownout()


# ----------------------------------------------------------------------
# Metrics accounting
# ----------------------------------------------------------------------
class TestMetricsOverload:
    def test_shed_accounting_and_conservation(self):
        m = ServingMetrics(2, priority_names=("gold", "bronze"))
        m.record_batch([0.0, 0.1], 1.0, 2.0, np.zeros(2), 10,
                       deadlines_ms=[2.0, 1.5], priorities=[0, 1])
        m.record_shed(2, cause="deadline", priorities=[1, 1])
        m.record_shed(1, cause="priority", priorities=[1])
        assert m.shed_requests == 3
        assert m.shed_by_cause == {"deadline": 2, "priority": 1}
        assert m.offered_requests == m.num_requests + m.shed_requests == 5
        # Request 1 finished at 2.0 > deadline 1.5: one goodput miss.
        assert m.served_within_deadline == 1
        assert m.goodput_fraction == pytest.approx(1 / 5)
        stats = m.priority_class_stats()
        assert stats["gold"]["requests"] == 1 and stats["gold"]["shed"] == 0
        assert stats["bronze"]["shed"] == 3
        summary = m.summary()
        assert summary["shed_by_cause"] == {"deadline": 2, "priority": 1}
        assert summary["goodput"] == 1
        assert "priority_classes" in summary

    def test_plain_run_schema_unchanged(self):
        m = ServingMetrics(2)
        m.record_batch([0.0], 0.5, 1.0, np.zeros(2), 5)
        summary = m.summary()
        for key in (
            "shed_requests", "goodput", "priority_classes",
            "browned_out_lookups", "brownout_windows",
        ):
            assert key not in summary

    def test_brownout_windows_pair_up(self):
        m = ServingMetrics(2, tier_names=("hbm", "uvm"))
        with pytest.raises(ValueError):
            m.record_brownout(1.0, active=False)
        m.record_brownout(1.0, active=True)
        m.record_batch([0.0], 0.5, 1.0, np.zeros(2), 5,
                       browned_lookups=np.array([[0, 0], [3, 4]]))
        m.record_brownout(2.0, active=False)
        assert m.brownout_windows == [[1.0, 2.0]]
        assert m.browned_out_lookups == 7
        np.testing.assert_array_equal(m.browned_per_device, [3, 4])
        summary = m.summary()
        assert summary["browned_out_lookups"] == 7
        assert summary["brownout_windows"] == 1

    def test_negative_shed_rejected(self):
        with pytest.raises(ValueError):
            ServingMetrics(1).record_shed(-1)


# ----------------------------------------------------------------------
# Single-process integration
# ----------------------------------------------------------------------
class TestSingleProcessOverload:
    def test_deadline_shedding_conserves_offered(self):
        control = OverloadControl(slo_ms=1.0)
        model, _, _, server = make_server(two_tier_world, control)
        # Everything arrives at once: the backlog builds immediately
        # and later batches are doomed against the tight deadline.
        arenas = qos_stream(model, 512, qps=1e9, seed=5, deadline_ms=0.4)
        metrics = server.serve_arenas(arenas)
        assert metrics.shed_requests > 0
        assert set(metrics.shed_by_cause) == {"deadline"}
        assert metrics.offered_requests == 512
        assert metrics.num_requests + metrics.shed_requests == 512
        # Early shedding keeps the served latencies near the deadline.
        assert metrics.served_within_deadline > 0
        assert "goodput" in metrics.summary()

    def test_priority_shedding_protects_gold(self):
        control = OverloadControl(
            slo_ms=0.3, deadline_shedding=False,
            priority_names=("gold", "silver", "bronze"),
        )
        model, _, _, server = make_server(two_tier_world, control)
        arenas = qos_stream(
            model, 512, qps=1e9, seed=6,
            deadline_ms=50.0, shares=(0.2, 0.3, 0.5),
        )
        metrics = server.serve_arenas(arenas)
        stats = metrics.priority_class_stats()
        assert metrics.shed_by_cause.get("priority", 0) > 0
        assert stats["gold"]["shed"] == 0
        assert stats["bronze"]["shed"] > 0
        assert metrics.num_requests + metrics.shed_requests == 512

    def test_queue_limit_emulates_tail_drop(self):
        control = OverloadControl(queue_limit_ms=0.2)
        model, _, _, server = make_server(two_tier_world, control)
        arenas = qos_stream(model, 512, qps=1e9, seed=7)
        metrics = server.serve_arenas(arenas)
        assert metrics.shed_by_cause.get("overflow", 0) > 0
        assert metrics.num_requests + metrics.shed_requests == 512

    def test_object_path_parity_with_controller(self):
        control = OverloadControl(
            slo_ms=0.45, priority_names=("gold", "silver")
        )
        model, _, _, columnar = make_server(two_tier_world, control)
        _, _, _, objects = make_server(two_tier_world, control, cls=ObjectServer)
        arenas = qos_stream(
            model, 768, qps=3e6, seed=9,
            deadline_ms=0.35, shares=(0.4, 0.6),
        )
        ref = columnar.serve_arenas(arenas)
        got = objects.serve(iter_requests(arenas))
        assert ref.shed_requests > 0
        assert ref.summary(deterministic_only=True) == got.summary(
            deterministic_only=True
        )
        assert ref.shed_by_cause == got.shed_by_cause

    def test_reset_clears_overload_state(self):
        control = OverloadControl(slo_ms=1.0)
        model, _, _, server = make_server(two_tier_world, control)
        arenas = qos_stream(model, 512, qps=1e9, seed=5, deadline_ms=0.4)
        first = server.serve_arenas(arenas)
        second = server.serve_arenas(arenas)
        assert first.shed_requests > 0
        assert first.summary(deterministic_only=True) == second.summary(
            deterministic_only=True
        )


class TestBrownoutServing:
    CONTROL = OverloadControl(
        slo_ms=1.0, brownout=True, deadline_shedding=False,
        priority_shedding=False, window_requests=64, min_window=32,
    )

    def _two_phase_stream(self, model):
        """An overloaded head (instant arrivals) then a calm tail, so
        brownout both enters and cleanly exits within the run."""
        head = list(
            synthetic_request_arenas(model, 2000, qps=1e9, seed=21)
        )
        tail = list(
            synthetic_request_arenas(
                model, 400, PoissonArrivals(500), seed=22, start_ms=50.0
            )
        )
        return head + tail

    def test_brownout_skips_cold_tiers_and_exits(self):
        config = ServingConfig(max_batch_size=64, max_delay_ms=0.2)
        model, _, _, browned = make_server(
            three_tier_world, self.CONTROL, config=config
        )
        _, _, _, baseline = make_server(
            three_tier_world, None, config=config
        )
        arenas = self._two_phase_stream(model)
        got = browned.serve_arenas(arenas)
        ref = baseline.serve_arenas(arenas)
        assert got.browned_out_lookups > 0
        # Fast tier is never browned; skipped + served cold lookups
        # reconstruct the undegraded run exactly (classification is
        # content-only, so the split is lossless).
        np.testing.assert_array_equal(
            got.browned_totals[0], np.zeros(GPUS, dtype=np.int64)
        )
        np.testing.assert_array_equal(
            got.tier_access_totals[1:] + got.browned_totals[1:],
            ref.tier_access_totals[1:],
        )
        np.testing.assert_array_equal(
            got.tier_access_totals[0], ref.tier_access_totals[0]
        )
        # The calm tail pulled p99 back under exit x slo: service
        # returned to full quality before the stream ended.
        assert got.brownout_windows
        assert all(end is not None for _, end in got.brownout_windows)
        assert not browned.executor.brownout_active
        summary = got.summary()
        assert summary["browned_out_lookups"] == got.browned_out_lookups
        assert summary["brownout_windows"] == len(got.brownout_windows)
        # Degraded mode buys back tail latency while it is active.
        assert got.p99_ms < ref.p99_ms

    def test_brownout_improves_p99_under_sustained_overload(self):
        model, _, _, browned = make_server(three_tier_world, self.CONTROL)
        _, _, _, baseline = make_server(three_tier_world, None)
        arenas = list(
            synthetic_request_arenas(model, 1500, qps=1e9, seed=23)
        )
        got = browned.serve_arenas(arenas)
        ref = baseline.serve_arenas(arenas)
        assert got.browned_out_lookups > 0
        assert got.p99_ms < ref.p99_ms

    def test_device_degrade_forces_brownout(self):
        from repro.serving import FaultSchedule, device_degrade

        chaos = FaultSchedule([device_degrade(0.05, 0, slowdown=4.0)])
        from repro.stats import analytic_profile

        model, topology, sharder = three_tier_world()
        profile = analytic_profile(model)
        server = LookupServer(
            model, profile, topology, sharder=sharder, config=CONFIG,
            chaos=chaos, overload=self.CONTROL,
        )
        arenas = list(
            synthetic_request_arenas(model, 600, qps=1e9, seed=24)
        )
        metrics = server.serve_arenas(arenas)
        # Forced by the chaos event, not by the p99 window.
        assert metrics.browned_out_lookups > 0
        assert metrics.brownout_windows


# ----------------------------------------------------------------------
# Multi-process parity
# ----------------------------------------------------------------------
class TestMultiProcessOverloadParity:
    def _mp_run(self, world, control, arenas, config=CONFIG, workers=2):
        from repro.stats import analytic_profile

        model, topology, sharder = world()
        profile = analytic_profile(model)
        plan = sharder.shard(model, profile, topology)
        single = LookupServer(
            model, profile, topology, plan=plan, config=config,
            overload=control,
        )
        ref = single.serve_arenas(arenas)
        with MultiProcessServer(
            model, profile, topology, plan=plan, config=config,
            workers=workers, overload=control,
        ) as pool:
            got = pool.serve_arenas(arenas)
        return ref, got

    def test_admission_control_parity(self):
        control = OverloadControl(
            slo_ms=0.4, priority_names=("gold", "silver", "bronze")
        )
        model, _, _ = two_tier_world()
        arenas = qos_stream(
            model, 512, qps=1e9, seed=31,
            deadline_ms=0.3, shares=(0.2, 0.3, 0.5),
        )
        ref, got = self._mp_run(two_tier_world, control, arenas)
        assert ref.shed_requests > 0
        assert_metrics_bit_identical(ref, got)
        assert ref.shed_by_cause == got.shed_by_cause
        assert ref.priority_class_stats() == got.priority_class_stats()

    def test_brownout_parity(self):
        control = OverloadControl(
            slo_ms=1.0, brownout=True, deadline_shedding=False,
            priority_shedding=False, window_requests=64, min_window=32,
        )
        model, _, _ = three_tier_world()
        arenas = list(
            synthetic_request_arenas(model, 1200, qps=1e9, seed=32)
        )
        ref, got = self._mp_run(three_tier_world, control, arenas)
        assert ref.browned_out_lookups > 0
        assert_metrics_bit_identical(ref, got)
        assert ref.browned_out_lookups == got.browned_out_lookups
        np.testing.assert_array_equal(
            ref.browned_totals, got.browned_totals
        )
        assert ref.brownout_windows == got.brownout_windows
