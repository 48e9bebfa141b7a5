"""Arrival processes: Poisson equivalence, bursty shape, determinism.

A plain ``qps`` rate handed to
:func:`~repro.serving.loadgen.synthetic_request_arenas` must be exactly
``PoissonArrivals(qps)`` (so callers may pass either), and
:class:`~repro.serving.loadgen.BurstyArrivals` must produce an on/off
profile that is deterministic per seed, time-ordered, and actually
bursty.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.model import rm2
from repro.memory import paper_scales
from repro.serving import (
    BurstyArrivals,
    PoissonArrivals,
    synthetic_request_arenas,
)

_, ROW_SCALE = paper_scales(13, 2)


def model():
    return rm2(num_features=13, row_scale=ROW_SCALE)


def collect(arenas):
    arenas = list(arenas)
    arrival = np.concatenate([a.arrival_ms for a in arenas])
    values = [
        np.concatenate([a.batch[j].values for a in arenas])
        for j in range(arenas[0].batch.num_features)
    ]
    return arenas, arrival, values


def test_rate_and_poisson_process_yield_identical_arenas():
    """synthetic_request_arenas(qps=q) == (qps=PoissonArrivals(q)):
    same timestamps, content, QoS columns, and chunking on every
    chunk — with and without QoS columns."""
    m = model()
    for qos in ({}, {"deadline_ms": 8.0, "priority_shares": (0.3, 0.7)}):
        kwargs = dict(seed=42, chunk_size=256, **qos)
        ref = list(synthetic_request_arenas(m, 2000, 7500.0, **kwargs))
        got = list(
            synthetic_request_arenas(
                m, 2000, PoissonArrivals(7500.0), **kwargs
            )
        )
        assert len(ref) == len(got)
        for a, b in zip(ref, got):
            assert a.base_id == b.base_id
            assert a.has_qos == bool(qos) == b.has_qos
            np.testing.assert_array_equal(a.arrival_ms, b.arrival_ms)
            np.testing.assert_array_equal(a.deadline_ms, b.deadline_ms)
            np.testing.assert_array_equal(a.priority, b.priority)
            for fa, fb in zip(a.batch, b.batch):
                np.testing.assert_array_equal(fa.values, fb.values)
                np.testing.assert_array_equal(fa.offsets, fb.offsets)


def test_streams_are_deterministic_per_seed():
    m = model()
    process = BurstyArrivals(
        burst_qps=20000.0, idle_qps=200.0, burst_ms=40.0, idle_ms=60.0
    )
    _, first, first_vals = collect(
        synthetic_request_arenas(m, 1500, process, seed=5)
    )
    _, again, again_vals = collect(
        synthetic_request_arenas(m, 1500, process, seed=5)
    )
    _, other, _ = collect(synthetic_request_arenas(m, 1500, process, seed=6))
    np.testing.assert_array_equal(first, again)
    for a, b in zip(first_vals, again_vals):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(first, other)


def test_bursty_arrivals_are_ordered_and_concentrated():
    """Arrivals are non-decreasing and overwhelmingly inside burst
    windows (phase from absolute time), at roughly the burst rate."""
    process = BurstyArrivals(
        burst_qps=50000.0, idle_qps=100.0, burst_ms=25.0, idle_ms=75.0
    )
    arrivals = process.arrivals(np.random.default_rng(0), 0.0, 20000)
    assert np.all(np.diff(arrivals) >= 0)
    phase = arrivals % process.period_ms
    in_burst = float((phase < process.burst_ms).mean())
    # Expected share: burst traffic dominates the duty cycle.
    expected = (
        process.burst_qps
        * process.burst_ms
        / (
            process.burst_qps * process.burst_ms
            + process.idle_qps * process.idle_ms
        )
    )
    assert in_burst == pytest.approx(expected, abs=0.05)
    # Mean rate over whole cycles approaches the analytic mean.
    horizon_s = (arrivals[-1] - arrivals[0]) / 1e3
    assert 20000 / horizon_s == pytest.approx(
        process.mean_qps, rel=0.15
    )


def test_mean_qps_blends_duty_cycle():
    process = BurstyArrivals(
        burst_qps=1000.0, idle_qps=100.0, burst_ms=30.0, idle_ms=70.0
    )
    assert process.mean_qps == pytest.approx(0.3 * 1000.0 + 0.7 * 100.0)
    assert PoissonArrivals(1234.0).mean_qps == 1234.0


def test_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        BurstyArrivals(burst_qps=0.0)
    with pytest.raises(ValueError):
        BurstyArrivals(burst_qps=10.0, idle_qps=-1.0)
    with pytest.raises(ValueError):
        BurstyArrivals(burst_qps=10.0, burst_ms=0.0)
    m = model()
    with pytest.raises(ValueError):
        list(synthetic_request_arenas(m, -1, PoissonArrivals(10.0)))
    with pytest.raises(ValueError):
        list(
            synthetic_request_arenas(
                m, 10, PoissonArrivals(10.0), chunk_size=0
            )
        )


def test_zero_idle_rate_gives_silent_gaps():
    """idle_qps=0 produces true silence between bursts."""
    process = BurstyArrivals(
        burst_qps=10000.0, idle_qps=0.0, burst_ms=10.0, idle_ms=90.0
    )
    arrivals = process.arrivals(np.random.default_rng(2), 0.0, 2000)
    phase = arrivals % process.period_ms
    assert np.all(phase < process.burst_ms)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_requests": -1},
        {"qps": -1.0},
        {"chunk_size": 0},
        {"deadline_ms": 0.0},
        {"priority_shares": (0.5, -0.5)},
        {"priority_shares": (0.5, 0.6)},
    ],
)
def test_arguments_rejected_at_the_call(kwargs):
    """Bad arguments raise when the stream is created, not at the first
    ``next()`` — which a consumer such as ``serve_arenas`` would only
    reach mid-setup."""
    args = {"num_requests": 10, "qps": 10.0, **kwargs}
    with pytest.raises(ValueError):
        synthetic_request_arenas(model(), **args)
