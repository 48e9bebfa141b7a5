"""Open-loop load generation for the serving runtimes.

:func:`synthetic_request_arenas` is the one request generator: both
the single-process :class:`~repro.serving.server.LookupServer` and the
multi-process runtime serve its seeded arena streams.  Timestamps come
from an arrival *process*, so the same request content can be offered
under different traffic shapes — steady Poisson for scaling
measurements, bursty on/off cycles for overload and shedding tests.

Both processes here are frozen dataclasses whose arrival draws are pure
functions of ``(rng, now_ms, count)``: streams replay bit-for-bit per
seed, and a plain ``qps`` rate is exactly ``PoissonArrivals(qps)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol

import numpy as np

from repro.data.drift import DriftModel
from repro.data.model import ModelSpec
from repro.data.synthetic import SamplerBank
from repro.serving.arena import RequestArena


class ArrivalProcess(Protocol):
    """A traffic shape: draws absolute arrival times for a chunk."""

    @property
    def mean_qps(self) -> float:
        """Long-run mean offered load (requests/second)."""
        ...

    def arrivals(
        self, rng: np.random.Generator, now_ms: float, count: int
    ) -> np.ndarray:
        """Draw ``count`` non-decreasing arrival times after ``now_ms``."""
        ...


@dataclass(frozen=True)
class PoissonArrivals:
    """Steady open-loop traffic: exponential gaps at a fixed rate.

    What :func:`synthetic_request_arenas` uses for a plain ``qps``
    rate.

    Attributes:
        qps: mean arrival rate (requests/second, > 0).
    """

    qps: float

    def __post_init__(self):
        if self.qps <= 0:
            raise ValueError("qps must be > 0")

    @property
    def mean_qps(self) -> float:
        return self.qps

    def arrivals(
        self, rng: np.random.Generator, now_ms: float, count: int
    ) -> np.ndarray:
        gaps = rng.exponential(1e3 / self.qps, size=count)
        # Prepending ``now`` keeps float associativity identical to a
        # scalar ``now += gap`` loop, so streams replay bit-for-bit.
        return np.cumsum(np.concatenate(([now_ms], gaps)))[1:]


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off traffic: Poisson bursts separated by (near-)idle windows.

    Time is tiled into ``burst_ms + idle_ms`` cycles anchored at
    ``t = 0``: inside the first ``burst_ms`` of each cycle requests
    arrive at ``burst_qps``, in the remainder at ``idle_qps`` (which
    may be 0 for true silence).  Exponential gaps are memoryless, so
    restarting the draw at each phase boundary yields an exact
    piecewise-constant-rate Poisson process; phase membership depends
    only on absolute simulated time, never on generator history.

    Attributes:
        burst_qps: arrival rate inside a burst (> 0).
        idle_qps: arrival rate between bursts (>= 0).
        burst_ms: burst window length (> 0).
        idle_ms: idle window length (> 0).
    """

    burst_qps: float
    idle_qps: float = 0.0
    burst_ms: float = 50.0
    idle_ms: float = 50.0

    def __post_init__(self):
        if self.burst_qps <= 0:
            raise ValueError("burst_qps must be > 0")
        if self.idle_qps < 0:
            raise ValueError("idle_qps must be >= 0")
        if self.burst_ms <= 0 or self.idle_ms <= 0:
            raise ValueError("burst_ms and idle_ms must be > 0")

    @property
    def period_ms(self) -> float:
        return self.burst_ms + self.idle_ms

    @property
    def mean_qps(self) -> float:
        return (
            self.burst_qps * self.burst_ms + self.idle_qps * self.idle_ms
        ) / self.period_ms

    def arrivals(
        self, rng: np.random.Generator, now_ms: float, count: int
    ) -> np.ndarray:
        out = np.empty(count, dtype=np.float64)
        filled = 0
        t = float(now_ms)
        while filled < count:
            phase = t % self.period_ms
            in_burst = phase < self.burst_ms
            rate = self.burst_qps if in_burst else self.idle_qps
            phase_end = t - phase + (
                self.burst_ms if in_burst else self.period_ms
            )
            if phase_end <= t:
                # Float rounding at a phase boundary can put phase_end
                # at (or below) t — ``t % period`` within one ulp of
                # the period — which would stall the loop; force
                # progress by at least one ulp.
                phase_end = np.nextafter(t, np.inf)
            if rate <= 0:
                t = phase_end
                continue
            need = count - filled
            gaps = rng.exponential(1e3 / rate, size=need)
            times = np.cumsum(np.concatenate(([t], gaps)))[1:]
            # Arrivals past the phase boundary are discarded and the
            # draw restarts at the boundary (exact by memorylessness).
            in_phase = int(np.searchsorted(times, phase_end, side="left"))
            if in_phase >= need:
                out[filled:] = times
                filled = count
                t = float(times[-1])
            else:
                out[filled : filled + in_phase] = times[:in_phase]
                filled += in_phase
                t = phase_end
        return out


#: Fixed stream id for the QoS column generator.  Deadlines and
#: priorities are drawn from ``default_rng((seed, _QOS_STREAM))`` — a
#: separate stream from the content/arrival generator — so turning the
#: QoS columns on leaves every existing arrival time and lookup index
#: of a seeded stream bit-identical.
_QOS_STREAM = 0x51D


def synthetic_request_arenas(
    model: ModelSpec,
    num_requests: int,
    qps: float | ArrivalProcess,
    seed: int = 0,
    start_ms: float = 0.0,
    drift: DriftModel | None = None,
    months_per_request: float = 0.0,
    chunk_size: int = 512,
    deadline_ms: float | None = None,
    priority_shares: tuple[float, ...] | None = None,
) -> Iterator[RequestArena]:
    """Generate a seeded open-loop request stream, columnar.

    Chunks of samples are drawn feature-major from the model's feature
    statistics and timestamped by the arrival process; each chunk is
    one :class:`~repro.serving.arena.RequestArena`.  With a ``drift``
    model, each successive chunk is drawn from feature statistics
    drifted to ``months_per_request * requests_so_far`` —
    fast-forwarding the months-long drift of Figure 9 into one serving
    run so drift-triggered replanning can be exercised end to end.
    Per-feature sampler state (hashed value space, post-hash CDFs) is
    reused across chunks and only rebuilt for the spec fields drift
    actually changed.

    Args:
        model: workload spec.
        num_requests: stream length.
        qps: offered load — a mean rate in requests/second (Poisson
            arrivals, exactly ``PoissonArrivals(qps)``) or any
            :class:`ArrivalProcess` such as :class:`BurstyArrivals`.
        seed: RNG seed; streams replay identically per seed.
        start_ms: timestamp of the stream's start.
        drift: optional :class:`~repro.data.drift.DriftModel`.
        months_per_request: simulated months elapsed per request.
        chunk_size: samples drawn per arena chunk (efficiency knob).
        deadline_ms: when set (> 0), every request carries the absolute
            deadline ``arrival + deadline_ms``.
        priority_shares: when set, per-request priority classes are
            drawn i.i.d. with these probabilities (class ``i`` gets
            ``priority_shares[i]``; shares must be positive and sum to
            1).  QoS columns come from a dedicated RNG stream
            (``default_rng((seed, 0x51D))``), so arrivals and lookup
            content stay bit-identical with QoS on or off — and, with
            drift, identical to the undrifted stream's QoS columns.

    Returns:
        An iterator of :class:`~repro.serving.arena.RequestArena`
        chunks in arrival order.  The arguments are checked at the
        call, before the first chunk is drawn.

    Raises:
        ValueError: on a negative ``num_requests``, a non-positive
            rate, ``chunk_size`` or ``deadline_ms``, or priority shares
            that are not positive or do not sum to 1.
    """
    if num_requests < 0:
        raise ValueError("num_requests must be >= 0")
    process = PoissonArrivals(qps) if np.isscalar(qps) else qps
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if deadline_ms is not None and deadline_ms <= 0:
        raise ValueError("deadline_ms must be > 0")
    shares = None
    if priority_shares is not None:
        shares = np.asarray(priority_shares, dtype=np.float64)
        if shares.size == 0 or np.any(shares <= 0):
            raise ValueError("priority shares must be positive")
        if abs(float(shares.sum()) - 1.0) > 1e-6:
            raise ValueError(
                f"priority shares must sum to 1, got {float(shares.sum())}"
            )
        shares = shares / shares.sum()

    # The stream is an inner generator so the checks above run at the
    # call rather than at the first ``next()``.
    def chunks() -> Iterator[RequestArena]:
        with_qos = deadline_ms is not None or shares is not None
        qos_rng = (
            np.random.default_rng((seed, _QOS_STREAM)) if with_qos else None
        )
        rng = np.random.default_rng(seed)
        bank = SamplerBank()
        now = float(start_ms)
        emitted = 0
        while emitted < num_requests:
            count = min(chunk_size, num_requests - emitted)
            chunk_model = model
            if drift is not None and months_per_request > 0:
                month = months_per_request * emitted
                if month > 0:
                    chunk_model = drift.drift_model(model, month)
            bank.refresh(chunk_model)
            chunk_rng = np.random.default_rng(int(rng.integers(2**31)))
            batch = bank.sample_batch(count, chunk_rng)
            arrivals = process.arrivals(rng, now, count)
            now = float(arrivals[-1])
            deadlines = priorities = None
            if with_qos:
                deadlines = (
                    arrivals + deadline_ms
                    if deadline_ms is not None
                    else np.full(count, np.inf)
                )
                priorities = (
                    qos_rng.choice(shares.size, size=count, p=shares).astype(
                        np.int64
                    )
                    if shares is not None
                    else np.zeros(count, dtype=np.int64)
                )
            yield RequestArena(
                batch,
                arrivals,
                base_id=emitted,
                deadline_ms=deadlines,
                priority=priorities,
            )
            emitted += count

    return chunks()
