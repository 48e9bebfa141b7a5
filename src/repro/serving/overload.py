"""SLO-driven overload control for the serving front-end.

RecShard's thesis is that statistical knowledge beats reactive policy;
this module carries that past placement into *admission*.  Under
overload the PR-6 paced front-end could only tail-drop whole batches on
queue overflow — blind to deadlines, request value, and the option of
serving *degraded* instead of *not at all*.  Three cooperating
mechanisms replace that:

* **Deadline-aware admission** — an EWMA service-time estimator
  (ms per lookup, updated from every executed batch on the simulated
  clock) predicts each released microbatch's finish time given the
  engine backlog (``busy_until``).  Requests whose deadlines are
  already unmeetable are shed *early* with cause ``"deadline"``,
  before they waste engine time.

* **Priority-class shedding** — when the predicted worst-case latency
  of a batch exceeds ``slo_margin * slo_ms``, whole lowest-priority
  classes are shed (cause ``"priority"``) until the surviving work is
  predicted to fit.  Class 0 ("gold") is never priority-shed.

* **Brownout degraded mode** — a hysteresis controller watches the
  windowed p99 of served latencies against ``slo_ms`` (and reacts to
  ``device_degrade`` chaos events).  While active, cold-tier home-lane
  lookups are skipped by the executor (only fast-tier, staged, and
  replicated rows are served) and counted as ``browned_out_lookups`` —
  a measured quality cost, not a silent one.

Everything here is deterministic over the simulated clock: decisions
are pure functions of controller state, which itself is a fold over the
executed-batch sequence.  That is what lets the multi-process front-end
reproduce single-process admission decisions bit for bit (it drains all
in-flight work before admitting the next batch, so both runtimes fold
the same sequence — see :class:`~repro.serving.mp.MultiProcessServer`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Shed-cause keys, in reporting order.
SHED_CAUSES = ("overflow", "deadline", "priority")


def parse_priority_spec(spec: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
    """Parse ``"gold=0.1,silver=0.3,bronze=0.6"`` into names and shares.

    Class index follows listing order (class 0 first, never shed);
    shares must be positive and sum to 1 (within 1e-6).
    """
    names: list[str] = []
    shares: list[float] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"bad priority class {part!r} (expected name=share)"
            )
        try:
            share = float(value)
        except ValueError:
            raise ValueError(
                f"bad share for priority class {name!r}: {value!r}"
            ) from None
        if not 0 < share < np.inf:
            raise ValueError(
                f"priority class {name!r} share must be > 0 and finite, "
                f"got {share}"
            )
        if name in names:
            raise ValueError(f"duplicate priority class {name!r}")
        names.append(name)
        shares.append(share)
    if not names:
        raise ValueError("priority spec is empty")
    total = sum(shares)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"priority shares must sum to 1, got {total}")
    return tuple(names), tuple(shares)


@dataclass(frozen=True)
class OverloadControl:
    """Configuration of the overload-control layer (all knobs).

    Attributes:
        slo_ms: the latency objective; gates priority shedding and
            brownout (both need a target to defend).
        queue_limit_ms: when set, a batch whose predicted queueing
            delay (engine backlog at release) exceeds this bound is
            shed whole with cause ``"overflow"`` — the simulated-clock
            equivalent of PR-6's bounded-queue tail drop, and the
            baseline the deadline/priority mechanisms are gated
            against.
        deadline_shedding: shed requests predicted to miss their
            deadline (cause ``"deadline"``).
        priority_shedding: shed lowest classes first when the batch is
            predicted to blow ``slo_margin * slo_ms`` (cause
            ``"priority"``; requires ``slo_ms``).
        brownout: enable the degraded-mode hysteresis controller
            (requires ``slo_ms``).
        slo_margin: fraction of the SLO the admission controller
            defends (headroom absorbs estimator error).
        ewma_alpha: smoothing factor of the service-time estimator.
        brownout_enter: enter brownout when windowed p99 >= this
            multiple of the SLO.
        brownout_exit: leave brownout when windowed p99 <= this
            multiple of the SLO (must be < ``brownout_enter``).
        window_requests: size of the sliding latency window the
            brownout controller watches.
        min_window: served-request count required before the p99
            window is trusted to *enter* brownout.
        priority_names: display names per class index (class 0 first);
            purely cosmetic, used by metrics reports.
    """

    slo_ms: float | None = None
    queue_limit_ms: float | None = None
    deadline_shedding: bool = True
    priority_shedding: bool = True
    brownout: bool = False
    slo_margin: float = 0.85
    ewma_alpha: float = 0.3
    brownout_enter: float = 1.0
    brownout_exit: float = 0.6
    window_requests: int = 256
    min_window: int = 64
    priority_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be > 0")
        if self.queue_limit_ms is not None and self.queue_limit_ms <= 0:
            raise ValueError("queue_limit_ms must be > 0")
        if not 0 < self.slo_margin <= 1:
            raise ValueError("slo_margin must be in (0, 1]")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.brownout_exit >= self.brownout_enter:
            raise ValueError(
                "brownout_exit must be < brownout_enter (hysteresis)"
            )
        if self.window_requests < 1 or self.min_window < 1:
            raise ValueError("window sizes must be >= 1")
        if self.brownout and self.slo_ms is None:
            raise ValueError("brownout requires slo_ms")

    def admission_for(self, has_qos: bool) -> bool:
        """Whether admission can actually shed a batch of this kind.

        The multi-process front-end uses this to decide when it must
        serialize (drain in-flight work before admitting): only when a
        decision could depend on controller state.  A plain stream with
        no queue bound admits everything, so no serialization is needed.
        """
        if self.queue_limit_ms is not None:
            return True
        if not has_qos:
            return False
        return self.deadline_shedding or (
            self.priority_shedding and self.slo_ms is not None
        )


class OverloadController:
    """Mutable overload-control state: estimator, admission, brownout.

    One instance lives on the (spine) :class:`~repro.serving.server.
    LookupServer`; all state advances only through :meth:`admit`,
    :meth:`observe_batch`, :meth:`update_brownout`, and the chaos
    notifications — each driven by simulated-clock quantities — so a
    replayed stream folds to identical decisions in any runtime.
    """

    def __init__(self, control: OverloadControl, overhead_ms_per_batch: float):
        self.control = control
        self.overhead_ms = float(overhead_ms_per_batch)
        self.reset()

    def reset(self) -> None:
        """Return to stream-start state (mirrors server reset)."""
        self._ms_per_lookup: float | None = None
        self._window = np.empty(0, dtype=np.float64)
        self.brownout_active = False
        self._forced_brownout = False

    # ------------------------------------------------------------------
    # Service-time estimator
    # ------------------------------------------------------------------
    @property
    def ms_per_lookup(self) -> float | None:
        """Current EWMA estimate (None until the first batch executes)."""
        return self._ms_per_lookup

    def predict_service_ms(self, lookups: int) -> float:
        """Predicted service time of a batch with ``lookups`` lookups.

        Before the first observation only the per-batch overhead is
        charged — the controller admits optimistically until it has
        evidence (the first batch of a stream can never be "doomed by
        backlog" anyway: the engine is idle).
        """
        per = self._ms_per_lookup
        return self.overhead_ms + (0.0 if per is None else per * lookups)

    def observe_batch(
        self,
        service_ms: float,
        lookups: int,
        latencies_ms: np.ndarray,
    ) -> None:
        """Fold one executed batch into estimator + latency window."""
        if lookups > 0:
            observed = max(service_ms - self.overhead_ms, 0.0) / lookups
            alpha = self.control.ewma_alpha
            self._ms_per_lookup = (
                observed
                if self._ms_per_lookup is None
                else alpha * observed + (1 - alpha) * self._ms_per_lookup
            )
        if self.control.brownout:
            self._window = np.concatenate((self._window, latencies_ms))[
                -self.control.window_requests:
            ]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        trigger_ms: float,
        busy_until_ms: float,
        arrivals_ms: np.ndarray,
        deadlines_ms: np.ndarray | None,
        priorities: np.ndarray | None,
        lookups: np.ndarray,
    ) -> tuple[np.ndarray, list[tuple[str, np.ndarray]]]:
        """Decide one released microbatch's fate.

        Returns ``(keep, sheds)``: a boolean keep mask over the batch's
        requests plus ``(cause, mask)`` pairs for every shed group (the
        masks partition the shed set, so ``keep | union(masks)`` covers
        the batch exactly — the conservation the metrics layer pins).

        Order of mechanisms: queue-bound overflow first (it emulates
        the blind tail-drop baseline and sheds the whole batch), then
        priority shedding against the SLO margin, then the deadline
        doom check on the survivors.
        """
        ctl = self.control
        n = int(arrivals_ms.size)
        keep = np.ones(n, dtype=bool)
        sheds: list[tuple[str, np.ndarray]] = []
        start = max(float(trigger_ms), float(busy_until_ms))
        if (
            ctl.queue_limit_ms is not None
            and start - float(trigger_ms) > ctl.queue_limit_ms
        ):
            sheds.append(("overflow", keep))
            return np.zeros(n, dtype=bool), sheds
        if (
            ctl.priority_shedding
            and ctl.slo_ms is not None
            and priorities is not None
        ):
            budget = ctl.slo_margin * ctl.slo_ms
            while keep.any():
                finish = start + self.predict_service_ms(
                    int(lookups[keep].sum())
                )
                worst = finish - float(arrivals_ms[keep].min())
                if worst <= budget:
                    break
                lowest = int(priorities[keep].max())
                if lowest <= 0:
                    break  # class 0 is never priority-shed
                drop = keep & (priorities == lowest)
                sheds.append(("priority", drop))
                keep = keep & ~drop
        if ctl.deadline_shedding and deadlines_ms is not None and keep.any():
            finish = start + self.predict_service_ms(
                int(lookups[keep].sum())
            )
            doomed = keep & (deadlines_ms < finish)
            if doomed.any():
                sheds.append(("deadline", doomed))
                keep = keep & ~doomed
        return keep, sheds

    # ------------------------------------------------------------------
    # Brownout hysteresis
    # ------------------------------------------------------------------
    def windowed_p99_ms(self) -> float | None:
        """p99 over the sliding latency window (None while empty)."""
        if not self._window.size:
            return None
        return float(np.percentile(self._window, 99))

    def update_brownout(self) -> bool:
        """Advance the hysteresis state machine; returns active flag.

        Enter when the windowed p99 reaches ``brownout_enter * slo``
        over a trusted window (or a ``device_degrade`` forces it);
        exit when the p99 falls to ``brownout_exit * slo`` and no
        degrade is outstanding.  The enter/exit gap prevents flapping
        at the threshold.
        """
        ctl = self.control
        if not ctl.brownout or ctl.slo_ms is None:
            return False
        p99 = self.windowed_p99_ms()
        if not self.brownout_active:
            triggered = (
                self._window.size >= ctl.min_window
                and p99 is not None
                and p99 >= ctl.brownout_enter * ctl.slo_ms
            )
            if self._forced_brownout or triggered:
                self.brownout_active = True
        else:
            recovered = (
                p99 is not None and p99 <= ctl.brownout_exit * ctl.slo_ms
            )
            if not self._forced_brownout and recovered:
                self.brownout_active = False
        return self.brownout_active

    def notify_degrade(self) -> None:
        """A ``device_degrade`` chaos event fired: force brownout."""
        if self.control.brownout:
            self._forced_brownout = True

    def notify_recover(self) -> None:
        """The degraded device recovered: release the forced flag.

        Brownout itself exits through the normal hysteresis path once
        the windowed p99 subsides — recovery lifts the floor, it does
        not snap service back while latencies are still hot.
        """
        self._forced_brownout = False
