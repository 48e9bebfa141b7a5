"""Fault injection: scripted device/worker chaos on the serving clock.

ROADMAP item 5(c): production recommendation serving treats component
failure as routine, so recovery time and tail latency *during* a
failure must be first-class, measured numbers — not an assumption that
the stack survives.  This module is the scripting half of that drill:
a :class:`FaultSchedule` lists events pinned to the serving clock
(simulated milliseconds, the same clock microbatch triggers run on),
and a :class:`FaultInjector` replays them in order as the server's
event loop advances past each timestamp.

Event kinds:

* ``device_fail`` — the device stops serving: its home-lane lookups are
  *dropped* (counted, never silently lost), replicated lookups are
  rerouted by masking the device out of the least-loaded routing lane,
  and a :class:`~repro.serving.server.LookupServer` starts an emergency
  replan onto the surviving topology.
* ``device_degrade`` — the device serves at ``1/slowdown`` of its
  bandwidth (thermal throttling, a flapping link): its per-batch
  execution time is multiplied by ``slowdown``.
* ``device_recover`` — clears a prior fail/degrade of the device.
* ``worker_kill`` — SIGKILL one worker process of a
  :class:`~repro.serving.mp.MultiProcessServer` pool mid-stream (the
  self-healing supervisor's drill; meaningless single-process).

The CLI front door is :func:`parse_chaos_spec` (``repro serve --chaos
"fail@250:1,recover@900:1"``): a comma-separated list of
``kind@ms:target`` terms, where ``degrade`` carries its slowdown as
``kind@ms:target x factor`` spelled ``degrade@100:0x4`` (device 0 at
4x slower from t=100 ms).  Schedules validate eagerly so a typo is a
clean error before any worker forks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: event kinds that target a simulated device.
DEVICE_KINDS = ("device_fail", "device_degrade", "device_recover")
#: event kinds that target a worker process of the multi-process pool.
WORKER_KINDS = ("worker_kill",)

_SPEC_ALIASES = {
    "fail": "device_fail",
    "degrade": "device_degrade",
    "recover": "device_recover",
    "kill": "worker_kill",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault, pinned to the serving clock.

    Attributes:
        at_ms: simulated time the event fires (the injector delivers it
            with the first microbatch triggered at or after this time).
        kind: one of :data:`DEVICE_KINDS` + :data:`WORKER_KINDS`.
        target: device index (device kinds) or worker index
            (``worker_kill``).
        slowdown: service-time multiplier, ``device_degrade`` only.
    """

    at_ms: float
    kind: str
    target: int
    slowdown: float = 1.0

    def __post_init__(self):
        if self.kind not in DEVICE_KINDS + WORKER_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (have "
                f"{DEVICE_KINDS + WORKER_KINDS})"
            )
        if not 0 <= self.at_ms < math.inf:
            raise ValueError(
                f"fault time must be >= 0 and finite, got {self.at_ms}"
            )
        if self.target < 0:
            raise ValueError(f"fault target must be >= 0, got {self.target}")
        if self.kind == "device_degrade" and not 1.0 < self.slowdown < math.inf:
            raise ValueError(
                f"degrade slowdown must be > 1 and finite, got {self.slowdown}"
            )
        if self.kind != "device_degrade" and self.slowdown != 1.0:
            raise ValueError(f"{self.kind} takes no slowdown factor")

    @property
    def is_device_event(self) -> bool:
        return self.kind in DEVICE_KINDS

    def describe(self) -> str:
        """One-line human description (reports, logs)."""
        what = {
            "device_fail": f"device {self.target} fails",
            "device_degrade": (
                f"device {self.target} degrades {self.slowdown:g}x"
            ),
            "device_recover": f"device {self.target} recovers",
            "worker_kill": f"worker {self.target} killed",
        }[self.kind]
        return f"t={self.at_ms:g}ms: {what}"


def device_fail(at_ms: float, device: int) -> FaultEvent:
    """Script a device failure at simulated ``at_ms``."""
    return FaultEvent(at_ms=at_ms, kind="device_fail", target=device)


def device_degrade(at_ms: float, device: int, slowdown: float) -> FaultEvent:
    """Script a bandwidth degradation (service times x ``slowdown``)."""
    return FaultEvent(
        at_ms=at_ms, kind="device_degrade", target=device, slowdown=slowdown
    )


def device_recover(at_ms: float, device: int) -> FaultEvent:
    """Script recovery of a previously failed/degraded device."""
    return FaultEvent(at_ms=at_ms, kind="device_recover", target=device)


def worker_kill(at_ms: float, worker: int) -> FaultEvent:
    """Script a SIGKILL of one worker process (multi-process pools)."""
    return FaultEvent(at_ms=at_ms, kind="worker_kill", target=worker)


class FaultSchedule:
    """An ordered script of fault events for one serving run.

    Events are sorted by ``at_ms`` (stable, so same-timestamp events
    keep their scripted order).  A schedule is immutable shared
    configuration — the replay cursor lives in :class:`FaultInjector`,
    so one schedule can drive any number of runs.
    """

    def __init__(self, events=()):
        events = tuple(events)
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"FaultSchedule holds FaultEvent items, got "
                    f"{type(event).__name__}"
                )
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.at_ms)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def device_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.is_device_event)

    @property
    def worker_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if not e.is_device_event)

    def validate_targets(
        self, num_devices: int, num_workers: int = 0
    ) -> None:
        """Reject events whose targets do not exist in this deployment.

        ``num_workers == 0`` means single-process serving, where worker
        events are inexpressible — scheduling one is a configuration
        error surfaced here rather than a silently ignored line.
        """
        for event in self.events:
            if event.is_device_event:
                if event.target >= num_devices:
                    raise ValueError(
                        f"{event.describe()}: topology has only "
                        f"{num_devices} devices"
                    )
            elif num_workers <= 0:
                raise ValueError(
                    f"{event.describe()}: worker events require the "
                    f"multi-process runtime (--workers N)"
                )
            elif event.target >= num_workers:
                raise ValueError(
                    f"{event.describe()}: pool has only {num_workers} "
                    f"workers"
                )

    def describe(self) -> str:
        return "; ".join(e.describe() for e in self.events) or "(empty)"


class FaultInjector:
    """Replay cursor over a :class:`FaultSchedule`.

    The serving event loop calls :meth:`pop_due` with each microbatch's
    trigger time; every not-yet-delivered event with ``at_ms`` at or
    before that time is returned once, in schedule order.  Discrete-
    event semantics: an event between two batch triggers is delivered
    with the *later* batch (the first moment the server looks at the
    clock again), which is also what bounds detection latency and makes
    ``time_to_reroute`` a measured, nonzero number.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._cursor = 0

    @property
    def pending(self) -> int:
        """Events not yet delivered."""
        return len(self.schedule.events) - self._cursor

    def pop_due(self, now_ms: float) -> list[FaultEvent]:
        """All undelivered events with ``at_ms <= now_ms``, in order."""
        due = []
        events = self.schedule.events
        while self._cursor < len(events) and events[self._cursor].at_ms <= now_ms:
            due.append(events[self._cursor])
            self._cursor += 1
        return due

    def reset(self) -> None:
        """Rewind to the start of the schedule (new stream, same script)."""
        self._cursor = 0


def parse_chaos_spec(spec: str) -> FaultSchedule:
    """Parse a ``--chaos`` command-line spec into a schedule.

    Grammar: comma-separated ``kind@ms:target`` terms; ``degrade``
    appends its factor as ``:targetxfactor``.  Kinds are the short
    aliases ``fail``/``degrade``/``recover``/``kill`` or the full event
    names.  Examples::

        fail@250:1                    device 1 fails at t=250 ms
        degrade@100:0x4               device 0 serves 4x slower from t=100
        fail@250:1,recover@900:1      fail then recover
        kill@300:1                    worker 1 SIGKILLed at t=300

    Raises ``ValueError`` with the offending term on any malformed
    input — the CLI turns that into a clean error instead of a
    traceback from deep inside the serving loop.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError("empty --chaos spec")
    events = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            raise ValueError(f"empty term in --chaos spec {spec!r}")
        kind_part, at_sep, rest = term.partition("@")
        kind = _SPEC_ALIASES.get(kind_part, kind_part)
        if not at_sep or kind not in DEVICE_KINDS + WORKER_KINDS:
            raise ValueError(
                f"bad --chaos term {term!r}: expected kind@ms:target with "
                f"kind one of {sorted(_SPEC_ALIASES)}"
            )
        time_part, target_sep, target_part = rest.partition(":")
        if not target_sep:
            raise ValueError(
                f"bad --chaos term {term!r}: missing ':target'"
            )
        slowdown = 1.0
        if kind == "device_degrade":
            target_part, x_sep, factor_part = target_part.partition("x")
            if not x_sep:
                raise ValueError(
                    f"bad --chaos term {term!r}: degrade needs a factor, "
                    f"e.g. degrade@100:0x4"
                )
            try:
                slowdown = float(factor_part)
            except ValueError:
                raise ValueError(
                    f"bad --chaos term {term!r}: factor {factor_part!r} "
                    f"is not a number"
                ) from None
        try:
            at_ms = float(time_part)
            target = int(target_part)
        except ValueError:
            raise ValueError(
                f"bad --chaos term {term!r}: expected kind@ms:target "
                f"with numeric ms and integer target"
            ) from None
        try:
            events.append(
                FaultEvent(
                    at_ms=at_ms, kind=kind, target=target, slowdown=slowdown
                )
            )
        except ValueError as error:
            raise ValueError(f"bad --chaos term {term!r}: {error}") from None
    return FaultSchedule(events)
