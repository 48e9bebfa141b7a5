"""Per-request object admission: the serving layer's reference path.

The shipped server admits columnar
:class:`~repro.serving.arena.RequestArena` chunks through
:func:`~repro.serving.queue.iter_microbatch_arenas`, which computes the
microbatch release points over whole arrival arrays.  This module keeps
the implementation it replaced — one :class:`LookupRequest` object per
sample, a FIFO :class:`MicroBatchQueue` consulted on every arrival, and
:func:`coalesce_requests` re-concatenating each released batch — as the
oracle the serving parity suites compare against bit for bit.

:class:`ObjectServer` is a :class:`~repro.serving.server.LookupServer`
with the object event loop (:meth:`ObjectServer.serve`);
:class:`ScalarServer` additionally installs the per-lookup
:class:`~tests.oracles.engine.ScalarExecutor` on every (re)plan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.data.batch import JaggedBatch, JaggedFeature
from repro.serving import server as server_module
from repro.serving.arena import RequestArena
from repro.serving.metrics import ServingMetrics
from repro.serving.server import LookupServer
from tests.oracles.engine import scalar_executors


@dataclass(frozen=True)
class LookupRequest:
    """One inference sample: per-feature hashed ids (an empty array is a
    NULL sample), arrival time, deadline (``inf`` = none), and priority
    class (lower is more important)."""

    request_id: int
    features: tuple[np.ndarray, ...]
    arrival_ms: float = 0.0
    deadline_ms: float = float("inf")
    priority: int = 0

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def total_lookups(self) -> int:
        return int(sum(f.size for f in self.features))


def coalesce_requests(requests: list[LookupRequest]) -> JaggedBatch:
    """Merge requests into one jagged batch (sample i = request i)."""
    if not requests:
        raise ValueError("cannot coalesce an empty request list")
    num_features = requests[0].num_features
    for r in requests:
        if r.num_features != num_features:
            raise ValueError(
                f"request {r.request_id} has {r.num_features} features, "
                f"expected {num_features}"
            )
    features = []
    for j in range(num_features):
        per_sample = [r.features[j] for r in requests]
        lengths = np.array([s.size for s in per_sample], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if offsets[-1]:
            values = np.concatenate(
                [np.asarray(s, dtype=np.int64) for s in per_sample]
            )
        else:
            values = np.empty(0, dtype=np.int64)
        features.append(JaggedFeature(values, offsets))
    return JaggedBatch(features)


def arena_from_requests(requests: list[LookupRequest]) -> RequestArena:
    """Columnarize object-form requests; QoS columns materialize only
    when some request carries a non-default deadline or priority."""
    deadline = priority = None
    if any(r.deadline_ms != float("inf") or r.priority != 0 for r in requests):
        deadline = np.array([r.deadline_ms for r in requests], dtype=np.float64)
        priority = np.array([r.priority for r in requests], dtype=np.int64)
    return RequestArena(
        coalesce_requests(requests),
        np.array([r.arrival_ms for r in requests], dtype=np.float64),
        base_id=requests[0].request_id,
        deadline_ms=deadline,
        priority=priority,
    )


def request_at(arena: RequestArena, i: int) -> LookupRequest:
    """Request ``i`` of ``arena`` as an object whose arrays are views."""
    return LookupRequest(
        request_id=arena.base_id + i,
        features=tuple(f.sample(i) for f in arena.batch),
        arrival_ms=float(arena.arrival_ms[i]),
        deadline_ms=float(arena.deadline_ms[i]) if arena.has_qos else float("inf"),
        priority=int(arena.priority[i]) if arena.has_qos else 0,
    )


def iter_requests(arenas: Iterable[RequestArena]) -> Iterator[LookupRequest]:
    """Every request of every arena, in stream order."""
    for arena in arenas:
        for i in range(arena.num_requests):
            yield request_at(arena, i)


@dataclass
class MicroBatchQueue:
    """FIFO admission: a batch is *ready* when ``max_batch_size``
    requests wait or the oldest has waited ``max_delay_ms``."""

    max_batch_size: int = 256
    max_delay_ms: float = 1.0
    _pending: deque = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")

    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, request: LookupRequest) -> None:
        """Enqueue one request (arrivals must be non-decreasing in time)."""
        if self._pending and request.arrival_ms < self._pending[-1].arrival_ms:
            raise ValueError(
                f"request {request.request_id} arrives at {request.arrival_ms}"
                f" ms, before the queue tail"
            )
        self._pending.append(request)

    def deadline_ms(self) -> float:
        """When the current head request forces a release (inf if empty)."""
        if not self._pending:
            return float("inf")
        return self._pending[0].arrival_ms + self.max_delay_ms

    def ready(self, now_ms: float) -> bool:
        """Whether a batch should be released at ``now_ms``."""
        if not self._pending:
            return False
        return (
            len(self._pending) >= self.max_batch_size
            or now_ms >= self.deadline_ms()
        )

    def pop_batch(self) -> list[LookupRequest]:
        """Release up to ``max_batch_size`` oldest requests (FIFO)."""
        if not self._pending:
            raise ValueError("pop_batch on an empty queue")
        count = min(len(self._pending), self.max_batch_size)
        return [self._pending.popleft() for _ in range(count)]


class ObjectServer(LookupServer):
    """A :class:`LookupServer` that also runs the per-request loop."""

    def serve(
        self,
        requests: Iterable[LookupRequest],
        on_replan: Callable[[float], None] | None = None,
    ) -> ServingMetrics:
        """Run the object-path event loop over a request stream in
        non-decreasing ``arrival_ms`` order."""
        queue = MicroBatchQueue(
            max_batch_size=self.config.max_batch_size,
            max_delay_ms=self.config.max_delay_ms,
        )
        for request in requests:
            now = request.arrival_ms
            # Flush any batch whose delay budget expires before this arrival.
            while len(queue) and queue.deadline_ms() <= now:
                self._process(queue, queue.deadline_ms(), on_replan)
            queue.submit(request)
            if queue.ready(now):
                self._process(queue, now, on_replan)
        # Stream over, clock keeps running: leftover requests wait out
        # their delay budget in case of batchmates, then release.
        while len(queue):
            self._process(queue, queue.deadline_ms(), on_replan)
        return self.metrics

    def _process(self, queue, trigger_ms, on_replan) -> None:
        """Release one microbatch from the queue and account it."""
        arena = arena_from_requests(queue.pop_batch())
        if self._ovl is not None:
            arena = self.admit_arena(arena, trigger_ms)
            if arena is None:
                return
        self._execute(
            arena.batch, trigger_ms, arena.arrival_ms, on_replan,
            deadlines_ms=arena.deadline_ms, priorities=arena.priority,
        )


class ScalarServer(ObjectServer):
    """An :class:`ObjectServer` whose every install builds the scalar
    reference executor."""

    def _install(self, plan, profile) -> None:
        with scalar_executors(server_module):
            super()._install(plan, profile)
