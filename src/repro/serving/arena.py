"""Columnar request storage: the serving layer's data layout.

A per-request object stream materializes one request object plus
``num_features`` tiny index arrays per sample and re-concatenates those
fragments for every released microbatch — so a simulated server would
spend its wall-clock on Python object churn rather than on lookups.  A
:class:`RequestArena` keeps a chunk of requests *columnar end to end*:
per feature one flat ``values`` array plus one ``offsets`` array
(request ``i`` owns segment ``[offsets[i], offsets[i+1])``), and one
``arrival_ms`` array for the whole chunk — the same feature-major
jagged layout the engine consumes, so a microbatch is a pair of array
slices instead of a rebuild.  This is the data-structure move
serving-efficiency work like MicroRec makes on the inference path:
restructure the request representation so the hot loop only slices
views.  The object form survives only as the parity oracle in
``tests/oracles/serving.py``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.data.batch import JaggedBatch, JaggedFeature

#: per-process counter for default shared-memory segment names.
_SHM_SEQ = itertools.count()

#: prefix of every segment this module creates (leak checks scan for it).
SHM_NAME_PREFIX = "recshard-arena"


class RequestArena:
    """One chunk of lookup requests in feature-major columnar layout.

    Args:
        batch: the chunk's lookups as one jagged batch — sample ``i``
            of every feature belongs to request ``i``.
        arrival_ms: per-request arrival timestamps, non-decreasing,
            shape ``(num_requests,)``.
        base_id: request id of the chunk's first request (ids are
            consecutive within a chunk).
        deadline_ms: optional per-request absolute deadlines (float64,
            same shape as ``arrival_ms``); ``inf`` marks "no deadline".
        priority: optional per-request priority classes (int64, lower
            is more important; 0 is the protected top class).

    The two QoS columns travel together: providing either materializes
    both (missing deadlines default to ``inf``, missing priorities to
    class 0), so downstream code only ever sees "no QoS" or "full QoS".
    """

    __slots__ = (
        "batch",
        "arrival_ms",
        "base_id",
        "deadline_ms",
        "priority",
        "_offsets_mat",
    )

    def __init__(
        self,
        batch: JaggedBatch,
        arrival_ms: np.ndarray,
        base_id: int = 0,
        deadline_ms: np.ndarray | None = None,
        priority: np.ndarray | None = None,
    ):
        arrival_ms = np.asarray(arrival_ms, dtype=np.float64)
        if arrival_ms.ndim != 1:
            raise ValueError("arrival_ms must be a 1-D array")
        if batch.num_features and batch.batch_size != arrival_ms.size:
            raise ValueError(
                f"batch holds {batch.batch_size} requests, arrival_ms "
                f"{arrival_ms.size}"
            )
        if arrival_ms.size > 1 and np.any(np.diff(arrival_ms) < 0):
            raise ValueError("arrival_ms must be non-decreasing")
        if deadline_ms is not None or priority is not None:
            if deadline_ms is None:
                deadline_ms = np.full(arrival_ms.size, np.inf)
            else:
                deadline_ms = np.asarray(deadline_ms, dtype=np.float64)
            if priority is None:
                priority = np.zeros(arrival_ms.size, dtype=np.int64)
            else:
                priority = np.asarray(priority, dtype=np.int64)
            if deadline_ms.shape != arrival_ms.shape:
                raise ValueError(
                    f"deadline_ms shape {deadline_ms.shape} != "
                    f"arrival_ms shape {arrival_ms.shape}"
                )
            if priority.shape != arrival_ms.shape:
                raise ValueError(
                    f"priority shape {priority.shape} != "
                    f"arrival_ms shape {arrival_ms.shape}"
                )
            if priority.size and priority.min() < 0:
                raise ValueError("priority classes must be >= 0")
        self.batch = batch
        self.arrival_ms = arrival_ms
        self.base_id = int(base_id)
        self.deadline_ms = deadline_ms
        self.priority = priority
        self._offsets_mat: np.ndarray | None = None

    @property
    def offsets_mat(self) -> np.ndarray:
        """All features' offsets stacked, shape ``(features, requests + 1)``.

        Built once per arena; every microbatch slice then rebases its
        offsets with one vectorized subtraction over all features
        instead of a numpy call per feature.
        """
        if self._offsets_mat is None:
            self._offsets_mat = np.stack([f.offsets for f in self.batch])
        return self._offsets_mat

    @property
    def num_requests(self) -> int:
        return self.arrival_ms.size

    @property
    def num_features(self) -> int:
        return self.batch.num_features

    @property
    def total_lookups(self) -> int:
        return self.batch.total_lookups

    @property
    def has_qos(self) -> bool:
        """Whether this chunk carries deadline/priority columns."""
        return self.deadline_ms is not None

    @property
    def request_lookups(self) -> np.ndarray:
        """Per-request lookup totals across all features, shape ``(n,)``."""
        if not self.batch.features:
            return np.zeros(self.num_requests, dtype=np.int64)
        return np.diff(self.offsets_mat, axis=1).sum(axis=0)

    # ------------------------------------------------------------------
    # Zero-copy views
    # ------------------------------------------------------------------
    def batch_view(self, start: int, stop: int) -> JaggedBatch:
        """Requests ``[start, stop)`` as one jagged batch.

        Values are contiguous slices of the arena's flat arrays (views,
        no copy); only the rebased offsets (one vectorized subtraction
        over the stacked offsets matrix) are materialized, instead of a
        per-batch ``np.concatenate`` of per-sample fragments.  The
        slices inherit the arena's validated invariants, so the jagged
        structures are built through the check-free constructor.
        """
        if not self.batch.features:
            return JaggedBatch([])
        mat = self.offsets_mat
        rebased = mat[:, start: stop + 1] - mat[:, start: start + 1]
        lo = mat[:, start].tolist()
        hi = mat[:, stop].tolist()
        features = [
            JaggedFeature.from_validated(f.values[lo[j]: hi[j]], rebased[j])
            for j, f in enumerate(self.batch)
        ]
        return JaggedBatch(features)

    def slice(self, start: int, stop: int) -> "RequestArena":
        """Sub-arena over requests ``[start, stop)`` (values are views)."""
        return RequestArena(
            self.batch_view(start, stop),
            self.arrival_ms[start:stop],
            base_id=self.base_id + start,
            deadline_ms=(
                self.deadline_ms[start:stop] if self.has_qos else None
            ),
            priority=self.priority[start:stop] if self.has_qos else None,
        )

    def take(self, keep: np.ndarray) -> "RequestArena":
        """Sub-arena of the requests where boolean mask ``keep`` is set.

        The admission filter: shed requests drop out of the batch while
        arrival order (and therefore the non-decreasing invariant) is
        preserved.  Unlike :meth:`slice` the kept set may be
        non-contiguous, so values are gathered (copied); ``base_id`` is
        rebased to the first kept request, after which ids within the
        sub-arena are no longer globally meaningful.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.arrival_ms.shape:
            raise ValueError(
                f"keep mask shape {keep.shape} != requests "
                f"{self.arrival_ms.shape}"
            )
        indices = np.flatnonzero(keep)
        first = int(indices[0]) if indices.size else 0
        return RequestArena(
            self.batch.take(indices),
            self.arrival_ms[indices],
            base_id=self.base_id + first,
            deadline_ms=self.deadline_ms[indices] if self.has_qos else None,
            priority=self.priority[indices] if self.has_qos else None,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def concat(cls, arenas: list["RequestArena"]) -> "RequestArena":
        """Concatenate chunks (used to carry a partial batch forward)."""
        if not arenas:
            raise ValueError("cannot concatenate an empty arena list")
        if len(arenas) == 1:
            return arenas[0]
        num_features = {a.num_features for a in arenas}
        if len(num_features) != 1:
            raise ValueError(f"arenas disagree on feature count: {num_features}")
        features = []
        for j in range(num_features.pop()):
            parts = [a.batch[j] for a in arenas]
            values = np.concatenate([p.values for p in parts])
            offsets = np.zeros(
                sum(p.batch_size for p in parts) + 1, dtype=np.int64
            )
            pos, base = 1, 0
            for p in parts:
                offsets[pos: pos + p.batch_size] = p.offsets[1:] + base
                pos += p.batch_size
                base += p.values.size
            features.append(JaggedFeature(values, offsets))
        deadline = priority = None
        if any(a.has_qos for a in arenas):
            # Mixed chunks normalize to full QoS: parts without the
            # columns contribute the "unconstrained" defaults.
            deadline = np.concatenate(
                [
                    a.deadline_ms
                    if a.has_qos
                    else np.full(a.num_requests, np.inf)
                    for a in arenas
                ]
            )
            priority = np.concatenate(
                [
                    a.priority
                    if a.has_qos
                    else np.zeros(a.num_requests, dtype=np.int64)
                    for a in arenas
                ]
            )
        return cls(
            JaggedBatch(features),
            np.concatenate([a.arrival_ms for a in arenas]),
            base_id=arenas[0].base_id,
            deadline_ms=deadline,
            priority=priority,
        )

    # ------------------------------------------------------------------
    # Shared-memory handoff (multi-process serving)
    # ------------------------------------------------------------------
    def to_shm(self, name: str | None = None) -> "ShmArena":
        """Pack this arena into one shared-memory segment.

        Returns the owning :class:`ShmArena`; ship its picklable
        :attr:`ShmArena.handle` across the process boundary and rebuild
        a zero-copy view with :meth:`from_shm`.  The caller owns the
        segment's lifetime (:meth:`ShmArena.unlink`).
        """
        return ShmArena.create(self, name=name)

    @classmethod
    def from_shm(cls, handle: "ShmArenaHandle") -> "ShmArena":
        """Attach to a segment created by :meth:`to_shm`.

        The returned :class:`ShmArena`'s :attr:`ShmArena.arena` exposes
        this arena's arrays as zero-copy views over the shared buffer;
        call :meth:`ShmArena.close` (after dropping the views) when done.
        """
        return ShmArena.attach(handle)


@dataclass(frozen=True)
class ShmArenaHandle:
    """Picklable description of one arena's shared-memory layout.

    The segment holds, 8-byte aligned and in order: the ``arrival_ms``
    array (float64), then — when ``has_qos`` — the ``deadline_ms``
    (float64) and ``priority`` (int64) columns, every feature's
    ``offsets`` array (int64, length ``num_requests + 1`` each), and
    finally every feature's ``values`` array (int64).  Everything
    needed to rebuild the views travels in this handle, so the buffer
    itself carries no header.
    """

    name: str
    num_requests: int
    base_id: int
    feature_lookups: tuple[int, ...]
    has_qos: bool = False

    @property
    def num_features(self) -> int:
        return len(self.feature_lookups)

    @property
    def total_bytes(self) -> int:
        per_request = 3 if self.has_qos else 1
        return 8 * (
            per_request * self.num_requests
            + self.num_features * (self.num_requests + 1)
            + sum(self.feature_lookups)
        )


class ShmArena:
    """One :class:`RequestArena` materialized in a shared-memory segment.

    Two roles, one class: the *owner* side (:meth:`create`) packs an
    arena into a fresh segment and is responsible for :meth:`unlink`;
    the *attached* side (:meth:`attach`, usually a worker process)
    rebuilds the arena as zero-copy views over the same physical pages
    and only ever :meth:`close`\\ s its mapping.  This is the handoff
    that lets the columnar fast path survive the process boundary: a
    microbatch crosses as one segment name plus layout metadata, not as
    a pickle of its arrays.
    """

    __slots__ = ("handle", "owner", "_shm", "_arena")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        handle: ShmArenaHandle,
        owner: bool,
    ):
        self._shm = shm
        self.handle = handle
        self.owner = owner
        self._arena: RequestArena | None = None

    @classmethod
    def create(cls, arena: RequestArena, name: str | None = None) -> "ShmArena":
        """Pack ``arena`` into a new segment (owner side)."""
        handle = ShmArenaHandle(
            name=(
                name
                if name is not None
                else f"{SHM_NAME_PREFIX}-{os.getpid()}-{next(_SHM_SEQ)}"
            ),
            num_requests=arena.num_requests,
            base_id=arena.base_id,
            feature_lookups=tuple(
                int(f.values.size) for f in arena.batch
            ),
            has_qos=arena.has_qos,
        )
        # A segment must be at least one byte even for an empty arena.
        shm = shared_memory.SharedMemory(
            name=handle.name, create=True, size=max(handle.total_bytes, 1)
        )
        raw = np.frombuffer(shm.buf, dtype=np.uint8)
        n = handle.num_requests
        pos = 8 * n
        raw[:pos].view(np.float64)[:] = arena.arrival_ms
        if handle.has_qos:
            raw[pos: pos + 8 * n].view(np.float64)[:] = arena.deadline_ms
            pos += 8 * n
            raw[pos: pos + 8 * n].view(np.int64)[:] = arena.priority
            pos += 8 * n
        for feature in arena.batch:
            raw[pos: pos + 8 * (n + 1)].view(np.int64)[:] = feature.offsets
            pos += 8 * (n + 1)
        for feature in arena.batch:
            end = pos + 8 * feature.values.size
            raw[pos:end].view(np.int64)[:] = feature.values
            pos = end
        del raw  # release the buffer export so close() stays possible
        return cls(shm, handle, owner=True)

    @classmethod
    def attach(cls, handle: ShmArenaHandle) -> "ShmArena":
        """Attach to an existing segment (worker side).

        Attach-side resource-tracker registration is suppressed: the
        owner's registration is the segment's single cleanup entry.
        Before Python 3.13 ``SharedMemory`` registers on attach too,
        and with duplicate-tolerant requeue (crash recovery) a late
        attach can re-register a name *after* the owner's unlink
        unregistered it — a stale tracker entry that shows up as a
        spurious "leaked shared_memory" warning at shutdown.
        """
        from multiprocessing import resource_tracker

        real_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        finally:
            resource_tracker.register = real_register
        return cls(shm, handle, owner=False)

    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def arena(self) -> RequestArena:
        """The arena as zero-copy views over the shared buffer.

        Built once per attachment; all feature arrays and ``arrival_ms``
        alias the segment's pages (no duplication), so writes through
        one process's views are visible to every other attachment.
        """
        if self._arena is None:
            handle = self.handle
            n = handle.num_requests
            raw = np.frombuffer(self._shm.buf, dtype=np.uint8)
            arrival = raw[: 8 * n].view(np.float64)
            pos = 8 * n
            deadline = priority = None
            if handle.has_qos:
                deadline = raw[pos: pos + 8 * n].view(np.float64)
                pos += 8 * n
                priority = raw[pos: pos + 8 * n].view(np.int64)
                pos += 8 * n
            offsets = []
            for _ in range(handle.num_features):
                offsets.append(raw[pos: pos + 8 * (n + 1)].view(np.int64))
                pos += 8 * (n + 1)
            features = []
            for j, lookups in enumerate(handle.feature_lookups):
                end = pos + 8 * lookups
                features.append(
                    JaggedFeature.from_validated(
                        raw[pos:end].view(np.int64), offsets[j]
                    )
                )
                pos = end
            self._arena = RequestArena(
                JaggedBatch(features),
                arrival,
                base_id=handle.base_id,
                deadline_ms=deadline,
                priority=priority,
            )
        return self._arena

    def close(self) -> None:
        """Drop this process's mapping (owner and attached sides).

        The cached arena views are released first; if the caller still
        holds live views into the buffer the unmap is deferred to
        process exit rather than raised — the segment's *lifetime* is
        governed by :meth:`unlink`, not by mappings.
        """
        self._arena = None
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner side; idempotent).

        Safe while other processes still hold mappings — POSIX keeps
        the pages alive until the last mapping drops — and after a
        prior :meth:`close` of the owner's own mapping.
        """
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
