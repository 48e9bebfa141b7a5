"""Shared-memory arena round trip: zero-copy views, no leaks.

The mp runtime's handoff contract: a
:class:`~repro.serving.arena.RequestArena` packed with
:meth:`~repro.serving.arena.RequestArena.to_shm` and rebuilt with
:meth:`~repro.serving.arena.RequestArena.from_shm` must come back with
the same dtypes, shapes, and values; the rebuilt arrays must be *views*
of the shared segment (one physical copy, writes visible across
attachments); and the suite must leave no orphaned ``/dev/shm``
segments behind — the owner-unlinks/worker-closes protocol the
front-end relies on.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.serving import RequestArena
from repro.serving.arena import SHM_NAME_PREFIX
from tests.oracles.serving import LookupRequest, arena_from_requests

SHM_DIR = "/dev/shm"


def shm_segments() -> set[str]:
    """Names of this module's live shared-memory segments."""
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-POSIX fallback
        return set()
    return {
        name
        for name in os.listdir(SHM_DIR)
        if name.startswith(SHM_NAME_PREFIX)
    }


@pytest.fixture(autouse=True)
def no_orphaned_segments():
    """Every test must unlink what it creates (the leak check)."""
    before = shm_segments()
    yield
    leaked = shm_segments() - before
    assert not leaked, f"orphaned shared-memory segments: {sorted(leaked)}"


def random_arena(rng: np.random.Generator) -> RequestArena:
    """A randomized arena: jagged features, NULL samples, empty edge."""
    num_requests = int(rng.integers(0, 40))
    num_features = int(rng.integers(1, 6))
    arrivals = np.cumsum(rng.uniform(0.0, 2.0, size=num_requests))
    requests = [
        LookupRequest(
            request_id=i,
            features=tuple(
                rng.integers(0, 10_000, size=int(rng.integers(0, 7)))
                for _ in range(num_features)
            ),
            arrival_ms=float(arrivals[i]),
        )
        for i in range(num_requests)
    ]
    if not requests:
        base = arena_from_requests(
            [
                LookupRequest(
                    request_id=0,
                    features=tuple(
                        np.empty(0, dtype=np.int64)
                        for _ in range(num_features)
                    ),
                )
            ]
        )
        return base.slice(0, 0)
    return arena_from_requests(requests)


def assert_same_content(ref: RequestArena, got: RequestArena):
    assert got.num_requests == ref.num_requests
    assert got.base_id == ref.base_id
    assert got.arrival_ms.dtype == np.float64
    np.testing.assert_array_equal(got.arrival_ms, ref.arrival_ms)
    assert got.batch.num_features == ref.batch.num_features
    for f_ref, f_got in zip(ref.batch, got.batch):
        assert f_got.values.dtype == np.int64
        assert f_got.offsets.dtype == np.int64
        assert f_got.values.shape == f_ref.values.shape
        assert f_got.offsets.shape == f_ref.offsets.shape
        np.testing.assert_array_equal(f_got.values, f_ref.values)
        np.testing.assert_array_equal(f_got.offsets, f_ref.offsets)


def test_round_trip_property():
    """Randomized chunks survive to_shm/from_shm bit-for-bit."""
    rng = np.random.default_rng(1234)
    for _ in range(25):
        arena = random_arena(rng)
        owner = arena.to_shm()
        try:
            attached = RequestArena.from_shm(pickle.loads(
                pickle.dumps(owner.handle)
            ))
            try:
                assert_same_content(arena, attached.arena)
            finally:
                attached.close()
        finally:
            owner.close()
            owner.unlink()


def test_views_are_zero_copy():
    """Rebuilt arrays alias the segment: one buffer, shared writes."""
    rng = np.random.default_rng(7)
    arena = random_arena(rng)
    while arena.num_requests < 2:
        arena = random_arena(rng)
    owner = arena.to_shm()
    try:
        attached = RequestArena.from_shm(owner.handle)
        try:
            mine = owner.arena
            theirs = attached.arena
            # No buffer duplication: every rebuilt array is a view.
            def assert_all_views(side):
                assert not side.arrival_ms.flags.owndata
                for feature in side.batch:
                    assert not feature.values.flags.owndata
                    assert not feature.offsets.flags.owndata

            assert_all_views(mine)
            assert_all_views(theirs)
            # Shared physical pages: a write through one attachment's
            # view is visible through the other.
            mine.arrival_ms[0] = 123456.0
            assert theirs.arrival_ms[0] == 123456.0
            if mine.batch[0].values.size:
                mine.batch[0].values[0] = 987
                assert theirs.batch[0].values[0] == 987
            # Protocol: drop views before closing the mapping.
            del mine, theirs
        finally:
            attached.close()
    finally:
        owner.close()
        owner.unlink()


def test_arena_property_is_cached_and_batch_views_slice():
    """The rebuilt arena is built once per attachment, and its
    microbatch slices stay zero-copy like any other arena's."""
    rng = np.random.default_rng(11)
    arena = random_arena(rng)
    while arena.num_requests < 4:
        arena = random_arena(rng)
    owner = arena.to_shm()
    try:
        rebuilt = owner.arena
        assert owner.arena is rebuilt
        part = rebuilt.slice(1, 3)
        assert part.num_requests == 2
        np.testing.assert_array_equal(
            part.arrival_ms, arena.arrival_ms[1:3]
        )
        assert not part.arrival_ms.flags.owndata
        del rebuilt, part  # drop views before closing the mapping
    finally:
        owner.close()
        owner.unlink()


@pytest.mark.filterwarnings(
    # Deliberately keeps views across close(): the deferred unmap
    # fires (harmlessly) at GC and pytest would flag the ignored
    # BufferError.
    "ignore::pytest.PytestUnraisableExceptionWarning"
)
def test_unlink_is_idempotent_and_close_tolerates_live_views():
    rng = np.random.default_rng(3)
    arena = random_arena(rng)
    owner = arena.to_shm()
    views = owner.arena  # keep views alive across close()
    owner.close()  # deferred unmap, not an exception
    assert views.num_requests == arena.num_requests
    owner.unlink()
    owner.unlink()  # second unlink is a no-op


def test_handle_layout_accounts_all_bytes():
    rng = np.random.default_rng(5)
    arena = random_arena(rng)
    owner = arena.to_shm()
    try:
        handle = owner.handle
        n = handle.num_requests
        expected = 8 * (
            n
            + handle.num_features * (n + 1)
            + sum(handle.feature_lookups)
        )
        assert handle.total_bytes == expected
        assert handle.feature_lookups == tuple(
            f.values.size for f in arena.batch
        )
        assert handle.name.startswith(SHM_NAME_PREFIX)
    finally:
        owner.close()
        owner.unlink()
