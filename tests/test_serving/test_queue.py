"""Tests for microbatching admission.

The shipped columnar admission (:func:`iter_microbatch_arenas`) is
pinned against the per-request queue oracle in ``tests.oracles``; the
oracle's own queue and coalescing behaviour is tested here too.
"""

import numpy as np
import pytest

from repro.serving import iter_microbatch_arenas
from tests.oracles.serving import (
    LookupRequest,
    MicroBatchQueue,
    arena_from_requests,
    coalesce_requests,
)


def make_request(request_id, arrival_ms=0.0, lengths=(2, 0, 3)):
    features = tuple(
        np.arange(request_id, request_id + n, dtype=np.int64) for n in lengths
    )
    return LookupRequest(
        request_id=request_id, features=features, arrival_ms=arrival_ms
    )


class TestMicroBatchQueue:
    def test_releases_at_size_threshold(self):
        queue = MicroBatchQueue(max_batch_size=3, max_delay_ms=100.0)
        for i in range(2):
            queue.submit(make_request(i, arrival_ms=float(i)))
            assert not queue.ready(now_ms=float(i))
        queue.submit(make_request(2, arrival_ms=2.0))
        assert queue.ready(now_ms=2.0)
        batch = queue.pop_batch()
        assert [r.request_id for r in batch] == [0, 1, 2]
        assert len(queue) == 0

    def test_releases_at_deadline(self):
        queue = MicroBatchQueue(max_batch_size=100, max_delay_ms=5.0)
        queue.submit(make_request(0, arrival_ms=10.0))
        assert queue.deadline_ms() == pytest.approx(15.0)
        assert not queue.ready(now_ms=14.9)
        assert queue.ready(now_ms=15.0)

    def test_pop_caps_at_max_batch_size(self):
        queue = MicroBatchQueue(max_batch_size=2, max_delay_ms=1.0)
        for i in range(5):
            queue.submit(make_request(i, arrival_ms=0.0))
        first = queue.pop_batch()
        assert [r.request_id for r in first] == [0, 1]
        assert len(queue) == 3

    def test_fifo_order_preserved(self):
        queue = MicroBatchQueue(max_batch_size=4, max_delay_ms=1.0)
        for i in range(4):
            queue.submit(make_request(i, arrival_ms=float(i) / 10))
        batch = queue.pop_batch()
        assert [r.request_id for r in batch] == [0, 1, 2, 3]

    def test_out_of_order_arrivals_rejected(self):
        queue = MicroBatchQueue(max_batch_size=4, max_delay_ms=1.0)
        queue.submit(make_request(0, arrival_ms=5.0))
        with pytest.raises(ValueError):
            queue.submit(make_request(1, arrival_ms=4.0))

    def test_empty_queue_guards(self):
        queue = MicroBatchQueue(max_batch_size=2, max_delay_ms=1.0)
        assert not queue.ready(now_ms=1e9)
        assert queue.deadline_ms() == float("inf")
        with pytest.raises(ValueError):
            queue.pop_batch()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MicroBatchQueue(max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatchQueue(max_delay_ms=-1.0)


class TestCoalesce:
    def test_coalesce_builds_jagged_batch(self):
        requests = [
            make_request(0, lengths=(2, 0, 1)),
            make_request(10, lengths=(0, 3, 1)),
        ]
        batch = coalesce_requests(requests)
        assert batch.batch_size == 2
        assert batch.num_features == 3
        # Feature 0: request 0 contributed 2 lookups, request 1 none.
        assert batch[0].lengths.tolist() == [2, 0]
        assert batch[1].lengths.tolist() == [0, 3]
        # Sample slicing recovers each request's original indices.
        np.testing.assert_array_equal(
            batch[0].sample(0), requests[0].features[0]
        )
        np.testing.assert_array_equal(
            batch[1].sample(1), requests[1].features[1]
        )

    def test_coalesce_total_lookups(self):
        requests = [make_request(i, lengths=(1, 2, 3)) for i in range(4)]
        batch = coalesce_requests(requests)
        assert batch.total_lookups == sum(r.total_lookups for r in requests)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            coalesce_requests([])

    def test_feature_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coalesce_requests(
                [make_request(0, lengths=(1, 1)), make_request(1, lengths=(1,))]
            )


def arena_of(arrivals):
    return arena_from_requests(
        [make_request(i, arrival_ms=t) for i, t in enumerate(arrivals)]
    )


def released(arenas, cap, delay):
    return [
        (batch.arrival_ms.tolist(), trigger)
        for batch, trigger in iter_microbatch_arenas(arenas, cap, delay)
    ]


class TestDeadlineFlushEdges:
    """max-delay edge cases, pinned identically on both admission paths."""

    def test_zero_max_delay_queue_flushes_each_request(self):
        # With no delay budget the head's deadline is its own arrival:
        # the serve loop checks ready() before each submit, so every
        # request releases as a singleton batch.
        queue = MicroBatchQueue(max_batch_size=100, max_delay_ms=0.0)
        for i, t in enumerate([1.0, 1.0, 2.5]):
            queue.submit(make_request(i, arrival_ms=t))
            assert queue.ready(now_ms=t)
            assert [r.request_id for r in queue.pop_batch()] == [i]

    def test_zero_max_delay_arenas_flush_each_request(self):
        got = released([arena_of([1.0, 1.0, 2.5])], cap=100, delay=0.0)
        assert got == [([1.0], 1.0), ([1.0], 1.0), ([2.5], 2.5)]

    def test_arrival_exactly_at_flush_boundary_is_excluded(self):
        # deadline <= now flushes *before* the boundary arrival is
        # admitted: the request landing exactly at head+delay starts
        # the next batch on both paths.
        arrivals = [0.0, 0.5, 1.0, 1.0, 1.2]
        queue = MicroBatchQueue(max_batch_size=100, max_delay_ms=1.0)
        batches = []
        for i, t in enumerate(arrivals):
            if queue.ready(now_ms=t):
                batches.append([r.arrival_ms for r in queue.pop_batch()])
            queue.submit(make_request(i, arrival_ms=t))
        batches.append([r.arrival_ms for r in queue.pop_batch()])
        assert batches == [[0.0, 0.5], [1.0, 1.0, 1.2]]
        got = released([arena_of(arrivals)], cap=100, delay=1.0)
        assert got == [([0.0, 0.5], 1.0), ([1.0, 1.0, 1.2], 2.0)]

    def test_simultaneous_arrivals_release_with_head(self):
        # Arrivals tied with the head (strictly before head+delay) ride
        # in the head's batch; searchsorted side="left" keeps only the
        # boundary ones out.
        got = released([arena_of([0.0, 0.0, 0.0, 0.7])], cap=100, delay=1.0)
        assert got == [([0.0, 0.0, 0.0, 0.7], 1.0)]

    def test_single_request_arenas_match_one_big_arena(self):
        arrivals = [0.0, 0.2, 0.9, 1.05, 3.0, 3.05]
        singles = [arena_of([t]) for t in arrivals]
        merged = [arena_of(arrivals)]
        for cap in (1, 2, 100):
            assert released(singles, cap, 1.0) == released(merged, cap, 1.0)

    def test_cap_one_releases_singletons_at_own_arrival(self):
        got = released([arena_of([0.0, 0.4, 0.8])], cap=1, delay=5.0)
        assert got == [([0.0], 0.0), ([0.4], 0.4), ([0.8], 0.8)]

    def test_tail_waits_out_delay_budget(self):
        got = released([arena_of([0.0, 0.1])], cap=100, delay=2.0)
        assert got == [([0.0, 0.1], 2.0)]

    def test_empty_arenas_are_skipped(self):
        arenas = [arena_of([0.0]), arena_of([0.5]).slice(0, 0)]
        assert released(arenas, cap=100, delay=1.0) == [([0.0], 1.0)]
