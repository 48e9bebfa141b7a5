"""Microbatching admission for online embedding lookups.

Inference requests arrive one sample at a time, but the sharded engine
(and the real FBGEMM kernels it stands in for) only reaches hardware
efficiency on batched lookups.  The standard serving remedy — used by
TorchRec inference, Triton dynamic batching, and every production
recommender — is a microbatching queue: hold arriving requests briefly
and release them as one batch when either the batch-size cap is hit or
the oldest request has waited its latency budget.

:func:`iter_microbatch_arenas` makes those release decisions columnar,
over the arrival arrays of :class:`~repro.serving.arena.RequestArena`
chunks.  It is deterministic and clock-driven (release times come from
the arrivals), so serving simulations replay exactly; nothing here
depends on wall time or threads.  The per-request object queue it
replaced is the parity oracle in ``tests/oracles/serving.py``.
"""

from __future__ import annotations

import numpy as np

from repro.serving.arena import RequestArena


def iter_microbatch_arenas(arenas, max_batch_size: int, max_delay_ms: float):
    """Vectorized admission over arena chunks: yield released microbatches.

    The batch-formation core of the columnar serving fast path, shared
    by the in-process :meth:`~repro.serving.server.LookupServer.serve_arenas`
    loop and the multi-process front-end
    (:class:`~repro.serving.mp.MultiProcessServer`), so both runtimes
    release *identical* microbatches for a given stream — the structural
    basis of their metrics parity.

    Admission decisions depend only on arrival times, the size cap, and
    the delay budget — never on execution — so release points are
    computed directly on each chunk's arrival array: a batch starting at
    request ``i`` either fills to the cap (released at the cap-th
    arrival) or is flushed at ``arrival[i] + max_delay_ms`` by the first
    later arrival past that deadline.  An undecided tail is carried as a
    list of zero-copy slices (total size below the cap, every arrival
    before the head's deadline) and only stitched when its batch
    releases.  Release semantics are those of a FIFO queue consulted on
    every arrival (``deadline <= now`` flushes before the newcomer is
    submitted); the per-request queue in ``tests/oracles/serving.py``
    pins them bit for bit.

    Args:
        arenas: :class:`~repro.serving.arena.RequestArena` chunks in
            arrival order.
        max_batch_size: microbatch release threshold in requests.
        max_delay_ms: longest a request may wait for batchmates.

    Yields:
        ``(arena, trigger_ms)`` pairs — one zero-copy (or
        tail-stitched) :class:`~repro.serving.arena.RequestArena` per
        released microbatch, with the simulated release time.
    """
    cap = int(max_batch_size)
    delay = float(max_delay_ms)
    pending: list = []
    pending_count = 0
    for arena in arenas:
        n = arena.num_requests
        if n == 0:
            continue
        i = 0
        if pending_count:
            deadline = float(pending[0].arrival_ms[0]) + delay
            flush = int(
                np.searchsorted(arena.arrival_ms, deadline, side="left")
            )
            need = cap - pending_count
            if need <= n and need <= flush:
                i, trigger = need, float(arena.arrival_ms[need - 1])
            elif flush < n:
                i, trigger = flush, deadline
            else:
                pending.append(arena)
                pending_count += n
                continue
            parts = pending + ([arena.slice(0, i)] if i else [])
            yield RequestArena.concat(parts), trigger
            pending, pending_count = [], 0
        arrivals = arena.arrival_ms
        while i < n:
            deadline = float(arrivals[i]) + delay
            # First later arrival at/past the deadline forces a flush
            # *before* that request is admitted (queue semantics:
            # deadline <= now flushes, then the newcomer is submitted).
            flush = int(np.searchsorted(arrivals, deadline, side="left"))
            if flush <= i:
                flush = i + 1
            if i + cap <= n and i + cap <= flush:
                # Cap fills first: released at the cap-th arrival.
                end, trigger = i + cap, float(arrivals[i + cap - 1])
            elif flush < n:
                end, trigger = flush, deadline
            else:
                pending, pending_count = [arena.slice(i, n)], n - i
                break
            yield arena.slice(i, end), trigger
            i = end
    if pending_count:
        # Stream over: the tail waits out its delay budget (all of it
        # arrived before the head's deadline, so it releases as one
        # batch).
        merged = RequestArena.concat(pending)
        yield merged, float(merged.arrival_ms[0]) + delay
