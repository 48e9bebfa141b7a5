"""Golden digests of the seeded synthetic streams.

Every seed-pinned figure in this repo (plan fixtures, BENCH numbers,
the benchmark's ``sim_qps``) sits on top of the request generator, so
the ids it draws for a seed must not change when its implementation
does.  ``test_streams_are_deterministic_per_seed`` only checks that two
runs of the *same* code agree; these SHA-256 digests pin the actual
streams across implementations of the inverse-CDF draw.

The digests cover the raw bytes (dtype included) of a drifted,
QoS-carrying request stream, one training batch, and one direct Zipf
draw.  They depend on numpy's ``Generator`` stream and IEEE-754
float64 arithmetic, not on how the draw is computed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.data.distributions import ZipfCategorical
from repro.data.drift import DriftModel
from repro.data.model import rm2
from repro.data.synthetic import TraceGenerator
from repro.memory import paper_scales
from repro.serving import synthetic_request_arenas

_, ROW_SCALE = paper_scales(13, 2)

ARENA_STREAM_SHA256 = (
    "1bb7faf05cf3634bb3e39822f40af459bed1d5819382808ff86bccb88b162f7e"
)
TRACE_BATCH_SHA256 = (
    "28833893dcc0234fb38179c4d959079495995bb0e81a78ec9b0967e2a22f3032"
)
ZIPF_SAMPLE_SHA256 = (
    "ab3091c1347ac9b81f15ed3589d4a8255321d1ae6ec336b7d853d4565d52fe30"
)


def model():
    return rm2(num_features=13, row_scale=ROW_SCALE)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_drifted_qos_arena_stream_digest():
    arenas = synthetic_request_arenas(
        model(), 1500, 20000.0, seed=11,
        drift=DriftModel(feature_noise=6.0, alpha_noise=4.0),
        months_per_request=0.02, chunk_size=256,
        deadline_ms=8.0, priority_shares=(0.2, 0.3, 0.5),
    )
    arrays = []
    for arena in arenas:
        for feature in arena.batch:
            arrays += [feature.values, feature.offsets]
        arrays += [arena.arrival_ms, arena.deadline_ms, arena.priority]
    assert digest(arrays) == ARENA_STREAM_SHA256


def test_trace_generator_batch_digest():
    batch = TraceGenerator(model(), batch_size=512, seed=3).next_batch()
    arrays = []
    for feature in batch:
        arrays += [feature.values, feature.offsets]
    assert digest(arrays) == TRACE_BATCH_SHA256


def test_zipf_sample_digest():
    ranks = ZipfCategorical(500, 1.0).sample(20_000, np.random.default_rng(0))
    assert digest([ranks]) == ZIPF_SAMPLE_SHA256
