"""Serving parity for strategy plans (column / twrw / table-wise).

The multi-process seam ships each batch's per-segment lookup counts
(twrw shard ranges are segment edges like the tier bounds) from the
workers to the front-end aggregator.  These tests pin that a
:class:`MultiProcessServer` run over a mixed strategy plan merges to
the single-process :meth:`serve_arenas` metrics bit for bit, and that a
fixed plan with ``table_strategies`` serves through the spine server at
all, brownout included.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    RecShardFastSharder,
    TablePlacement,
    TableStrategy,
)
from repro.core.plan import ShardingPlan
from repro.memory.topology import SystemTopology
from repro.serving import (
    LookupServer,
    MultiProcessServer,
    OverloadControl,
    ServingConfig,
    synthetic_request_arenas,
)
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model

CONFIG = ServingConfig(max_batch_size=128, max_delay_ms=2.0)
REQUESTS = 400


@pytest.fixture(scope="module")
def strategy_serving_world():
    model = build_model(num_tables=8, rows=512, dim=16, seed=3)
    profile = analytic_profile(model)
    total = model.total_bytes
    topology = SystemTopology.two_tier(
        num_devices=4,
        hbm_capacity=total,
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )
    plan = RecShardFastSharder(batch_size=128, steps=40).shard(
        model, profile, topology
    )
    strategies = [TableStrategy("row") for _ in range(len(plan))]
    t0 = model.tables[0]
    strategies[0] = TableStrategy(
        "column", devices=(0, 1), dims=(t0.dim // 2, t0.dim - t0.dim // 2)
    )
    t1 = model.tables[1]
    third = t1.num_rows // 3
    strategies[1] = TableStrategy(
        "twrw", devices=(0, 1, 2), row_cuts=(third, 2 * third)
    )
    strategies[2] = TableStrategy("table")
    placements = list(plan)
    p2 = placements[2]
    rows = [0] * len(p2.rows_per_tier)
    rows[0] = p2.total_rows
    placements[2] = TablePlacement(
        table_index=p2.table_index,
        device=(p2.device + 1) % topology.num_devices,
        rows_per_tier=tuple(rows),
    )
    sp = ShardingPlan(
        placements=tuple(placements),
        strategy=plan.strategy,
        metadata=dict(plan.metadata),
        table_strategies=tuple(strategies),
    )
    sp.validate(model, topology)
    arenas = list(
        synthetic_request_arenas(model, REQUESTS, qps=1e8, seed=23)
    )
    return model, profile, topology, sp, arenas


def test_strategy_plan_serves(strategy_serving_world):
    model, profile, topology, sp, arenas = strategy_serving_world
    server = LookupServer(
        model, profile, topology, plan=sp, config=CONFIG
    )
    metrics = server.serve_arenas(arenas)
    assert metrics.num_requests == REQUESTS
    assert metrics.tier_access_totals.sum() > 0


def test_brownout_stream_on_twrw_plan_conserves(strategy_serving_world):
    # Regression: brownout on a plan holding a twrw table raised from
    # set_brownout after one batch and crashed the stream.
    model, profile, topology, sp, _ = strategy_serving_world
    placements = list(sp.placements)
    hot = model.tables[1].num_rows // 6
    placements[1] = dataclasses.replace(
        placements[1], rows_per_tier=(hot, model.tables[1].num_rows - hot)
    )
    cold = dataclasses.replace(sp, placements=placements)
    server = LookupServer(
        model, profile, topology, plan=cold, config=CONFIG,
        overload=OverloadControl(slo_ms=1e-6, brownout=True),
    )
    metrics = server.serve_arenas(
        synthetic_request_arenas(model, 2000, qps=1e6, seed=23)
    )
    assert metrics.brownout_windows
    assert metrics.browned_out_lookups > 0
    assert metrics.offered_requests == 2000
    assert metrics.num_requests + metrics.shed_requests == 2000


@pytest.mark.parametrize("workers", [1, 3])
def test_mp_matches_single_process_on_strategy_plan(
    strategy_serving_world, workers
):
    model, profile, topology, sp, arenas = strategy_serving_world
    single = LookupServer(
        model, profile, topology, plan=sp, config=CONFIG
    )
    ref = single.serve_arenas(arenas)
    with MultiProcessServer(
        model, profile, topology, plan=sp, config=CONFIG, workers=workers,
    ) as pool:
        got = pool.serve_arenas(arenas)
    assert ref.summary(deterministic_only=True) == got.summary(
        deterministic_only=True
    )
    assert ref.num_batches == got.num_batches
    np.testing.assert_array_equal(ref.latencies_ms(), got.latencies_ms())
    np.testing.assert_array_equal(ref.device_busy_ms, got.device_busy_ms)
    np.testing.assert_array_equal(
        ref.tier_access_totals, got.tier_access_totals
    )
    for a, b in zip(ref.tier_access_chunks, got.tier_access_chunks):
        np.testing.assert_array_equal(a, b)
