"""Degraded-mode execution: masked replica routing, drops, slowdowns.

When a device fails mid-run the executor (a) drops its home-lane
lookups — counted in ``last_dropped``, never silently lost — and (b)
reroutes replicated lookups by masking the dead device out of the
least-loaded lane.  The masked closed-form route (compact the load
vector to survivors, closed-form assign, scatter back) must stay
bit-identical to the scalar per-lookup argmin over survivors, for any
fail set, on 2- and 3-tier worlds.  Degradation multiplies a device's
service times without touching routing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import TraceGenerator
from repro.engine import ShardedExecutor, least_loaded_counts
from tests.oracles.engine import ScalarExecutor
from tests.test_engine.test_replication_exec import build_world


# ----------------------------------------------------------------------
# Masked least-loaded routing: compaction + scatter vs greedy survivors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_masked_least_loaded_matches_greedy_over_survivors(seed):
    """The compact-assign-scatter identity under arbitrary masks: ties
    still resolve to the lowest surviving device id because compaction
    preserves ascending device order."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        devices = int(rng.integers(2, 10))
        alive = np.zeros(devices, dtype=bool)
        alive[rng.choice(devices, int(rng.integers(1, devices + 1)), False)] = (
            True
        )
        load = rng.integers(0, 2000, size=devices).astype(np.int64)
        n = int(rng.integers(0, 60))
        w = int(rng.integers(1, 50))
        alive_idx = np.flatnonzero(alive)
        masked = np.zeros(devices, dtype=np.int64)
        masked[alive_idx] = least_loaded_counts(load[alive_idx], n, w)
        reference = np.zeros(devices, dtype=np.int64)
        running = load.copy()
        for _ in range(n):
            device = int(alive_idx[np.argmin(running[alive_idx])])
            reference[device] += 1
            running[device] += w
        np.testing.assert_array_equal(masked, reference)
        assert masked[~alive].sum() == 0 and masked.sum() == n


# ----------------------------------------------------------------------
# Executor parity under random fail sets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tiers", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_masked_routing_parity_random_fail_sets(tiers, seed):
    """Vectorized vs scalar bit parity batch by batch while the fail
    set changes between batches; conservation with drops counted."""
    model, profile, topology, plan = build_world(seed, tiers=tiers)
    rng = np.random.default_rng(seed + 100)
    vectorized = ShardedExecutor(model, plan, profile, topology)
    scalar = ScalarExecutor(model, plan, profile, topology)
    rerouted = 0
    for batch in TraceGenerator(model, 64, seed=seed + 7).batches(6):
        num_dead = int(rng.integers(0, topology.num_devices))  # never all
        dead = rng.choice(topology.num_devices, size=num_dead, replace=False)
        for executor in (vectorized, scalar):
            executor._device_alive[:] = True
            for device in dead:
                executor.fail_device(int(device))
        tv, av, hv, rv = vectorized.run_batch(batch)
        ts, as_, hs, rs = scalar.run_batch(batch)
        np.testing.assert_array_equal(tv, ts)
        np.testing.assert_array_equal(av, as_)
        np.testing.assert_array_equal(hv, hs)
        np.testing.assert_array_equal(rv, rs)
        np.testing.assert_array_equal(
            vectorized.last_dropped, scalar.last_dropped
        )
        # Dead devices serve nothing; drops close the books exactly.
        if num_dead:
            assert av[:, dead].sum() == 0
            assert rv[dead].sum() == 0
        assert av.sum() + vectorized.last_dropped.sum() == batch.total_lookups
        rerouted += rv.sum()
    np.testing.assert_array_equal(
        vectorized._replica_load, scalar._replica_load
    )
    assert rerouted > 0


def test_single_survivor_takes_all_replicated_traffic():
    model, profile, topology, plan = build_world(1, tiers=2)
    executor = ShardedExecutor(model, plan, profile, topology)
    survivor = 2
    for device in range(topology.num_devices):
        if device != survivor:
            executor.fail_device(device)
    batch = next(iter(TraceGenerator(model, 64, seed=3).batches(1)))
    _, accesses, _, replicas = executor.run_batch(batch)
    assert replicas.sum() > 0
    assert replicas[survivor] == replicas.sum()
    assert accesses.sum() + executor.last_dropped.sum() == batch.total_lookups


def test_all_devices_dead_drops_everything():
    model, profile, topology, plan = build_world(2, tiers=2)
    executor = ShardedExecutor(model, plan, profile, topology)
    for device in range(topology.num_devices):
        executor.fail_device(device)
    batch = next(iter(TraceGenerator(model, 64, seed=4).batches(1)))
    _, accesses, _, replicas = executor.run_batch(batch)
    assert accesses.sum() == 0 and replicas.sum() == 0
    assert executor.last_dropped.sum() == batch.total_lookups


# ----------------------------------------------------------------------
# Degrade and recover
# ----------------------------------------------------------------------
def test_degrade_scales_service_time_only_on_target():
    model, profile, topology, plan = build_world(3, tiers=3)
    healthy = ShardedExecutor(model, plan, profile, topology)
    slow = ShardedExecutor(model, plan, profile, topology)
    slow.degrade_device(1, 4.0)
    batch = next(iter(TraceGenerator(model, 64, seed=5).batches(1)))
    t_healthy, a_healthy, _, _ = healthy.run_batch(batch)
    t_slow, a_slow, _, _ = slow.run_batch(batch)
    np.testing.assert_array_equal(a_healthy, a_slow)  # routing untouched
    np.testing.assert_allclose(t_slow[1], 4.0 * t_healthy[1])
    mask = np.arange(topology.num_devices) != 1
    np.testing.assert_array_equal(t_slow[mask], t_healthy[mask])
    assert slow.last_dropped.sum() == 0  # degraded, not failed


def test_recover_and_clear_restore_healthy_state():
    model, profile, topology, plan = build_world(4, tiers=2)
    executor = ShardedExecutor(model, plan, profile, topology)
    executor.fail_device(0)
    executor.degrade_device(1, 2.0)
    assert executor.has_faults and executor.dead_devices == (0,)
    executor.recover_device(0)
    executor.recover_device(1)
    assert not executor.has_faults and executor.dead_devices == ()
    executor.fail_device(2)
    executor.clear_faults()
    assert not executor.has_faults
    # Post-recovery batches match a never-faulted executor bit for bit
    # (routing counters were never perturbed by the fail/recover pair).
    fresh = ShardedExecutor(model, plan, profile, topology)
    batch = next(iter(TraceGenerator(model, 64, seed=6).batches(1)))
    for left, right in zip(executor.run_batch(batch), fresh.run_batch(batch)):
        np.testing.assert_array_equal(left, right)


def test_fault_api_validation():
    model, profile, topology, plan = build_world(5, tiers=2)
    executor = ShardedExecutor(model, plan, profile, topology)
    with pytest.raises(ValueError, match="out of range"):
        executor.fail_device(topology.num_devices)
    with pytest.raises(ValueError, match="slowdown must be > 0"):
        executor.degrade_device(0, 0.0)
    executor.fail_device(0)
    with pytest.raises(ValueError, match="failed, not degradable"):
        executor.degrade_device(0, 2.0)
