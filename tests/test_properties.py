"""Cross-module property-based tests on randomized worlds.

These use hypothesis to generate random models, statistics, and
topologies, asserting the system-level invariants from DESIGN.md §6.
"""

import inspect

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import make_baseline
from repro.core import RecShardFastSharder
from repro.core.evaluate import expected_device_costs_ms
from repro.core.plan import PlanError
from repro.data.feature import SparseFeatureSpec
from repro.data.model import EmbeddingTableSpec, ModelSpec
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile

BATCH = 64


@st.composite
def random_world(draw):
    """A random (model, topology) pair that is always feasible."""
    num_tables = draw(st.integers(min_value=1, max_value=8))
    rng_seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(rng_seed)
    tables = []
    for i in range(num_tables):
        hash_size = int(rng.integers(8, 600))
        tables.append(
            EmbeddingTableSpec(
                feature=SparseFeatureSpec(
                    name=f"t{i}",
                    cardinality=max(1, hash_size * 2),
                    hash_size=hash_size,
                    alpha=float(rng.uniform(0, 1.8)),
                    avg_pooling=float(rng.uniform(1, 20)),
                    coverage=float(rng.uniform(0.0, 1.0)),
                    hash_seed=i,
                ),
                dim=4,
            )
        )
    model = ModelSpec(name="rand", tables=tuple(tables))
    num_devices = draw(st.integers(min_value=1, max_value=4))
    hbm_fraction = draw(st.floats(min_value=0.05, max_value=1.2))
    total = model.total_bytes
    # Host large enough that any whole table always fits somewhere.
    topology = SystemTopology.two_tier(
        num_devices=num_devices,
        hbm_capacity=int(total * hbm_fraction / num_devices) + 64,
        hbm_bandwidth=100e9,
        uvm_capacity=total + 1024,
        uvm_bandwidth=5e9,
    )
    return model, topology


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world=random_world())
def test_fast_sharder_always_feasible(world):
    model, topology = world
    profile = analytic_profile(model)
    plan = RecShardFastSharder(batch_size=BATCH, steps=20).shard(
        model, profile, topology
    )
    plan.validate(model, topology)
    # Device costs are non-negative and finite.
    costs = expected_device_costs_ms(plan, model, profile, topology, BATCH)
    assert np.all(np.isfinite(costs))
    assert np.all(costs >= 0)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world=random_world())
def test_greedy_baseline_always_feasible_or_explicit(world):
    model, topology = world
    profile = analytic_profile(model)
    sharder = make_baseline("Size-Based")
    try:
        plan = sharder.shard(model, profile, topology)
    except PlanError:
        # Acceptable only when some whole table exceeds every host slice.
        biggest = max(t.total_bytes for t in model.tables)
        assert biggest > topology.uvm.capacity_bytes
        return
    plan.validate(model, topology)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world=random_world())
def test_recshard_never_worse_than_all_uvm(world):
    """Any RecShard plan beats the degenerate everything-in-UVM plan."""
    from repro.core.plan import ShardingPlan, TablePlacement

    model, topology = world
    profile = analytic_profile(model)
    plan = RecShardFastSharder(batch_size=BATCH, steps=20).shard(
        model, profile, topology
    )
    all_uvm = ShardingPlan(
        strategy="all-uvm",
        placements=[
            TablePlacement(j, j % topology.num_devices, (0, t.num_rows))
            for j, t in enumerate(model.tables)
        ],
    )
    cost_plan = expected_device_costs_ms(plan, model, profile, topology, BATCH)
    cost_uvm = expected_device_costs_ms(all_uvm, model, profile, topology, BATCH)
    assert cost_plan.sum() <= cost_uvm.sum() + 1e-9


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(world=random_world(), seed=st.integers(min_value=0, max_value=100))
def test_executor_conservation_random(world, seed):
    """HBM + UVM accesses always equal the trace's total lookups."""
    from repro.data.synthetic import TraceGenerator
    from repro.engine import ShardedExecutor

    model, topology = world
    profile = analytic_profile(model)
    plan = RecShardFastSharder(batch_size=BATCH, steps=20).shard(
        model, profile, topology
    )
    executor = ShardedExecutor(model, plan, profile, topology)
    batch = TraceGenerator(model, batch_size=BATCH, seed=seed).next_batch()
    _, accesses, _, _ = executor.run_batch(batch)
    assert accesses.sum() == batch.total_lookups


def _public_callables(obj):
    """``obj`` and, for a class, its public methods and constructor."""
    yield obj
    if inspect.isclass(obj):
        for name, member in inspect.getmembers(obj, callable):
            if name == "__init__" or not name.startswith("_"):
                yield member


def test_public_api_exports_importable():
    import repro
    import repro.core
    import repro.engine
    import repro.serving

    for name in repro.__all__:
        assert getattr(repro, name) is not None

    # One shipped path per layer: no public entry point selects a
    # scalar/vectorized engine, and the per-request object admission
    # API is gone (its reference lives in tests.oracles).
    for module in (repro, repro.core, repro.engine, repro.serving):
        for name in module.__all__:
            for fn in _public_callables(getattr(module, name)):
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue  # builtins without a signature
                assert "vectorized" not in params, f"{module.__name__}.{name}"
        for removed in ("LookupRequest", "MicroBatchQueue", "coalesce_requests"):
            assert removed not in module.__all__
            assert not hasattr(module, removed)
