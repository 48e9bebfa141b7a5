"""The traced benchmark run finds every library call it wraps.

``recbench/spans.py`` installs its span wrappers by name: each
``(module, attribute path)`` in ``HOOKS``, and ``iter_microbatch_arenas``
in each ``QUEUE_MODULES`` entry.  A renamed or moved function breaks
the traced run; these checks catch it in the default test run.  The
engine spans also read the wrapped calls' arguments (the reduce span's
work is its first argument summed), so one traced batch pins that
contract, and the classify/reduce seam the spans time.
"""

import importlib

import numpy as np
import pytest

from recbench.spans import HOOKS, QUEUE_MODULES, Tracer, installed
from repro.core import RecShardFastSharder
from repro.data.synthetic import TraceGenerator
from repro.engine import ShardedExecutor
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model


@pytest.mark.parametrize(
    "module_name,path",
    [(module_name, path) for module_name, path, _, _ in HOOKS],
    ids=[path for _, path, _, _ in HOOKS],
)
def test_hook_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    # The tracer replaces the owner's own attribute, so an inherited
    # one would not do.
    assert callable(owner.__dict__.get(attr)), f"{module_name}.{path}"


@pytest.mark.parametrize("module_name", QUEUE_MODULES)
def test_queue_module_names_microbatch_generator(module_name):
    module = importlib.import_module(module_name)
    assert callable(module.__dict__.get("iter_microbatch_arenas"))


@pytest.fixture(scope="module")
def executor_and_batch():
    model = build_model(num_tables=6, seed=4)
    profile = analytic_profile(model)
    topology = SystemTopology.two_tier(
        num_devices=2,
        hbm_capacity=model.total_bytes // 4,
        hbm_bandwidth=200e9,
        uvm_capacity=model.total_bytes,
        uvm_bandwidth=10e9,
    )
    plan = RecShardFastSharder(batch_size=64, steps=20).shard(
        model, profile, topology
    )
    executor = ShardedExecutor(model, plan, profile, topology)
    return executor, TraceGenerator(model, batch_size=64, seed=3).next_batch()


def test_reduce_span_counts_the_batch_lookups(executor_and_batch):
    """The ``engine.reduce`` span's work is the first positional argument
    of ``_reduce_counts`` summed: the batch's lookups."""
    executor, batch = executor_and_batch
    tracer = Tracer()
    with installed(tracer):
        executor.run_batch(batch)
    work = {span[1]: span[6] for span in tracer.spans}
    assert work["engine.reduce"] == batch.total_lookups
    assert work["engine.run_batch"] == batch.total_lookups
    assert "engine.classify" in work


def test_classify_then_reduce_is_run_batch(executor_and_batch):
    executor, batch = executor_and_batch
    counts = executor.classify_batch(batch)
    assert counts.ndim == 1 and counts.sum() == batch.total_lookups
    for got, want in zip(
        executor.reduce_classified(counts), executor.run_batch(batch)
    ):
        np.testing.assert_array_equal(got, want)
