"""Shared fixtures for core-package tests: a small, fully-controlled world."""

import numpy as np
import pytest

from repro.data.feature import SparseFeatureSpec
from repro.data.model import EmbeddingTableSpec, ModelSpec
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile


def build_model(num_tables=6, rows=512, dim=8, seed=0):
    """A small model with heterogeneous statistics."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(num_tables):
        hash_size = int(rows * rng.uniform(0.5, 2.0))
        tables.append(
            EmbeddingTableSpec(
                feature=SparseFeatureSpec(
                    name=f"t{i}",
                    cardinality=hash_size * 2,
                    hash_size=hash_size,
                    alpha=float(rng.uniform(0.8, 1.5)),
                    avg_pooling=float(rng.uniform(2, 30)),
                    coverage=float(rng.uniform(0.2, 1.0)),
                    hash_seed=i,
                ),
                dim=dim,
            )
        )
    return ModelSpec(name="small", tables=tuple(tables))


@pytest.fixture
def small_model():
    return build_model()


@pytest.fixture
def small_profile(small_model):
    return analytic_profile(small_model)


@pytest.fixture
def tight_topology(small_model):
    """Two-tier topology where only ~45% of the model fits in HBM."""
    total = small_model.total_bytes
    return SystemTopology.two_tier(
        num_devices=2,
        hbm_capacity=int(total * 0.45 / 2),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


@pytest.fixture
def roomy_topology(small_model):
    """Two-tier topology where everything fits in HBM."""
    total = small_model.total_bytes
    return SystemTopology.two_tier(
        num_devices=2,
        hbm_capacity=total,
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


@pytest.fixture
def topo3(small_model):
    """Three tiers: ~20% of the model in HBM, ~40% in UVM, SSD behind."""
    total = small_model.total_bytes
    return SystemTopology(
        num_devices=2,
        tiers=(
            MemoryTier("hbm", int(total * 0.2 / 2), 200e9),
            MemoryTier("uvm", int(total * 0.4 / 2), 10e9),
            MemoryTier("ssd", total, 1e9),
        ),
    )
