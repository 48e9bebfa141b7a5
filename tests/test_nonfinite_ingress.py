"""Library constructors reject NaN and ±inf, not only negative values.

A guard written ``x <= 0`` lets NaN through (every comparison with NaN
is false), and ``x < 0`` also lets +inf through; the guards are range
tests so both fail at construction instead of poisoning a run.
"""

import pytest

from repro.core import ReplicationPolicy
from repro.engine import TierStagingModel
from repro.engine.cache import CacheModel
from repro.memory import node_from_tier_names
from repro.serving import (
    BurstyArrivals,
    PoissonArrivals,
    ServingConfig,
    parse_chaos_spec,
    parse_priority_spec,
)

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: PoissonArrivals(NAN),
        lambda: PoissonArrivals(INF),
        lambda: BurstyArrivals(burst_qps=NAN),
        lambda: BurstyArrivals(burst_qps=1e3, idle_qps=INF),
        lambda: BurstyArrivals(burst_qps=1e3, burst_ms=NAN),
        lambda: BurstyArrivals(burst_qps=1e3, idle_ms=INF),
        lambda: ServingConfig(max_delay_ms=NAN),
        lambda: ServingConfig(overhead_ms_per_batch=INF),
        lambda: ServingConfig(drift_threshold_pct=NAN),
        lambda: ServingConfig(drift_threshold_pct=-1.0),
        lambda: ServingConfig(drift_min_samples=-5),
        lambda: ReplicationPolicy(capacity_bytes=NAN),
        lambda: ReplicationPolicy(capacity_bytes=INF),
        lambda: TierStagingModel(capacity_bytes=NAN),
        lambda: TierStagingModel(capacity_bytes=(1024, INF)),
        lambda: CacheModel(capacity_bytes=INF, bandwidth=1e9),
        lambda: CacheModel(capacity_bytes=1024, bandwidth=NAN),
        lambda: parse_priority_spec("gold=nan"),
        lambda: parse_chaos_spec("fail@nan:1"),
        lambda: parse_chaos_spec("degrade@10:0xinf"),
        lambda: node_from_tier_names("hbm:inf,uvm", num_gpus=2, scale=1e-3),
    ],
    ids=[
        "poisson-qps-nan", "poisson-qps-inf", "bursty-burst-qps-nan",
        "bursty-idle-qps-inf", "bursty-burst-ms-nan", "bursty-idle-ms-inf",
        "config-max-delay-nan", "config-overhead-inf",
        "config-drift-threshold-nan", "config-drift-threshold-negative",
        "config-drift-min-samples-negative", "replication-nan",
        "replication-inf", "staging-nan", "staging-tuple-inf",
        "cache-capacity-inf", "cache-bandwidth-nan", "priority-share-nan",
        "chaos-time-nan", "chaos-slowdown-inf", "tier-gib-inf",
    ],
)
def test_rejects_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()
