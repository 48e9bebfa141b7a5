"""Trace-driven sharded embedding execution engine.

Stands in for the paper's 16x A100 node plus FBGEMM kernels: replays
embedding lookup traces against a sharding plan, counts per-tier
accesses, and charges each access with the tiered bandwidth model the
paper's MILP uses (and validates on hardware).  Produces the per-GPU
per-iteration EMB times and access counts of Tables 3 and 5.
"""

from repro.engine.cache import CacheModel, TierStagingModel, fast_lane_cutoffs
from repro.engine.executor import (
    ShardedExecutor,
    least_loaded_counts,
    replay_trace,
)
from repro.engine.metrics import IterationStats, RunMetrics
from repro.engine.ranked import RankedBatch, RankedFeature, RankRemapper
from repro.engine.harness import (
    ExperimentResult,
    compare_strategies,
    run_experiment,
)

__all__ = [
    "CacheModel",
    "ExperimentResult",
    "IterationStats",
    "RankRemapper",
    "RankedBatch",
    "RankedFeature",
    "RunMetrics",
    "ShardedExecutor",
    "TierStagingModel",
    "compare_strategies",
    "fast_lane_cutoffs",
    "least_loaded_counts",
    "replay_trace",
    "run_experiment",
]
