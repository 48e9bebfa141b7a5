"""repro: a reproduction of RecShard (ASPLOS 2022).

RecShard is a statistical, feature-based embedding-table sharder for
deep learning recommendation models: it profiles per-feature training
statistics (value-frequency CDF, pooling factor, coverage), then solves
a MILP placing every table - and every row block within a table -
across a tiered HBM/UVM memory hierarchy to minimize the slowest GPU's
embedding cost.

Quickstart::

    from repro import (
        rm1, paper_node, analytic_profile, RecShardSharder, run_experiment,
    )

    model = rm1()
    topology = paper_node(num_gpus=16)
    profile = analytic_profile(model)
    sharder = RecShardSharder(batch_size=4096)
    result = run_experiment(model, sharder, topology, batch_size=4096)
    print(result.table3_row())
"""

from repro.baselines import GreedySharder, make_baseline
from repro.core import (
    MultiTierSharder,
    PlanError,
    PlannerWorkspace,
    RecShardFastSharder,
    RecShardSharder,
    RemappingLayer,
    RemappingTable,
    ShardingPlan,
    TablePlacement,
    expected_device_costs_ms,
    expected_device_costs_ms_many,
    expected_max_cost_ms,
    shard_sweep,
)
from repro.data import (
    DriftModel,
    EmbeddingTableSpec,
    JaggedBatch,
    ModelSpec,
    SparseFeatureSpec,
    TraceGenerator,
    rm1,
    rm2,
    rm3,
)
from repro.engine import (
    CacheModel,
    RankRemapper,
    ShardedExecutor,
    compare_strategies,
    replay_trace,
    run_experiment,
)
from repro.engine.harness import build_profile, speedup_table
from repro.memory import SystemTopology, paper_node, three_tier_node
from repro.serving import (
    LookupServer,
    RequestArena,
    ServingConfig,
    ServingMetrics,
    synthetic_request_arenas,
)
from repro.stats import (
    FrequencyCDF,
    ModelProfile,
    TraceProfiler,
    analytic_profile,
    profile_trace,
)

__version__ = "1.0.0"

__all__ = [
    "CacheModel",
    "DriftModel",
    "EmbeddingTableSpec",
    "FrequencyCDF",
    "GreedySharder",
    "JaggedBatch",
    "LookupServer",
    "ModelProfile",
    "ModelSpec",
    "MultiTierSharder",
    "PlanError",
    "PlannerWorkspace",
    "RankRemapper",
    "RecShardFastSharder",
    "RecShardSharder",
    "RemappingLayer",
    "RequestArena",
    "RemappingTable",
    "ServingConfig",
    "ServingMetrics",
    "ShardedExecutor",
    "ShardingPlan",
    "SparseFeatureSpec",
    "SystemTopology",
    "TablePlacement",
    "TraceGenerator",
    "TraceProfiler",
    "analytic_profile",
    "build_profile",
    "compare_strategies",
    "expected_device_costs_ms",
    "expected_device_costs_ms_many",
    "expected_max_cost_ms",
    "make_baseline",
    "paper_node",
    "profile_trace",
    "replay_trace",
    "rm1",
    "rm2",
    "rm3",
    "run_experiment",
    "shard_sweep",
    "speedup_table",
    "synthetic_request_arenas",
    "three_tier_node",
]
