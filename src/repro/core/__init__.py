"""RecShard core: fine-grained EMB partitioning and placement.

The paper's primary contribution (Section 4): given per-table statistics
(frequency CDF, average pooling factor, coverage) and a tiered memory
topology, solve a MILP that simultaneously picks per-table HBM/UVM row
splits and table-to-GPU assignments minimizing the maximum per-GPU
embedding cost, then remap hashed indices so hot rows are contiguous.
"""

from repro.core.plan import (
    STRATEGY_KINDS,
    PlanError,
    ShardingPlan,
    TablePlacement,
    TableStrategy,
    crossing_cells,
)
from repro.core.remap import RemappingLayer, RemappingTable
from repro.core.formulation import build_milp
from repro.core.replicate import (
    ReplicationPolicy,
    build_replication,
    carve_replica_budget,
    plan_with_replication,
)
from repro.core.quantize import (
    dequantize_rows,
    expected_rel_error,
    measured_rel_error,
    quantize_by_tiers,
    quantize_dequantize,
    quantize_rows,
)
from repro.core.workspace import (
    PlannerWorkspace,
    shard_sweep,
    validate_scale_grid,
)
from repro.core.evaluate import (
    expected_device_costs_ms,
    expected_device_costs_ms_many,
    expected_max_cost_ms,
    stamp_estimated_costs,
)
from repro.core.strategies import (
    plan_with_strategies,
    proportional_split,
    resolve_strategy_kinds,
)
from repro.core.recshard import RecShardSharder
from repro.core.fast import RecShardFastSharder
from repro.core.multitier import MultiTierSharder

__all__ = [
    "MultiTierSharder",
    "PlanError",
    "PlannerWorkspace",
    "RecShardFastSharder",
    "RecShardSharder",
    "RemappingLayer",
    "RemappingTable",
    "ReplicationPolicy",
    "STRATEGY_KINDS",
    "ShardingPlan",
    "TablePlacement",
    "TableStrategy",
    "build_milp",
    "build_replication",
    "carve_replica_budget",
    "crossing_cells",
    "dequantize_rows",
    "expected_device_costs_ms",
    "expected_device_costs_ms_many",
    "expected_max_cost_ms",
    "expected_rel_error",
    "measured_rel_error",
    "plan_with_replication",
    "plan_with_strategies",
    "proportional_split",
    "quantize_by_tiers",
    "quantize_dequantize",
    "quantize_rows",
    "resolve_strategy_kinds",
    "shard_sweep",
    "stamp_estimated_costs",
    "validate_scale_grid",
]
