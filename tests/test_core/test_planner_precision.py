"""Precision-tiered capacity: planners admitting rows at quantized cost.

The tentpole invariant: a tier holding rows at a reduced precision
charges :func:`~repro.memory.precision.quantized_row_bytes` per row, so
the same byte budget admits proportionally more rows — and the heapq
oracles (``tests.oracles``) and the shipped bulk-admission path must
keep producing identical plans under any precision ladder.
"""

import pytest

from repro.core import (
    MultiTierSharder,
    PlanError,
    PlannerWorkspace,
    RecShardFastSharder,
    RecShardSharder,
    shard_sweep,
)
from repro.memory.precision import quantized_row_bytes
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from tests.oracles.planner import ScalarFastSharder, ScalarMultiTierSharder

from .conftest import build_model

BATCH = 256


def assert_plans_identical(a, b):
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert p.rows_per_tier == q.rows_per_tier, f"table {p.table_index}"
        assert p.device == q.device, f"table {p.table_index}"


def two_tier(model, hbm_frac=0.3, num_devices=2):
    total = model.total_bytes
    return SystemTopology.two_tier(
        num_devices=num_devices,
        hbm_capacity=int(total * hbm_frac / num_devices),
        hbm_bandwidth=200e9,
        uvm_capacity=total,
        uvm_bandwidth=10e9,
    )


def three_tier(model, mid_frac=0.2, num_devices=2):
    total = model.total_bytes
    tiers = (
        MemoryTier("hbm", int(total * 0.1 / num_devices), 200e9),
        MemoryTier("dram", int(total * mid_frac / num_devices), 20e9),
        MemoryTier("ssd", total, 2e9),
    )
    return SystemTopology(num_devices=num_devices, tiers=tiers)


class TestFastSharderPrecision:
    def test_quantized_hbm_admits_more_rows(self):
        model = build_model(num_tables=8, seed=0)
        profile = analytic_profile(model)
        topology = two_tier(model)
        sharder = RecShardFastSharder(batch_size=BATCH)
        baseline = sharder.shard(model, profile, topology)
        quant = sharder.shard(
            model, profile, topology.with_precisions("hbm=fp16")
        )
        # dim=8 rows: fp16 halves the per-row cost, so the same HBM
        # budget holds about twice the rows.
        ratio = quant.tier_rows_total(0) / baseline.tier_rows_total(0)
        assert ratio >= 1.8

    @pytest.mark.parametrize("spec", ["hbm=fp16", "uvm=int8", "hbm=int8,uvm=int4"])
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_vectorized_parity(self, spec, seed):
        model = build_model(num_tables=8, seed=seed)
        profile = analytic_profile(model)
        topology = two_tier(model).with_precisions(spec)
        scalar = ScalarFastSharder(batch_size=BATCH)
        fast = RecShardFastSharder(batch_size=BATCH)
        plan_scalar = scalar.shard(model, profile, topology)
        plan_fast = fast.shard(model, profile, topology)
        assert_plans_identical(plan_scalar, plan_fast)
        plan_fast.validate(model, topology)

    def test_metadata_stamped_only_when_quantized(self):
        model = build_model(num_tables=6, seed=1)
        profile = analytic_profile(model)
        topology = two_tier(model)
        sharder = RecShardFastSharder(batch_size=BATCH)
        plain = sharder.shard(model, profile, topology)
        assert "tier_precisions" not in plain.metadata
        quant = sharder.shard(
            model, profile, topology.with_precisions("uvm=int8")
        )
        assert quant.metadata["tier_precisions"] == ["fp32", "int8"]
        errors = quant.metadata["tier_expected_rel_error"]
        assert errors[0] == 0.0 and errors[1] > 0.0

    def test_validate_enforces_quantized_capacity(self):
        model = build_model(num_tables=8, seed=2)
        profile = analytic_profile(model)
        topology = two_tier(model, hbm_frac=0.3)
        quant_topo = topology.with_precisions("hbm=int8")
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            model, profile, quant_topo
        )
        plan.validate(model, quant_topo)
        # The quantized plan packs ~4x the rows into HBM; charged at
        # full fp32 row bytes it must blow the same byte budget.
        with pytest.raises(PlanError, match="exceeds capacity"):
            plan.validate(model, topology)


class TestMultiTierPrecision:
    @pytest.mark.parametrize("precision,floor", [("fp16", 1.8), ("int8", 2.0)])
    def test_cold_tier_capacity_gain(self, precision, floor):
        model = build_model(num_tables=10, rows=900, seed=3)
        profile = analytic_profile(model)
        topology = three_tier(model)
        sharder = MultiTierSharder(batch_size=BATCH, steps=15)
        baseline = sharder.shard(model, profile, topology)
        quant = sharder.shard(
            model,
            profile,
            topology.with_precisions({"dram": precision, "ssd": precision}),
        )
        ratio = quant.tier_rows_total(1) / baseline.tier_rows_total(1)
        assert ratio >= floor

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_vectorized_parity(self, seed):
        model = build_model(num_tables=8, seed=seed)
        profile = analytic_profile(model)
        topology = three_tier(model).with_precisions("dram=fp16,ssd=int4")
        vec = MultiTierSharder(batch_size=BATCH, steps=15).shard(
            model, profile, topology
        )
        scalar = ScalarMultiTierSharder(
            batch_size=BATCH, steps=15
        ).shard(model, profile, topology)
        assert_plans_identical(vec, scalar)
        vec.validate(model, topology)

    def test_milp_charges_quantized_ladders(self):
        model = build_model(num_tables=4, rows=128, seed=0)
        profile = analytic_profile(model)
        topology = three_tier(model).with_precisions("dram=fp16,ssd=int8")
        plan = MultiTierSharder(
            batch_size=BATCH, steps=5, method="milp"
        ).shard(model, profile, topology)
        plan.validate(model, topology)
        assert plan.metadata["tier_precisions"] == ["fp32", "fp16", "int8"]


class TestMilpPrecision:
    def test_quantized_hbm_admits_more_rows(self):
        # Small enough that HiGHS proves optimality well inside its limit.
        model = build_model(num_tables=5, rows=128, seed=1)
        profile = analytic_profile(model)
        topology = two_tier(model, hbm_frac=0.2)
        sharder = RecShardSharder(
            batch_size=BATCH, steps=10, time_limit=60, mip_gap=0.0,
            fallback=False,
        )
        fp32 = sharder.shard(model, profile, topology)
        fp16_topology = topology.with_precisions("hbm=fp16")
        fp16 = sharder.shard(model, profile, fp16_topology)
        assert fp32.metadata["milp_status"] == "optimal"
        assert fp16.metadata["milp_status"] == "optimal"
        fp16.validate(model, fp16_topology)
        assert fp16.tier_rows_total(0) > fp32.tier_rows_total(0)
        assert fp16.metadata["tier_precisions"] == ["fp16", "fp32"]
        assert "tier_precisions" not in fp32.metadata


class TestPrecisionSweep:
    def test_grid_keys_and_monotone_capacity(self):
        model = build_model(num_tables=8, seed=4)
        profile = analytic_profile(model)
        topology = two_tier(model, hbm_frac=0.2)
        workspace = PlannerWorkspace(model, profile, steps=40)
        plans = shard_sweep(
            workspace,
            sharder=RecShardFastSharder(batch_size=BATCH, steps=40),
            precisions=["fp32", "fp16", "int8", "int4"],
            base_topology=topology,
        )
        keys = [p.metadata["sweep_key"] for p in plans]
        assert keys == [
            "precisions=fp32",
            "precisions=fp16",
            "precisions=int8",
            "precisions=int4",
        ]
        # Cold-tier quantization only affects the host side here; the
        # fp32 point matches a plain solve bit for bit.
        plain = RecShardFastSharder(batch_size=BATCH, steps=40).shard(
            model, profile, topology
        )
        assert_plans_identical(plans[0], plain)

    def test_rejects_unknown_precision(self):
        model = build_model(num_tables=4, seed=0)
        workspace = PlannerWorkspace(model, analytic_profile(model), steps=10)
        with pytest.raises(PlanError, match="precisions=fp12"):
            shard_sweep(
                workspace,
                sharder=RecShardFastSharder(batch_size=BATCH, steps=10),
                precisions=["fp12"],
                base_topology=two_tier(model),
            )

    def test_requires_base_topology(self):
        model = build_model(num_tables=4, seed=0)
        workspace = PlannerWorkspace(model, analytic_profile(model), steps=10)
        with pytest.raises(ValueError, match="base_topology"):
            shard_sweep(
                workspace,
                sharder=RecShardFastSharder(batch_size=BATCH, steps=10),
                precisions=["fp16"],
            )


class TestQuantizedRowBytesPlannerMath:
    def test_host_rows_scale_with_precision(self):
        # The admission math's core identity: rows that fit a budget
        # scale inversely with the quantized row bytes.
        row_bytes = 8 * 4
        budget = 10_000
        for precision in ("fp16", "int8", "int4"):
            per_row = quantized_row_bytes(row_bytes, precision)
            assert budget // per_row > budget // row_bytes
