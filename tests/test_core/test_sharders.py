"""Tests for the RecShard sharders (MILP, fast, multi-tier)."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import make_baseline
from repro.core import (
    MultiTierSharder,
    PlannerWorkspace,
    RecShardFastSharder,
    RecShardSharder,
)
from repro.core.evaluate import (
    expected_device_costs_ms,
    expected_device_costs_ms_many,
    expected_max_cost_ms,
)
from repro.memory.topology import SystemTopology
from repro.stats import analytic_profile
from repro.stats.profiler import ModelProfile
from tests.oracles.branch_bound import branch_and_bound
from tests.oracles.planner import HeapqRefillSharder
from tests.test_core.conftest import build_model

BATCH = 256


class TestRecShardSharder:
    def shard(self, model, profile, topology, **kwargs):
        defaults = dict(batch_size=BATCH, steps=12, time_limit=60)
        defaults.update(kwargs)
        sharder = RecShardSharder(**defaults)
        return sharder.shard(model, profile, topology)

    def test_plan_is_valid(self, small_model, small_profile, tight_topology):
        plan = self.shard(small_model, small_profile, tight_topology)
        plan.validate(small_model, tight_topology)

    def test_roomy_plan_all_hbm(self, small_model, small_profile, roomy_topology):
        plan = self.shard(small_model, small_profile, roomy_topology)
        plan.validate(small_model, roomy_topology)
        # Live rows all make it to HBM (dead rows may stay behind).
        for placement, stats in zip(plan, small_profile):
            assert placement.hbm_rows >= stats.cdf.live_rows

    def test_tight_plan_splits_tables(self, small_model, small_profile, tight_topology):
        plan = self.shard(small_model, small_profile, tight_topology)
        split_tables = [
            p
            for p in plan
            if 0 < p.hbm_rows < small_model.tables[p.table_index].num_rows
        ]
        assert split_tables, "expected fine-grained splits under memory pressure"

    def test_metadata_records_solver(self, small_model, small_profile, tight_topology):
        plan = self.shard(small_model, small_profile, tight_topology)
        assert "solver" in plan.metadata
        assert "milp_status" in plan.metadata

    def test_beats_or_matches_fast(self, small_model, small_profile, tight_topology):
        milp_plan = self.shard(small_model, small_profile, tight_topology)
        fast_plan = RecShardFastSharder(batch_size=BATCH, steps=12).shard(
            small_model, small_profile, tight_topology
        )
        milp_cost = expected_max_cost_ms(
            milp_plan, small_model, small_profile, tight_topology, BATCH
        )
        fast_cost = expected_max_cost_ms(
            fast_plan, small_model, small_profile, tight_topology, BATCH
        )
        assert milp_cost <= fast_cost * 1.001  # hybrid picks the better plan

    def test_no_fallback_raises_on_zero_budget(
        self, small_model, small_profile, tight_topology
    ):
        sharder = RecShardSharder(
            batch_size=BATCH, steps=12, time_limit=1e-4, fallback=False
        )
        with pytest.raises(RuntimeError):
            sharder.shard(small_model, small_profile, tight_topology)

    def test_fallback_on_zero_budget(self, small_model, small_profile, tight_topology):
        sharder = RecShardSharder(
            batch_size=BATCH, steps=12, time_limit=1e-4, fallback=True
        )
        plan = sharder.shard(small_model, small_profile, tight_topology)
        plan.validate(small_model, tight_topology)
        assert plan.metadata["solver"] in ("fast-fallback", "fast-beat-milp")

    def test_branch_bound_backend_small(self, small_model, small_profile):
        # A 1-device instance is tiny enough for the pure-Python solver.
        topo = SystemTopology.two_tier(
            1,
            int(small_model.total_bytes * 0.5),
            200e9,
            small_model.total_bytes,
            10e9,
        )
        with branch_and_bound():
            plan = self.shard(small_model, small_profile, topo, steps=6)
        plan.validate(small_model, topo)
        assert plan.metadata["solver"] in (
            "milp/branch_bound/convex", "fast-beat-milp"
        )

    def test_rejects_non_two_tier(self, small_model, small_profile, topo3):
        with pytest.raises(ValueError, match="two-tier"):
            self.shard(small_model, small_profile, topo3)


def refill_world(seed):
    """A small two-tier world whose MILP leaves HBM for the refill."""
    model = build_model(num_tables=5, rows=128, seed=seed)
    topology = SystemTopology.two_tier(
        2, int(model.total_bytes * 0.4 / 2), 200e9, model.total_bytes, 10e9
    )
    return model, analytic_profile(model), topology


def rescaled(profile, j, seen=1, present=1):
    """``profile`` with table ``j``'s sample counts multiplied: ``seen``
    divides its coverage; ``present`` with ``seen`` divides its pooling
    and keeps its coverage (the same ratio, exactly).  Counts, and so
    the ICDF, stay the same.  Every table is copied without its CDF, so
    the new profile fills its own coverage stack."""
    tables = [
        dataclasses.replace(t, _cdf=None, _coverage_out=None)
        for t in profile.tables
    ]
    t = tables[j]
    tables[j] = dataclasses.replace(
        t, samples_present=t.samples_present * present,
        samples_seen=t.samples_seen * seen,
    )
    return ModelProfile(
        profile.model_name, tables, profile.sample_rate,
        profile.samples_profiled,
    )


def placements(plan):
    return [(p.device, p.rows_per_tier) for p in plan]


class TestMilpRefill:
    """The MILP sharder refills free HBM with the fast sharder's arrays."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_heapq_oracle(self, seed):
        model, profile, topology = refill_world(seed)
        kwargs = dict(batch_size=128, steps=8, time_limit=60, fallback=False)
        plan = RecShardSharder(**kwargs).shard(model, profile, topology)
        oracle = HeapqRefillSharder(**kwargs).shard(model, profile, topology)
        assert placements(plan) == placements(oracle)
        plan.validate(model, topology)

    @pytest.mark.parametrize(
        "switch, scale",
        [("use_coverage", dict(seen=4)), ("use_pooling", dict(seen=4, present=4))],
    )
    def test_ablated_statistic_does_not_steer_refill(self, switch, scale):
        # With a Table 6 switch off, the MILP never sees the statistic,
        # and neither may the refill: scaling it on one table leaves the
        # plan where it was.
        model, profile, topology = refill_world(3)
        sharder = RecShardSharder(
            batch_size=128, steps=8, time_limit=60, fallback=False,
            **{switch: False},
        )
        base = sharder.shard(model, profile, topology)
        scaled = sharder.shard(model, rescaled(profile, 4, **scale), topology)
        assert placements(scaled) == placements(base)


class TestRecShardFastSharder:
    def test_plan_valid_tight(self, small_model, small_profile, tight_topology):
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, tight_topology
        )
        plan.validate(small_model, tight_topology)

    def test_plan_valid_roomy(self, small_model, small_profile, roomy_topology):
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, roomy_topology
        )
        plan.validate(small_model, roomy_topology)
        for placement, stats in zip(plan, small_profile):
            assert placement.hbm_rows >= stats.cdf.live_rows

    def test_load_balance_quality(self, small_model, small_profile, tight_topology):
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, tight_topology
        )
        costs = expected_device_costs_ms(
            plan, small_model, small_profile, tight_topology, BATCH
        )
        assert costs.max() <= costs.sum()  # sanity
        # Makespan within 2.5x of the perfect-split lower bound.
        assert costs.max() <= 2.5 * costs.sum() / tight_topology.num_devices + 1e-9

    def test_metadata(self, small_model, small_profile, tight_topology):
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, tight_topology
        )
        assert plan.metadata["solver"] == "fast"
        assert plan.metadata["estimated_max_cost_ms"] > 0

    def test_infeasible_capacity_raises(self, small_model, small_profile):
        from repro.core.plan import PlanError

        topo = SystemTopology.two_tier(1, 0, 200e9, 0, 10e9)
        with pytest.raises(PlanError):
            RecShardFastSharder(batch_size=BATCH).shard(
                small_model, small_profile, topo
            )

    def test_host_pressure_promotes_dead_rows(self, small_model, small_profile):
        # Host slice below (total - hbm) forces dead rows into HBM.
        total = small_model.total_bytes
        topo = SystemTopology.two_tier(
            num_devices=1,
            hbm_capacity=int(total * 0.7),
            hbm_bandwidth=200e9,
            uvm_capacity=int(total * 0.4),
            uvm_bandwidth=10e9,
        )
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, topo
        )
        plan.validate(small_model, topo)


class TestMultiTierSharder:
    def test_greedy_three_tier_plan(self, small_model, small_profile, topo3):
        plan = MultiTierSharder(batch_size=BATCH, steps=10, method="greedy").shard(
            small_model, small_profile, topo3
        )
        plan.validate(small_model, topo3)
        assert all(len(p.rows_per_tier) == 3 for p in plan)

    def test_greedy_orders_hotness_by_tier(self, small_model, small_profile, topo3):
        plan = MultiTierSharder(batch_size=BATCH, steps=10).shard(
            small_model, small_profile, topo3
        )
        # Hotter tiers hold hotter rows: coverage per row decreases with
        # tier for every split table.
        for placement, stats in zip(plan, small_profile):
            cdf = stats.cdf
            rows_seen = 0
            prev_density = np.inf
            for rows in placement.rows_per_tier:
                if rows == 0:
                    continue
                cov = cdf.coverage_of_rows(rows_seen + rows) - cdf.coverage_of_rows(
                    rows_seen
                )
                density = cov / rows
                assert density <= prev_density + 1e-12
                prev_density = density
                rows_seen += rows

    def test_milp_three_tier_small(self, small_profile, small_model, topo3):
        plan = MultiTierSharder(
            batch_size=BATCH, steps=6, method="milp", time_limit=120
        ).shard(small_model, small_profile, topo3)
        plan.validate(small_model, topo3)

    def test_two_tier_reduces_to_recshard_shape(
        self, small_model, small_profile, tight_topology
    ):
        plan = MultiTierSharder(batch_size=BATCH, steps=10).shard(
            small_model, small_profile, tight_topology
        )
        plan.validate(small_model, tight_topology)
        assert all(len(p.rows_per_tier) == 2 for p in plan)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MultiTierSharder(batch_size=8, method="quantum")


class TestEvaluate:
    def test_expected_costs_sum_conserved(
        self, small_model, small_profile, tight_topology
    ):
        plan = RecShardFastSharder(batch_size=BATCH).shard(
            small_model, small_profile, tight_topology
        )
        costs = expected_device_costs_ms(
            plan, small_model, small_profile, tight_topology, BATCH
        )
        assert costs.shape == (tight_topology.num_devices,)
        assert np.all(costs >= 0)
        assert expected_max_cost_ms(
            plan, small_model, small_profile, tight_topology, BATCH
        ) == pytest.approx(costs.max())

    def test_all_hbm_cheaper_than_all_uvm(
        self, small_model, small_profile, roomy_topology
    ):
        from repro.core.plan import ShardingPlan, TablePlacement

        all_hbm = ShardingPlan(
            strategy="hbm",
            placements=[
                TablePlacement(j, 0, (t.num_rows, 0))
                for j, t in enumerate(small_model.tables)
            ],
        )
        all_uvm = ShardingPlan(
            strategy="uvm",
            placements=[
                TablePlacement(j, 0, (0, t.num_rows))
                for j, t in enumerate(small_model.tables)
            ],
        )
        cost_hbm = expected_max_cost_ms(
            all_hbm, small_model, small_profile, roomy_topology, BATCH
        )
        cost_uvm = expected_max_cost_ms(
            all_uvm, small_model, small_profile, roomy_topology, BATCH
        )
        ratio = roomy_topology.hbm.bandwidth / roomy_topology.uvm.bandwidth
        assert cost_uvm == pytest.approx(cost_hbm * ratio, rel=1e-6)


class TestReclaimDead:
    def tight_host_topology(self, small_model, small_profile):
        """Host slice below total-but-above-live bytes (needs reclaim)."""
        live = sum(
            s.cdf.live_rows * t.row_bytes
            for s, t in zip(small_profile, small_model.tables)
        )
        total = small_model.total_bytes
        assert live < total
        return SystemTopology.two_tier(
            num_devices=1,
            hbm_capacity=small_model.tables[0].row_bytes * 64,
            hbm_bandwidth=200e9,
            uvm_capacity=int((live + total) / 2),
            uvm_bandwidth=10e9,
        )

    def test_fast_sharder_reclaims_dead_rows(self, small_model, small_profile):
        topo = self.tight_host_topology(small_model, small_profile)
        from repro.core.plan import PlanError

        with pytest.raises(PlanError):
            RecShardFastSharder(batch_size=BATCH, reclaim_dead=False).shard(
                small_model, small_profile, topo
            )
        plan = RecShardFastSharder(batch_size=BATCH, reclaim_dead=True).shard(
            small_model, small_profile, topo
        )
        assert plan.metadata["reclaim_dead"] is True
        plan.validate(small_model, topo)  # honours the reclaim metadata

    def test_milp_sharder_reclaims_dead_rows(self, small_model, small_profile):
        topo = self.tight_host_topology(small_model, small_profile)
        plan = RecShardSharder(
            batch_size=BATCH, steps=10, time_limit=60, reclaim_dead=True
        ).shard(small_model, small_profile, topo)
        plan.validate(small_model, topo)
        assert plan.metadata.get("reclaim_dead") is True

    def test_validate_rejects_without_metadata(self, small_model, small_profile):
        topo = self.tight_host_topology(small_model, small_profile)
        plan = RecShardFastSharder(batch_size=BATCH, reclaim_dead=True).shard(
            small_model, small_profile, topo
        )
        from repro.core.plan import PlanError, ShardingPlan

        stripped = ShardingPlan(
            strategy="no-reclaim", placements=list(plan.placements)
        )
        with pytest.raises(PlanError):
            stripped.validate(small_model, topo)


#: Every sharder, on the one protocol: ``shard(model, profile, topology,
#: warm_start=None, workspace=None)``, with the ``solver`` its plan
#: reports.  The MILP runs the deterministic branch-and-bound oracle on
#: a tiny model, once per exit: incumbent wins, no fallback, fast plan
#: wins (a loose gap stops at a poor incumbent), and no incumbent (a
#: node budget of 0, ``NODE_LIMITS``).
PROTOCOL_SHARDERS = {
    "fast": (lambda: RecShardFastSharder(batch_size=64, steps=6), "fast"),
    "multitier": (
        lambda: MultiTierSharder(batch_size=64, steps=6), "greedy"
    ),
    "milp": (
        lambda: RecShardSharder(batch_size=64, steps=6),
        "milp/branch_bound/convex",
    ),
    "milp-no-fallback": (
        lambda: RecShardSharder(batch_size=64, steps=6, fallback=False),
        "milp/branch_bound/convex",
    ),
    "milp-fast-wins": (
        lambda: RecShardSharder(batch_size=64, steps=6, mip_gap=0.99),
        "fast-beat-milp",
    ),
    "milp-fallback": (
        lambda: RecShardSharder(batch_size=64, steps=6),
        "fast-fallback",
    ),
    "greedy": (lambda: make_baseline("Size-Based"), None),
}


#: branch-and-bound node budgets that differ from the oracle's default
NODE_LIMITS = {"milp-fallback": 0}


@pytest.mark.parametrize("name", sorted(PROTOCOL_SHARDERS))
def test_one_signature_one_cost_stamp(name):
    model = build_model(num_tables=4, rows=64, seed=17)
    profile = analytic_profile(model)
    topology = SystemTopology.two_tier(
        2, int(model.total_bytes * 0.45 / 2), 200e9, model.total_bytes, 10e9
    )
    workspace = PlannerWorkspace(model, profile, steps=6)
    make, solver = PROTOCOL_SHARDERS[name]
    with branch_and_bound(node_limit=NODE_LIMITS.get(name, 200_000)):
        plan = make().shard(
            model, profile, topology, warm_start=None, workspace=workspace
        )
    plan.validate(model, topology)
    meta = plan.metadata
    assert meta.get("solver") == solver
    costs = expected_device_costs_ms_many(
        [plan], model, profile, topology, meta["estimated_cost_batch_size"]
    )[0]
    assert meta["estimated_device_costs_ms"] == costs.tolist()
    assert meta["estimated_max_cost_ms"] == costs.max()
    assert not [key for key in meta if key.startswith("expected_")]
