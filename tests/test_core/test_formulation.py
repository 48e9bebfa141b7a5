"""Tests for the RecShard MILP formulation (Sections 4.2 and 4.4)."""

import hashlib

import pytest

from repro.core.formulation import build_milp
from repro.core.workspace import PlannerWorkspace
from repro.memory.topology import SystemTopology
from repro.milp.result import SolveStatus
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model


def model_digest(model) -> str:
    """Every variable, constraint and objective term, in model order."""
    parts = [(v.name, v.lb, v.ub, v.integer) for v in model.variables]
    parts += [
        (c.name, c.sense, tuple(c.expr.coeffs.items()), c.expr.constant)
        for c in model.constraints
    ]
    parts.append((tuple(model.objective.coeffs.items()), model.objective.constant))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class TestInputs:
    def test_from_profile(self, small_model, small_profile):
        ws = PlannerWorkspace(small_model, small_profile, steps=10)
        assert ws.num_tables == small_model.num_tables
        assert ws.hash_sizes[0] == small_model.tables[0].num_rows
        assert ws.frac_rows.shape == (small_model.num_tables, 11)
        assert ws.avg_pooling[0] > 0

    def test_profile_length_mismatch(self, small_model, small_profile):
        small_profile.tables.pop()
        with pytest.raises(ValueError):
            PlannerWorkspace(small_model, small_profile)


class TestBuildMilp:
    def test_structure_counts(self, small_model, small_profile, tight_topology):
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        handles = build_milp(ws, tight_topology, batch_size=256)
        num_devices = tight_topology.num_devices
        num_tables = ws.num_tables
        assert len(handles.assign) == num_devices
        assert len(handles.assign[0]) == num_tables
        assert len(handles.pct) == num_tables
        # Binary count: only the assignment variables in convex form.
        assert handles.model.num_binary == num_devices * num_tables

    def test_step_formulation_has_step_binaries(
        self, small_model, small_profile, tight_topology
    ):
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        handles = build_milp(
            ws, tight_topology, batch_size=256, formulation="step"
        )
        expected = tight_topology.num_devices * ws.num_tables + ws.num_tables * 9
        assert handles.model.num_binary == expected

    def test_three_tier_structure(self, small_model, small_profile, topo3):
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        tables, devices = ws.num_tables, topo3.num_devices
        convex = build_milp(ws, topo3, batch_size=256)
        step = build_milp(ws, topo3, batch_size=256, formulation="step")
        for handles in (convex, step):
            assert [len(p) for p in handles.pct] == [2] * tables
            assert [len(m) for m in handles.mem] == [2] * tables
            names = [c.name for c in handles.model.constraints]
            assert sum(n.startswith("cap_") for n in names) == 3 * devices
            # One u (held MiB) and one w (served fraction) per
            # (device, table, boundary).
            for prefix in ("u[", "w["):
                assert sum(
                    v.name.startswith(prefix) for v in handles.model.variables
                ) == devices * tables * 2
        assert convex.model.num_binary == devices * tables
        assert step.model.num_binary == devices * tables + tables * 2 * 9

    def test_three_tier_boundaries_ordered(
        self, small_model, small_profile, topo3
    ):
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        handles = build_milp(ws, topo3, batch_size=256)
        result = handles.model.solve(time_limit=60)
        assert result.status.has_solution
        for pct_j, mem_j in zip(handles.pct, handles.mem):
            assert result.value(pct_j[0]) <= result.value(pct_j[1]) + 1e-9
            assert result.value(mem_j[0]) <= result.value(mem_j[1]) + 1e-9

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            ({}, "e459dd30338abafe"),
            ({"formulation": "step"}, "500c1a04a07b3882"),
            (
                {"reclaim_dead": True, "use_coverage": False,
                 "use_pooling": False, "symmetry_breaking": False},
                "ebe1d246c158c59f",
            ),
        ],
    )
    def test_two_tier_model_is_pinned(self, kwargs, digest):
        # The digests were taken from the two-tier-only formulation the
        # general one replaced, built from per-table objects sampled by
        # the scalar ICDF query: at two tiers, from a workspace, it emits
        # the same variables, constraints and coefficients, in the same
        # order.
        model = build_model(num_tables=5, rows=128, seed=3)
        topology = SystemTopology.two_tier(
            2, int(model.total_bytes * 0.3 / 2), 200e9, model.total_bytes, 10e9
        )
        ws = PlannerWorkspace(model, analytic_profile(model), steps=6)
        handles = build_milp(ws, topology, batch_size=64, **kwargs)
        assert model_digest(handles.model) == digest

    def test_unknown_formulation(self, small_model, small_profile, tight_topology):
        ws = PlannerWorkspace(small_model, small_profile, steps=4)
        with pytest.raises(ValueError):
            build_milp(ws, tight_topology, batch_size=64, formulation="magic")


class TestSolutionProperties:
    def solve(self, model, profile, topology, **kwargs):
        ws = PlannerWorkspace(model, profile, steps=10)
        handles = build_milp(ws, topology, batch_size=256, **kwargs)
        result = handles.model.solve(time_limit=60)
        assert result.status.has_solution
        return ws, handles, result

    def test_each_table_assigned_once(self, small_model, small_profile, tight_topology):
        ws, handles, result = self.solve(small_model, small_profile, tight_topology)
        for j in range(ws.num_tables):
            total = sum(
                result.value(handles.assign[m][j])
                for m in range(tight_topology.num_devices)
            )
            assert total == pytest.approx(1.0)

    def test_hbm_capacity_respected(self, small_model, small_profile, tight_topology):
        ws, handles, result = self.solve(small_model, small_profile, tight_topology)
        cap_mib = tight_topology.hbm.capacity_bytes / 2**20
        for m in range(tight_topology.num_devices):
            used = sum(
                result.value(handles.mem[j][0])
                for j in range(ws.num_tables)
                if result.value(handles.assign[m][j]) > 0.5
            )
            assert used <= cap_mib * (1 + 1e-6)

    def test_roomy_topology_puts_everything_in_hbm(
        self, small_model, small_profile, roomy_topology
    ):
        ws, handles, result = self.solve(small_model, small_profile, roomy_topology)
        for j in range(ws.num_tables):
            assert result.value(handles.pct[j][0]) == pytest.approx(1.0, abs=1e-6)

    def test_step_and_convex_agree(self, small_model, small_profile, tight_topology):
        # The convex formulation allows continuous split points, so it is
        # a refinement of the on-grid step formulation: never worse, and
        # converging to it as the grid refines.
        def solve(formulation, steps):
            ws = PlannerWorkspace(small_model, small_profile, steps=steps)
            handles = build_milp(
                ws, tight_topology, batch_size=256, formulation=formulation
            )
            return handles.model.solve(time_limit=60)

        res_convex = solve("convex", 40)
        res_step = solve("step", 40)
        assert res_convex.status.has_solution and res_step.status.has_solution
        assert res_convex.objective <= res_step.objective + 1e-9
        assert res_convex.objective == pytest.approx(res_step.objective, rel=0.08)

    def test_symmetry_breaking_preserves_objective(
        self, small_model, small_profile, tight_topology
    ):
        _, _, res_sym = self.solve(
            small_model, small_profile, tight_topology, symmetry_breaking=True
        )
        _, _, res_raw = self.solve(
            small_model, small_profile, tight_topology, symmetry_breaking=False
        )
        assert res_sym.objective == pytest.approx(res_raw.objective, rel=0.02)

    def test_makespan_bounds_device_costs(
        self, small_model, small_profile, tight_topology
    ):
        ws, handles, result = self.solve(small_model, small_profile, tight_topology)
        # The objective carries a vanishing secondary term; compare
        # against the makespan variable itself.
        makespan = result.value(handles.max_cost)
        for cost_expr in handles.device_costs:
            assert cost_expr.value(result.values) <= makespan * (1 + 1e-6)
        assert makespan == pytest.approx(result.objective, rel=1e-3)

    def test_ablation_flags_change_cost_surface(
        self, small_model, small_profile, tight_topology
    ):
        # Disabling coverage/pooling changes the optimum (Table 6 knobs).
        _, _, res_full = self.solve(small_model, small_profile, tight_topology)
        _, _, res_cdf = self.solve(
            small_model,
            small_profile,
            tight_topology,
            use_coverage=False,
            use_pooling=False,
        )
        assert res_full.objective != pytest.approx(res_cdf.objective, rel=1e-3)

    def test_reclaim_dead_relaxes_host_capacity(self, small_model, small_profile):
        # A host tier sized below total-but-above-live bytes is feasible
        # only when dead rows are reclaimed.
        from repro.memory.topology import SystemTopology

        live = sum(s.cdf.live_rows * t.row_bytes
                   for s, t in zip(small_profile, small_model.tables))
        total = small_model.total_bytes
        assert live < total  # fixture has dead rows
        topo = SystemTopology.two_tier(
            num_devices=1,
            hbm_capacity=0,
            hbm_bandwidth=200e9,
            uvm_capacity=int((live + total) / 2),
            uvm_bandwidth=10e9,
        )
        ws = PlannerWorkspace(small_model, small_profile, steps=6)
        strict = build_milp(ws, topo, batch_size=64, reclaim_dead=False)
        relaxed = build_milp(ws, topo, batch_size=64, reclaim_dead=True)
        assert strict.model.solve(time_limit=30).status == SolveStatus.INFEASIBLE
        assert relaxed.model.solve(time_limit=30).status.has_solution
