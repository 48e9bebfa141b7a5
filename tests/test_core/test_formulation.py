"""Tests for the RecShard MILP formulation (Sections 4.2 and 4.4)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.formulation import MIB, build_milp
from repro.core.workspace import PlannerWorkspace
from repro.memory.tier import MemoryTier
from repro.memory.topology import SystemTopology
from repro.milp import scipy_backend
from repro.milp.result import SolveResult, SolveStatus
from repro.stats import analytic_profile
from tests.test_core.conftest import build_model


def problem_digest(problem) -> str:
    """SHA-256 over the arrays HiGHS solves, at canonical dtypes: the
    objective, integrality, variable bounds, the CSR matrix with sorted
    column indices, and the row bounds."""
    matrix = problem.matrix.copy()
    matrix.sort_indices()
    digest = hashlib.sha256()
    for array, dtype in (
        (problem.c, np.float64),
        (problem.integrality, np.int64),
        (problem.lower, np.float64),
        (problem.upper, np.float64),
        (matrix.indptr, np.int64),
        (matrix.indices, np.int64),
        (matrix.data, np.float64),
        (problem.row_lower, np.float64),
        (problem.row_upper, np.float64),
    ):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()[:16]


def num_binary(problem) -> int:
    return int(
        np.count_nonzero(
            (problem.integrality == 1) & (problem.lower == 0) & (problem.upper == 1)
        )
    )


def pinned_world(num_tiers: int):
    """Five tables on two devices; the three-tier ladder stores its
    slower tiers at fp16 and int8."""
    model = build_model(num_tables=5, rows=128, seed=3)
    total = model.total_bytes
    if num_tiers == 2:
        topology = SystemTopology.two_tier(
            2, int(total * 0.3 / 2), 200e9, total, 10e9
        )
    else:
        topology = SystemTopology(
            num_devices=2,
            tiers=(
                MemoryTier("hbm", int(total * 0.2 / 2), 200e9),
                MemoryTier("dram", int(total * 0.4 / 2), 10e9, precision="fp16"),
                MemoryTier("ssd", total, 1e9, precision="int8"),
            ),
        )
    return PlannerWorkspace(model, analytic_profile(model), steps=6), topology


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
        assert handles.assign.shape == (num_devices, num_tables)
        assert handles.pct.shape == handles.mem.shape == (num_tables, 1)
        assert handles.makespan_rows.shape == (num_devices,)
        # Binary count: only the assignment variables in convex form.
        assert num_binary(handles.problem) == num_devices * num_tables

    def test_step_formulation_has_step_binaries(
        self, small_model, small_profile, tight_topology
    ):
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        handles = build_milp(
            ws, tight_topology, batch_size=256, formulation="step"
        )
        expected = tight_topology.num_devices * ws.num_tables + ws.num_tables * 9
        assert num_binary(handles.problem) == expected

    def test_three_tier_structure(self, small_model, small_profile, topo3):
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        tables, devices = ws.num_tables, topo3.num_devices
        convex = build_milp(ws, topo3, batch_size=256)
        step = build_milp(ws, topo3, batch_size=256, formulation="step")
        caps_mib = [tier.capacity_bytes / MIB for tier in topo3.tiers]
        for handles in (convex, step):
            problem = handles.problem
            assert handles.pct.shape == handles.mem.shape == (tables, 2)
            # One capacity row per (device, tier), just before the
            # device's makespan row.
            cap_rows = handles.makespan_rows[:, None] - 3 + np.arange(3)
            assert problem.row_upper[cap_rows].tolist() == [caps_mib] * devices
            # The continuous columns: C, (pct, mem) per (table,
            # boundary), and one u (held MiB) and one w (served
            # fraction) per (device, table, boundary).
            assert np.count_nonzero(problem.integrality == 0) == (
                1 + tables * 2 * 2 + 2 * (devices * tables * 2)
            )
        assert num_binary(convex.problem) == devices * tables
        assert num_binary(step.problem) == devices * tables + tables * 2 * 9

    def test_three_tier_boundaries_ordered(
        self, small_model, small_profile, topo3
    ):
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        handles = build_milp(ws, topo3, batch_size=256)
        result = scipy_backend.solve(handles.problem, time_limit=60)
        assert result.status.has_solution
        for handle in (handles.pct, handles.mem):
            values = result.values[handle]
            assert np.all(values[:, 0] <= values[:, 1] + 1e-9)

    @pytest.mark.parametrize(
        "num_tiers, kwargs, digest, shape",
        [
            (2, {}, "ab8a2624513b6a88", (41, 102, 282)),
            (2, {"formulation": "step"}, "56e21d84a0c8d981", (76, 87, 327)),
            (
                2,
                {"reclaim_dead": True, "use_coverage": False,
                 "use_pooling": False, "symmetry_breaking": False},
                "d10b92f022f67cc4",
                (41, 101, 262),
            ),
            (3, {}, "e5cd175132ea9ce4", (71, 204, 562)),
            (3, {"formulation": "step"}, "9e6bc821fb23ce34", (141, 174, 652)),
        ],
    )
    def test_problem_arrays_are_pinned(self, num_tiers, kwargs, digest, shape):
        # The digests were taken from the modelling-language build the
        # array build replaced (compiled, then lowered to CSR): the same
        # columns, rows and coefficients bit for bit, so HiGHS and the
        # branch-and-bound oracle branch as before.
        ws, topology = pinned_world(num_tiers)
        problem = build_milp(ws, topology, batch_size=64, **kwargs).problem
        assert (problem.num_vars, problem.num_rows, problem.matrix.nnz) == shape
        assert problem_digest(problem) == digest

    def test_four_tier_structure(self, small_model, small_profile):
        total = small_model.total_bytes
        topo4 = SystemTopology(
            num_devices=2,
            tiers=(
                MemoryTier("hbm", int(total * 0.1 / 2), 200e9),
                MemoryTier("dram", int(total * 0.2 / 2), 20e9),
                MemoryTier("ssd", int(total * 0.3 / 2), 2e9),
                MemoryTier("hdd", total, 0.5e9),
            ),
        )
        ws = PlannerWorkspace(small_model, small_profile, steps=8)
        tables, devices = ws.num_tables, topo4.num_devices
        for formulation, binaries in (("convex", 0), ("step", tables * 3 * 9)):
            handles = build_milp(ws, topo4, batch_size=256, formulation=formulation)
            problem = handles.problem
            assert handles.pct.shape == handles.mem.shape == (tables, 3)
            cap_rows = handles.makespan_rows[:, None] - 4 + np.arange(4)
            caps_mib = [tier.capacity_bytes / MIB for tier in topo4.tiers]
            assert problem.row_upper[cap_rows].tolist() == [caps_mib] * devices
            assert num_binary(problem) == devices * tables + binaries
            result = scipy_backend.solve(problem, time_limit=60)
            assert result.status.has_solution
            for handle in (handles.pct, handles.mem):
                values = result.values[handle]
                assert np.all(np.diff(values, axis=1) >= -1e-9)

    @pytest.mark.parametrize("formulation", ["convex", "step"])
    def test_table_without_accesses(self, formulation, tight_topology):
        # Coverage 0: the table is never looked up, so it serves no
        # fraction, holds no fast-tier MiB and gets no step binaries.
        model = build_model(num_tables=4, rows=128, seed=5)
        dead = model.tables[0]
        model = dataclasses.replace(
            model,
            tables=(
                dataclasses.replace(
                    dead, feature=dataclasses.replace(dead.feature, coverage=0.0)
                ),
                *model.tables[1:],
            ),
        )
        ws = PlannerWorkspace(model, analytic_profile(model), steps=6)
        assert ws.total_accesses[0] == 0 < ws.total_accesses[1:].min()
        handles = build_milp(ws, tight_topology, batch_size=64, formulation=formulation)
        problem = handles.problem
        assert problem.upper[handles.pct[0, 0]] == 0.0
        (mem_row,) = problem.matrix[:, handles.mem[0, 0]].nonzero()[0][:1]
        assert problem.matrix[mem_row].nnz == 1
        assert problem.row_upper[mem_row] == 0.0
        steps = 7 if formulation == "step" else 0
        assert num_binary(problem) == (
            tight_topology.num_devices * ws.num_tables + (ws.num_tables - 1) * steps
        )
        result = scipy_backend.solve(problem, time_limit=60)
        assert result.status.has_solution
        assert result.values[handles.mem[0, 0]] == pytest.approx(0.0, abs=1e-9)

    def test_devices_take_the_first_largest_assignment(
        self, small_model, small_profile, tight_topology
    ):
        ws = PlannerWorkspace(small_model, small_profile, steps=4)
        handles = build_milp(ws, tight_topology, batch_size=64)
        values = np.zeros(handles.problem.num_vars)
        values[handles.assign[:, 0]] = [0.4, 0.6]
        values[handles.assign[:, 1]] = 0.5  # a tie goes to device 0
        values[handles.assign[1, 2:]] = 1.0
        devices = handles.devices(SolveResult(SolveStatus.FEASIBLE, values=values))
        assert devices == [1, 0] + [1] * (ws.num_tables - 2)

    def test_unknown_formulation(self, small_model, small_profile, tight_topology):
        ws = PlannerWorkspace(small_model, small_profile, steps=4)
        with pytest.raises(ValueError):
            build_milp(ws, tight_topology, batch_size=64, formulation="magic")


class TestSolutionProperties:
    def solve(self, model, profile, topology, **kwargs):
        ws = PlannerWorkspace(model, profile, steps=10)
        handles = build_milp(ws, topology, batch_size=256, **kwargs)
        result = scipy_backend.solve(handles.problem, time_limit=60)
        assert result.status.has_solution
        return ws, handles, result

    def test_each_table_assigned_once(self, small_model, small_profile, tight_topology):
        _, handles, result = self.solve(small_model, small_profile, tight_topology)
        totals = result.values[handles.assign].sum(axis=0)
        assert totals == pytest.approx(np.ones(totals.size))

    def test_hbm_capacity_respected(self, small_model, small_profile, tight_topology):
        _, handles, result = self.solve(small_model, small_profile, tight_topology)
        cap_mib = tight_topology.hbm.capacity_bytes / 2**20
        on_device = result.values[handles.assign] > 0.5
        used = on_device @ result.values[handles.mem[:, 0]]
        assert np.all(used <= cap_mib * (1 + 1e-6))

    def test_roomy_topology_puts_everything_in_hbm(
        self, small_model, small_profile, roomy_topology
    ):
        _, handles, result = self.solve(small_model, small_profile, roomy_topology)
        hbm_fractions = result.values[handles.pct[:, 0]]
        assert hbm_fractions == pytest.approx(np.ones(hbm_fractions.size), abs=1e-6)

    def test_step_and_convex_agree(self, small_model, small_profile, tight_topology):
        # The convex formulation allows continuous split points, so it is
        # a refinement of the on-grid step formulation: never worse, and
        # converging to it as the grid refines.
        def solve(formulation, steps):
            ws = PlannerWorkspace(small_model, small_profile, steps=steps)
            handles = build_milp(
                ws, tight_topology, batch_size=256, formulation=formulation
            )
            return scipy_backend.solve(handles.problem, time_limit=60)

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
        _, handles, result = self.solve(small_model, small_profile, tight_topology)
        # The objective carries a vanishing secondary term; compare
        # against the makespan variable itself.  Makespan row m reads
        # c_m - C, so the device costs are its activity plus C.
        makespan = result.values[handles.max_cost]
        rows = handles.problem.matrix[handles.makespan_rows]
        device_costs = rows @ result.values + makespan
        assert np.all(device_costs <= makespan * (1 + 1e-6))
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
        strict_result = scipy_backend.solve(strict.problem, time_limit=30)
        assert strict_result.status == SolveStatus.INFEASIBLE
        assert scipy_backend.solve(relaxed.problem, time_limit=30).status.has_solution
