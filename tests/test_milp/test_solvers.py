"""Solver tests: HiGHS (``Model.solve``) and the branch-and-bound oracle."""

import pytest

from repro.milp import Model, SolveStatus
from tests.oracles.branch_bound import branch_and_bound, solve_branch_bound

BACKENDS = ["highs", "branch_bound"]
SOLVE = {"highs": Model.solve, "branch_bound": solve_branch_bound}


def knapsack_model():
    """max 10a + 6b + 4c s.t. a+b+c<=2 (binary) => min of negative."""
    m = Model("knapsack")
    a, b, c = (m.binary_var(name=n) for n in "abc")
    m.add(a + b + c <= 2)
    m.minimize(-10 * a - 6 * b - 4 * c)
    return m, (a, b, c)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBothBackends:
    def test_lp_only(self, backend):
        m = Model()
        x = m.continuous_var(ub=10)
        y = m.continuous_var(ub=10)
        m.add(x + y <= 8)
        m.minimize(-x - 2 * y)
        res = SOLVE[backend](m)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-16.0)  # y=8, x=0 maximizes
        assert res.value(y) == pytest.approx(8.0)

    def test_knapsack(self, backend):
        m, (a, b, c) = knapsack_model()
        res = SOLVE[backend](m)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-16.0)
        assert res.value(a) == pytest.approx(1.0)
        assert res.value(b) == pytest.approx(1.0)
        assert res.value(c) == pytest.approx(0.0)

    def test_infeasible_detected(self, backend):
        m = Model()
        x = m.continuous_var(ub=1)
        m.add(x >= 2)
        m.minimize(x)
        res = SOLVE[backend](m)
        assert res.status == SolveStatus.INFEASIBLE
        with pytest.raises(ValueError):
            res.value(x)

    def test_equality_constraints(self, backend):
        m = Model()
        x = m.integer_var(lb=0, ub=10)
        y = m.integer_var(lb=0, ub=10)
        m.add(x + y == 7)
        m.add(x - y == 1)
        m.minimize(x)
        res = SOLVE[backend](m)
        assert res.status == SolveStatus.OPTIMAL
        assert res.value(x) == pytest.approx(4.0)
        assert res.value(y) == pytest.approx(3.0)

    def test_integer_rounding_forced(self, backend):
        # LP relaxation optimum is fractional; MILP must branch.
        m = Model()
        x = m.integer_var(lb=0, ub=10)
        m.add(2 * x <= 7)
        m.minimize(-x)
        res = SOLVE[backend](m)
        assert res.status == SolveStatus.OPTIMAL
        assert res.value(x) == pytest.approx(3.0)

    def test_feasible_solution_satisfies_model(self, backend):
        m, _ = knapsack_model()
        res = SOLVE[backend](m)
        assert m.check_feasible(res.values)


class TestBackendAgreement:
    def test_random_small_milps_agree(self):
        import numpy as np

        rng = np.random.default_rng(42)
        for trial in range(8):
            m1 = Model(f"t{trial}")
            num_vars = 6
            xs = [m1.binary_var(name=f"x{i}") for i in range(num_vars)]
            weights = rng.integers(1, 10, size=num_vars)
            values = rng.integers(1, 10, size=num_vars)
            cap = int(weights.sum() // 2)
            m1.add(
                sum(int(w) * x for w, x in zip(weights, xs)) <= cap
            )
            m1.minimize(sum(-int(v) * x for v, x in zip(values, xs)))
            res_highs = m1.solve()
            res_bb = solve_branch_bound(m1)
            assert res_highs.status == SolveStatus.OPTIMAL
            assert res_bb.status == SolveStatus.OPTIMAL
            assert res_highs.objective == pytest.approx(res_bb.objective, abs=1e-6)


class TestSolveControls:
    def test_node_limit_respected(self):
        m, _ = knapsack_model()
        res = solve_branch_bound(m, node_limit=1)
        assert res.nodes is not None
        assert res.nodes <= 1

    def test_zero_node_budget_has_no_incumbent(self):
        m, _ = knapsack_model()
        res = solve_branch_bound(m, node_limit=0)
        assert res.status == SolveStatus.TIME_LIMIT
        assert res.nodes == 0

    def test_solver_named_in_result(self):
        m, _ = knapsack_model()
        assert m.solve().solver == "highs"
        with branch_and_bound():
            assert m.solve().solver == "branch_bound"
        assert m.solve().solver == "highs"
