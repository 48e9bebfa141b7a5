"""Solver tests: HiGHS (``scipy_backend.solve``) and the branch-and-bound
oracle, on problems written as arrays."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from repro.milp import MilpProblem, SolveStatus, scipy_backend
from tests.oracles.branch_bound import (
    _split_rows,
    branch_and_bound,
    check_feasible,
    solve_branch_bound,
)

BACKENDS = ["highs", "branch_bound"]
SOLVE = {"highs": scipy_backend.solve, "branch_bound": solve_branch_bound}
INF = np.inf


def problem(c, matrix, row_lower, row_upper, upper, integer=True):
    """``min c @ x`` over ``0 <= x <= upper``, every column integral or
    every column continuous."""
    return MilpProblem(
        c=c,
        integrality=[int(integer)] * len(c),
        lower=[0.0] * len(c),
        upper=upper,
        matrix=matrix,
        row_lower=row_lower,
        row_upper=row_upper,
    )


def knapsack_problem():
    """max 10a + 6b + 4c s.t. a+b+c<=2 (binary) => min of negative."""
    return problem([-10, -6, -4], [[1, 1, 1]], [-INF], [2], [1, 1, 1])


@pytest.mark.parametrize("backend", BACKENDS)
class TestBothBackends:
    def test_lp_only(self, backend):
        p = problem([-1, -2], [[1, 1]], [-INF], [8], [10, 10], integer=False)
        res = SOLVE[backend](p)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-16.0)  # y=8, x=0 maximizes
        assert res.values[1] == pytest.approx(8.0)

    def test_knapsack(self, backend):
        res = SOLVE[backend](knapsack_problem())
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-16.0)
        assert res.values == pytest.approx([1.0, 1.0, 0.0])

    def test_infeasible_detected(self, backend):
        res = SOLVE[backend](problem([1], [[1]], [2], [INF], [1], integer=False))
        assert res.status == SolveStatus.INFEASIBLE
        assert not res.status.has_solution
        assert res.values.size == 0

    def test_equality_constraints(self, backend):
        # x + y == 7, x - y == 1
        p = problem([1, 0], [[1, 1], [1, -1]], [7, 1], [7, 1], [10, 10])
        res = SOLVE[backend](p)
        assert res.status == SolveStatus.OPTIMAL
        assert res.values == pytest.approx([4.0, 3.0])

    def test_integer_rounding_forced(self, backend):
        # LP relaxation optimum is fractional; MILP must branch.
        res = SOLVE[backend](problem([-1], [[2]], [-INF], [7], [10]))
        assert res.status == SolveStatus.OPTIMAL
        assert res.values[0] == pytest.approx(3.0)

    def test_feasible_solution_satisfies_problem(self, backend):
        knapsack = knapsack_problem()
        res = SOLVE[backend](knapsack)
        assert check_feasible(knapsack, res.values)


class TestBackendAgreement:
    def test_random_small_milps_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            num_vars = 6
            weights = rng.integers(1, 10, size=num_vars)
            values = rng.integers(1, 10, size=num_vars)
            cap = int(weights.sum() // 2)
            p = problem(-values, [weights], [-INF], [cap], [1] * num_vars)
            res_highs = scipy_backend.solve(p)
            res_bb = solve_branch_bound(p)
            assert res_highs.status == SolveStatus.OPTIMAL
            assert res_bb.status == SolveStatus.OPTIMAL
            assert res_highs.objective == pytest.approx(res_bb.objective, abs=1e-6)


class TestSolveControls:
    def test_node_limit_respected(self):
        res = solve_branch_bound(knapsack_problem(), node_limit=1)
        assert res.nodes is not None
        assert res.nodes <= 1

    def test_zero_node_budget_has_no_incumbent(self):
        res = solve_branch_bound(knapsack_problem(), node_limit=0)
        assert res.status == SolveStatus.TIME_LIMIT
        assert res.nodes == 0

    def test_solver_named_in_result(self):
        knapsack = knapsack_problem()
        assert scipy_backend.solve(knapsack).solver == "highs"
        with branch_and_bound():
            assert scipy_backend.solve(knapsack).solver == "branch_bound"
        assert scipy_backend.solve(knapsack).solver == "highs"


def highs_error(monkeypatch, message="HiGHS reported an error", status=4, x=None):
    """Make scipy's milp return ``status`` (default 4, "Other") with the
    incumbent ``x`` (default none)."""

    def milp(**_):
        return OptimizeResult(
            status=status, success=False, x=x,
            fun=None if x is None else 0.0, message=message,
        )

    monkeypatch.setattr(scipy_backend, "milp", milp)
    return message


class TestHighsStatus:
    @pytest.mark.parametrize(
        "status, expected",
        [
            (1, SolveStatus.TIME_LIMIT),
            (2, SolveStatus.INFEASIBLE),
            (3, SolveStatus.UNBOUNDED),
            (4, SolveStatus.ERROR),  # not a time limit
        ],
    )
    def test_status_without_incumbent(self, monkeypatch, status, expected):
        message = highs_error(monkeypatch, status=status)
        res = scipy_backend.solve(knapsack_problem(), time_limit=5)
        assert res.status == expected
        assert not res.status.has_solution
        assert res.message == message

    def test_incumbent_under_a_limit_is_feasible_and_snapped(self, monkeypatch):
        highs_error(monkeypatch, status=1, x=np.array([0.9999999, -1e-9, 0.0]))
        p = knapsack_problem()
        p.integrality[2] = 0
        res = scipy_backend.solve(p, time_limit=5)
        assert res.status == SolveStatus.FEASIBLE
        # Integer columns are rounded (a rounded -0.0 reads 0.0); the
        # continuous one is left alone.
        assert res.values.tolist() == [1.0, 0.0, 0.0]
        assert not np.signbit(res.values[1])


class TestMilpProblem:
    def test_lists_are_coerced(self):
        p = knapsack_problem()
        assert (p.num_vars, p.num_rows) == (3, 1)
        assert p.c.dtype == p.lower.dtype == p.row_upper.dtype == np.float64
        assert p.integrality.dtype == np.uint8
        assert p.matrix.format == "csr"
        assert p.matrix.shape == (1, 3)


class TestOracleChecks:
    @pytest.mark.parametrize(
        "values, feasible",
        [
            ([1, 1, 0], True),
            ([2, 0, 0], False),  # above a variable bound
            ([0.5, 0, 0], False),  # fractional integer column
            ([1, 1, 1], False),  # violates a + b + c <= 2
        ],
    )
    def test_check_feasible(self, values, feasible):
        assert check_feasible(knapsack_problem(), np.array(values, float)) is feasible

    def test_rows_split_for_linprog_in_row_order(self):
        # rows: equality, two-sided, upper-only, lower-only
        p = problem(
            [0, 0], [[1, 0], [0, 1], [1, 1], [2, 0]],
            [1, 2, -INF, 4], [1, 3, 5, INF], [9, 9],
        )
        a_ub, b_ub, a_eq, b_eq = _split_rows(p)
        # The two-sided row gives its upper side, then its negated lower.
        assert a_ub.toarray().tolist() == [[0, 1], [0, -1], [1, 1], [-2, 0]]
        assert b_ub.tolist() == [3, -2, 5, -4]
        assert a_eq.toarray().tolist() == [[1, 0]]
        assert b_eq.tolist() == [1]
