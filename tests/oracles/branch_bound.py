"""A pure-Python branch-and-bound MILP solver: the MILP oracle.

Built on HiGHS LP relaxations through :func:`scipy.optimize.linprog`, it
solves the same :class:`~repro.milp.problem.MilpProblem` arrays as
:func:`repro.milp.scipy_backend.solve` (scipy's HiGHS MILP),
cross-checks it on small problems and pins the golden MILP plan
independently of the installed HiGHS's branching.  It uses best-first
search with most-fractional branching and a simple LP-rounding primal
heuristic (its candidates pass :func:`check_feasible`), and stops on
its node budget alone, so a run is the same on any machine.

It is intended for problems with tens of integer variables.  ``src``
has no hook for it: the MILP sharders call ``scipy_backend.solve``
through the module, and :func:`branch_and_bound` swaps that module
global for this solver within a ``with`` block.
"""

from __future__ import annotations

import heapq
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.milp import scipy_backend
from repro.milp.problem import MilpProblem
from repro.milp.result import SolveResult, SolveStatus

_INF = float("inf")
_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    bound: float
    tiebreak: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)


def check_feasible(
    problem: MilpProblem, values: np.ndarray, tol: float = 1e-6
) -> bool:
    """Whether ``values`` satisfies every bound, integrality and row of
    ``problem`` within ``tol``."""
    integer = problem.integrality.astype(bool)
    activity = problem.matrix @ values
    return bool(
        np.all(values >= problem.lower - tol)
        and np.all(values <= problem.upper + tol)
        and np.all(np.abs(values[integer] - np.round(values[integer])) <= tol)
        and np.all(activity >= problem.row_lower - tol)
        and np.all(activity <= problem.row_upper + tol)
    )


def _split_rows(problem: MilpProblem):
    """``A_ub, b_ub, A_eq, b_eq`` for :func:`scipy.optimize.linprog`, in
    row order: an equality row goes to ``A_eq``; any other row gives
    ``A_ub`` its upper side, then its negated lower side.  Empty
    halves are ``None``."""
    matrix = problem.matrix
    lo, hi = problem.row_lower, problem.row_upper
    eq = np.flatnonzero(lo == hi)
    upper = np.flatnonzero((lo != hi) & (hi < _INF))
    lower = np.flatnonzero((lo != hi) & (lo > -_INF))
    a_ub = b_ub = a_eq = b_eq = None
    rows = np.concatenate([upper, lower])
    if rows.size:
        order = np.lexsort((np.repeat([0, 1], [upper.size, lower.size]), rows))
        sign = np.repeat([1.0, -1.0], [upper.size, lower.size])[order]
        a_ub = sparse.diags(sign) @ matrix[rows[order]]
        b_ub = sign * np.concatenate([hi[upper], lo[lower]])[order]
    if eq.size:
        a_eq, b_eq = matrix[eq], lo[eq]
    return a_ub, b_ub, a_eq, b_eq


def _solve_lp(objective, a_ub, b_ub, a_eq, b_eq, lower, upper):
    """Solve one LP relaxation; returns (objective, x) or (None, None)."""
    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    if not result.success:
        return None, None
    return float(result.fun), result.x


@contextmanager
def branch_and_bound(node_limit: int = 200_000):
    """Within the block, ``scipy_backend.solve`` runs
    :func:`solve_branch_bound` with ``node_limit`` nodes; the wall-clock
    ``time_limit`` it is given is ignored."""
    original = scipy_backend.solve

    def solve(problem, time_limit=None, mip_gap=None):
        return solve_branch_bound(
            problem, mip_gap=mip_gap, node_limit=node_limit
        )

    scipy_backend.solve = solve
    try:
        yield
    finally:
        scipy_backend.solve = original


def solve_branch_bound(
    problem: MilpProblem,
    mip_gap: float | None = None,
    node_limit: int = 200_000,
) -> SolveResult:
    """Solve ``problem`` by best-first branch and bound over at most
    ``node_limit`` LP nodes (the root LP is not counted)."""
    start = time.perf_counter()
    gap_target = mip_gap if mip_gap is not None else 1e-6

    objective = problem.c
    int_mask = problem.integrality.astype(bool)
    base_lower = problem.lower
    base_upper = problem.upper
    a_ub, b_ub, a_eq, b_eq = _split_rows(problem)

    counter = itertools.count()
    root_obj, root_x = _solve_lp(
        objective, a_ub, b_ub, a_eq, b_eq, base_lower, base_upper
    )
    if root_x is None:
        return SolveResult(
            status=SolveStatus.INFEASIBLE,
            solver="branch_bound",
            solve_time=time.perf_counter() - start,
            message="root LP infeasible",
        )

    best_obj = _INF
    best_x: np.ndarray | None = None
    heap: list[_Node] = [_Node(root_obj, next(counter), base_lower, base_upper)]
    explored = 0

    def _try_incumbent(x: np.ndarray) -> None:
        """Round integers and accept the point if it stays feasible."""
        nonlocal best_obj, best_x
        candidate = x.copy()
        candidate[int_mask] = np.round(candidate[int_mask])
        if check_feasible(problem, candidate, tol=1e-6):
            obj = float(objective @ candidate)
            if obj < best_obj:
                best_obj = obj
                best_x = candidate

    while heap:
        if explored >= node_limit:
            break
        node = heapq.heappop(heap)
        if node.bound >= best_obj - abs(best_obj) * gap_target:
            continue  # pruned by incumbent
        lp_obj, lp_x = _solve_lp(
            objective, a_ub, b_ub, a_eq, b_eq, node.lower, node.upper
        )
        explored += 1
        if lp_x is None or lp_obj >= best_obj:
            continue

        fractional = np.where(
            int_mask & (np.abs(lp_x - np.round(lp_x)) > _INT_TOL)
        )[0]
        if fractional.size == 0:
            if lp_obj < best_obj:
                best_obj = lp_obj
                best_x = lp_x.copy()
                best_x[int_mask] = np.round(best_x[int_mask])
            continue

        _try_incumbent(lp_x)

        # Branch on the most fractional integer variable.
        fracs = np.abs(lp_x[fractional] - np.round(lp_x[fractional]))
        branch_var = int(fractional[np.argmax(np.minimum(fracs, 1 - fracs))])
        floor_val = np.floor(lp_x[branch_var])

        down_upper = node.upper.copy()
        down_upper[branch_var] = floor_val
        if node.lower[branch_var] <= floor_val:
            heapq.heappush(heap, _Node(lp_obj, next(counter), node.lower, down_upper))

        up_lower = node.lower.copy()
        up_lower[branch_var] = floor_val + 1
        if up_lower[branch_var] <= node.upper[branch_var]:
            heapq.heappush(heap, _Node(lp_obj, next(counter), up_lower, node.upper))

    elapsed = time.perf_counter() - start
    if best_x is None:
        status = SolveStatus.TIME_LIMIT if heap else SolveStatus.INFEASIBLE
        return SolveResult(
            status=status, solver="branch_bound", solve_time=elapsed,
            nodes=explored,
        )

    remaining_bound = min((n.bound for n in heap), default=best_obj)
    gap = abs(best_obj - remaining_bound) / max(1e-12, abs(best_obj))
    status = (
        SolveStatus.OPTIMAL if not heap or gap <= gap_target else SolveStatus.FEASIBLE
    )
    return SolveResult(
        status=status,
        solver="branch_bound",
        objective=best_obj,
        values=best_x,
        solve_time=elapsed,
        gap=gap,
        nodes=explored,
    )
