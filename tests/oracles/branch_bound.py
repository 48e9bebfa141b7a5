"""A pure-Python branch-and-bound MILP solver: the MILP oracle.

Built on HiGHS LP relaxations through :func:`scipy.optimize.linprog`, it
cross-checks :meth:`repro.milp.Model.solve` (scipy's HiGHS MILP) on small
models and pins the golden MILP plan independently of the installed
HiGHS's branching.  It uses best-first search with most-fractional
branching and a simple LP-rounding primal heuristic, and stops on its
node budget alone, so a run is the same on any machine.

It is intended for models with tens of integer variables.  ``src`` has
no hook for it: :func:`branch_and_bound` swaps it in for HiGHS within a
``with`` block.
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
from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus

_INF = float("inf")
_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    bound: float
    tiebreak: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)


class _CooBuilder:
    """Accumulates constraint rows as COO triplets, then emits CSR."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._data: list[float] = []
        self._rhs: list[float] = []

    def add_row(self, coeffs: dict, rhs: float, sign: float = 1.0) -> None:
        row = len(self._rhs)
        for col, coef in coeffs.items():
            self._rows.append(row)
            self._cols.append(col)
            self._data.append(sign * coef)
        self._rhs.append(rhs)

    def build(self):
        """CSR matrix + rhs vector, or (None, None) when no rows exist."""
        if not self._rhs:
            return None, None
        matrix = sparse.coo_matrix(
            (self._data, (self._rows, self._cols)),
            shape=(len(self._rhs), self.num_vars),
        ).tocsr()
        return matrix, np.array(self._rhs)


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
    """Within the block, :meth:`Model.solve` runs :func:`solve_branch_bound`
    with ``node_limit`` nodes; the wall-clock ``time_limit`` it is given
    is ignored."""
    original = scipy_backend.solve_with_highs

    def solve(model, time_limit=None, mip_gap=None):
        return solve_branch_bound(model, mip_gap=mip_gap, node_limit=node_limit)

    scipy_backend.solve_with_highs = solve
    try:
        yield
    finally:
        scipy_backend.solve_with_highs = original


def solve_branch_bound(
    model: Model,
    mip_gap: float | None = None,
    node_limit: int = 200_000,
) -> SolveResult:
    """Solve ``model`` by best-first branch and bound over at most
    ``node_limit`` LP nodes (the root LP is not counted)."""
    compiled = model.compile()
    start = time.perf_counter()
    gap_target = mip_gap if mip_gap is not None else 1e-6

    objective = np.asarray(compiled.objective)
    int_mask = np.asarray(compiled.integrality, dtype=bool)
    base_lower = np.asarray(compiled.lower, dtype=float)
    base_upper = np.asarray(compiled.upper, dtype=float)

    # Split two-sided rows into <= / == matrices once, assembling COO
    # triplets directly — never materializing a dense num_vars-wide row
    # per constraint (the formulations are ~99% sparse at paper scale).
    ub = _CooBuilder(compiled.num_vars)
    eq = _CooBuilder(compiled.num_vars)
    for coeffs, row_lb, row_ub in compiled.rows:
        if row_lb == row_ub:
            eq.add_row(coeffs, row_lb, sign=1.0)
            continue
        if row_ub < _INF:
            ub.add_row(coeffs, row_ub, sign=1.0)
        if row_lb > -_INF:
            ub.add_row(coeffs, -row_lb, sign=-1.0)
    a_ub, b_ub = ub.build()
    a_eq, b_eq = eq.build()

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
        values = [float(v) for v in candidate]
        if model.check_feasible(values, tol=1e-6):
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
        values=[float(v) for v in best_x],
        solve_time=elapsed,
        gap=gap,
        nodes=explored,
    )
