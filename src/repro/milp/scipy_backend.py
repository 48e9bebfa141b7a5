"""The HiGHS solver: compile a :class:`repro.milp.Model` to scipy.optimize.milp."""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus

# scipy.optimize.milp status codes (from HiGHS):
#   0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded, 4 other
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def _build_constraint_matrix(
    compiled,
) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Assemble the sparse row-major constraint matrix and its bounds."""
    data: list[float] = []
    row_idx: list[int] = []
    col_idx: list[int] = []
    lbs: list[float] = []
    ubs: list[float] = []
    for row, (coeffs, lb, ub) in enumerate(compiled.rows):
        for col, coef in coeffs.items():
            if coef != 0.0:
                data.append(coef)
                row_idx.append(row)
                col_idx.append(col)
        lbs.append(lb)
        ubs.append(ub)
    matrix = sparse.csr_matrix(
        (data, (row_idx, col_idx)), shape=(len(compiled.rows), compiled.num_vars)
    )
    return matrix, np.asarray(lbs), np.asarray(ubs)


def solve_with_highs(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float | None = None,
) -> SolveResult:
    """Solve ``model`` with scipy's HiGHS MILP solver."""
    compiled = model.compile()
    start = time.perf_counter()

    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)

    constraints = None
    if compiled.rows:
        matrix, lbs, ubs = _build_constraint_matrix(compiled)
        constraints = LinearConstraint(matrix, lbs, ubs)

    result = milp(
        c=np.asarray(compiled.objective),
        integrality=np.asarray(compiled.integrality),
        bounds=Bounds(np.asarray(compiled.lower), np.asarray(compiled.upper)),
        constraints=constraints,
        options=options,
    )
    elapsed = time.perf_counter() - start

    if result.x is not None:
        status = _STATUS_MAP.get(result.status, SolveStatus.FEASIBLE)
        # A solution returned under a hit limit is an incumbent, not optimal.
        if result.status == 1:
            status = SolveStatus.FEASIBLE
        values = [float(v) for v in result.x]
        # Snap integer variables that HiGHS leaves at 0.9999999 etc.
        for var in model.variables:
            if var.integer:
                values[var.index] = float(round(values[var.index]))
        return SolveResult(
            status=status,
            objective=float(result.fun),
            values=values,
            solve_time=elapsed,
            gap=getattr(result, "mip_gap", None),
            nodes=getattr(result, "mip_node_count", None),
            message=str(result.message),
        )

    status = _STATUS_MAP.get(result.status, SolveStatus.TIME_LIMIT)
    if result.status == 1:
        status = SolveStatus.TIME_LIMIT
    return SolveResult(
        status=status, solve_time=elapsed, message=str(result.message)
    )
