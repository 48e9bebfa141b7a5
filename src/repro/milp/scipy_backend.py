"""The HiGHS solver: hand a :class:`~repro.milp.problem.MilpProblem`'s
arrays to :func:`scipy.optimize.milp`."""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.problem import MilpProblem
from repro.milp.result import SolveResult, SolveStatus

# scipy.optimize.milp status codes (from HiGHS):
#   0 optimal, 1 iteration/time limit, 2 infeasible, 3 unbounded,
#   4 other (see the message).  Without an incumbent, a status missing
#   here is a solver error.
_NO_INCUMBENT = {
    1: SolveStatus.TIME_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def solve(
    problem: MilpProblem,
    time_limit: float | None = None,
    mip_gap: float | None = None,
) -> SolveResult:
    """Solve ``problem`` with scipy's HiGHS MILP solver.

    Args:
        time_limit: wall-clock limit in seconds.
        mip_gap: relative optimality gap at which to stop early.
    """
    start = time.perf_counter()
    options: dict = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)

    constraints = None
    if problem.num_rows:
        constraints = LinearConstraint(
            problem.matrix, problem.row_lower, problem.row_upper
        )
    result = milp(
        c=problem.c,
        integrality=problem.integrality,
        bounds=Bounds(problem.lower, problem.upper),
        constraints=constraints,
        options=options,
    )
    elapsed = time.perf_counter() - start
    nodes = getattr(result, "mip_node_count", None)
    message = str(result.message)

    if result.x is None:
        return SolveResult(
            status=_NO_INCUMBENT.get(result.status, SolveStatus.ERROR),
            solve_time=elapsed,
            nodes=nodes,
            message=message,
        )
    # A solution returned under a hit limit is an incumbent, not optimal.
    status = SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
    values = np.array(result.x, dtype=np.float64)
    # Snap integer variables that HiGHS leaves at 0.9999999 etc. (+ 0.0
    # turns a rounded -0.0 into 0.0).
    integer = problem.integrality.astype(bool)
    values[integer] = np.round(values[integer]) + 0.0
    return SolveResult(
        status=status,
        objective=float(result.fun),
        values=values,
        solve_time=elapsed,
        gap=getattr(result, "mip_gap", None),
        nodes=nodes,
        message=message,
    )
