"""Mixed integer linear programming substrate.

The paper solves its sharding formulation with Gurobi.  Gurobi is not
available here, so models are built directly in the matrix form that
scipy's HiGHS MILP solver takes: a :class:`~repro.milp.problem.MilpProblem`
holds the objective, integrality, variable bounds and one sparse
constraint matrix with row bounds, and
:func:`~repro.milp.scipy_backend.solve` hands those arrays to
:func:`scipy.optimize.milp`.
"""

from repro.milp.problem import MilpProblem
from repro.milp.result import SolveResult, SolveStatus

__all__ = [
    "MilpProblem",
    "SolveResult",
    "SolveStatus",
]
