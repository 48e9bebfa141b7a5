"""Mixed integer linear programming substrate.

The paper solves its sharding formulation with Gurobi.  Gurobi is not
available here, so this package provides the equivalent substrate from
scratch: a small modeling language (:class:`~repro.milp.model.Model`,
:class:`~repro.milp.model.Var`, :class:`~repro.milp.model.LinExpr`) that
compiles to scipy's HiGHS MILP solver.
"""

from repro.milp.model import Constraint, LinExpr, Model, Var
from repro.milp.result import SolveResult, SolveStatus

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "SolveResult",
    "SolveStatus",
    "Var",
]
