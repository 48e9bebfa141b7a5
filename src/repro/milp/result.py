"""Solver result containers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

class SolveStatus(enum.Enum):
    """Terminal state of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found, optimality not proven
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"  # time limit hit with no incumbent
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether a usable variable assignment accompanies this status."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    """Outcome of solving a :class:`~repro.milp.problem.MilpProblem`.

    Attributes:
        status: terminal solver state.
        solver: name of the solver that produced the result (plans
            record it in their ``solver`` metadata).
        objective: objective value of the incumbent (``None`` without one).
        values: the incumbent, indexed by column (empty without one).
        solve_time: wall-clock seconds spent in the solver.
        gap: relative MIP gap of the incumbent, when the solver reports it.
        nodes: number of branch-and-bound nodes explored, when known.
        message: free-form solver diagnostics.
    """

    status: SolveStatus
    solver: str = "highs"
    objective: float | None = None
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    solve_time: float = 0.0
    gap: float | None = None
    nodes: int | None = None
    message: str = ""
