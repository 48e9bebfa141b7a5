"""Solver result containers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


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
    """Outcome of solving a :class:`~repro.milp.model.Model`.

    Attributes:
        status: terminal solver state.
        solver: name of the solver that produced the result (plans
            record it in their ``solver`` metadata).
        objective: objective value of the incumbent (``None`` without one).
        values: variable values indexed by variable position in the model.
        solve_time: wall-clock seconds spent in the solver.
        gap: relative MIP gap of the incumbent, when the solver reports it.
        nodes: number of branch-and-bound nodes explored, when known.
        message: free-form solver diagnostics.
    """

    status: SolveStatus
    solver: str = "highs"
    objective: float | None = None
    values: list[float] = field(default_factory=list)
    solve_time: float = 0.0
    gap: float | None = None
    nodes: int | None = None
    message: str = ""

    def value(self, var) -> float:
        """Return the incumbent value of ``var`` (a :class:`Var`)."""
        if not self.status.has_solution:
            raise ValueError(f"no solution available (status={self.status})")
        return self.values[var.index]
