"""A small MILP modeling language.

This is the substrate standing in for Gurobi's modeling API.  It supports
exactly what the RecShard formulation needs: bounded continuous and binary
variables, linear expressions with operator overloading, linear
constraints in ``<=``, ``>=`` and ``==`` senses, and a linear objective.

Models compile to a standard sparse matrix form and are solved by
scipy's HiGHS MILP solver (:func:`scipy.optimize.milp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.milp.result import SolveResult

_INF = float("inf")


class Var:
    """A decision variable.

    Create variables through :meth:`Model.continuous_var`,
    :meth:`Model.integer_var` or :meth:`Model.binary_var`; the model
    assigns the ``index`` used in the compiled matrix form.
    """

    __slots__ = ("name", "lb", "ub", "integer", "index")

    def __init__(self, name: str, lb: float, ub: float, integer: bool, index: int):
        self.name = name
        self.lb = lb
        self.ub = ub
        self.integer = integer
        self.index = index

    def __repr__(self) -> str:
        kind = "int" if self.integer else "cont"
        return f"Var({self.name!r}, [{self.lb}, {self.ub}], {kind})"

    # Arithmetic builds LinExpr objects; Var itself stays immutable.
    def _as_expr(self) -> "LinExpr":
        return LinExpr({self.index: 1.0}, 0.0)

    def __add__(self, other):
        return self._as_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._as_expr() - other

    def __rsub__(self, other):
        return (-1.0 * self._as_expr()) + other

    def __mul__(self, scalar):
        return self._as_expr() * scalar

    __rmul__ = __mul__

    def __neg__(self):
        return self._as_expr() * -1.0

    def __le__(self, other):
        return self._as_expr() <= other

    def __ge__(self, other):
        return self._as_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self._as_expr() == other

    def __hash__(self):
        return id(self)


class LinExpr:
    """A linear expression ``sum(coeff_i * var_i) + constant``.

    Internally a mapping from variable index to coefficient.  Supports
    ``+``, ``-``, scalar ``*`` and comparison operators that produce
    :class:`Constraint` objects.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: dict[int, float] | None = None, constant: float = 0.0):
        self.coeffs = coeffs if coeffs is not None else {}
        self.constant = constant

    @staticmethod
    def _coerce(other) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Var):
            return other._as_expr()
        if isinstance(other, (int, float)):
            return LinExpr({}, float(other))
        raise TypeError(f"cannot use {type(other).__name__} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant)

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.coeffs)
        for idx, coef in other.coeffs.items():
            merged[idx] = merged.get(idx, 0.0) + coef
        return LinExpr(merged, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other):
        return self._coerce(other) + (self * -1.0)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise TypeError("LinExpr only supports multiplication by scalars")
        scalar = float(scalar)
        return LinExpr(
            {idx: coef * scalar for idx, coef in self.coeffs.items()},
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __le__(self, other):
        return Constraint(self - self._coerce(other), "<=")

    def __ge__(self, other):
        return Constraint(self - self._coerce(other), ">=")

    def __eq__(self, other):  # type: ignore[override]
        return Constraint(self - self._coerce(other), "==")

    def __hash__(self):
        return id(self)

    def value(self, values: list[float]) -> float:
        """Evaluate the expression against a variable value vector."""
        total = self.constant
        for idx, coef in self.coeffs.items():
            total += coef * values[idx]
        return total

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


def lin_sum(terms: Iterable) -> LinExpr:
    """Sum variables/expressions efficiently (avoids quadratic dict merges)."""
    coeffs: dict[int, float] = {}
    constant = 0.0
    for term in terms:
        if isinstance(term, Var):
            coeffs[term.index] = coeffs.get(term.index, 0.0) + 1.0
        elif isinstance(term, LinExpr):
            for idx, coef in term.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) + coef
            constant += term.constant
        else:
            constant += float(term)
    return LinExpr(coeffs, constant)


@dataclass
class Constraint:
    """A linear constraint ``expr (sense) 0`` with the rhs folded in."""

    expr: LinExpr
    sense: str  # one of "<=", ">=", "=="
    name: str = ""

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"invalid constraint sense: {self.sense!r}")

    def violation(self, values: list[float]) -> float:
        """Amount by which ``values`` violates this constraint (0 if satisfied)."""
        lhs = self.expr.value(values)
        if self.sense == "<=":
            return max(0.0, lhs)
        if self.sense == ">=":
            return max(0.0, -lhs)
        return abs(lhs)


@dataclass
class _CompiledModel:
    """Model lowered to matrix form (built lazily by the solver)."""

    num_vars: int
    objective: list[float]
    integrality: list[int]
    lower: list[float]
    upper: list[float]
    rows: list[tuple[dict[int, float], float, float]]  # (coeffs, lb, ub)


class Model:
    """A minimization MILP under construction."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()

    # ------------------------------------------------------------------
    # Variable creation
    # ------------------------------------------------------------------
    def continuous_var(self, lb: float = 0.0, ub: float = _INF, name: str = "") -> Var:
        return self._add_var(lb, ub, integer=False, name=name)

    def integer_var(self, lb: float = 0.0, ub: float = _INF, name: str = "") -> Var:
        return self._add_var(lb, ub, integer=True, name=name)

    def binary_var(self, name: str = "") -> Var:
        return self._add_var(0.0, 1.0, integer=True, name=name)

    def _add_var(self, lb: float, ub: float, integer: bool, name: str) -> Var:
        if lb > ub:
            raise ValueError(f"variable {name!r} has lb {lb} > ub {ub}")
        var = Var(
            name or f"x{len(self.variables)}", lb, ub, integer, len(self.variables)
        )
        self.variables.append(var)
        return var

    # ------------------------------------------------------------------
    # Constraints and objective
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "Model.add expects a Constraint (built from expr <= / >= / == rhs)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def minimize(self, expr) -> None:
        self._objective = LinExpr._coerce(expr).copy()

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def num_binary(self) -> int:
        return sum(1 for v in self.variables if v.integer and v.lb == 0 and v.ub == 1)

    def compile(self) -> _CompiledModel:
        """Lower to matrix form for the solver."""
        num_vars = len(self.variables)
        objective = [0.0] * num_vars
        for idx, coef in self._objective.coeffs.items():
            objective[idx] = coef
        integrality = [1 if v.integer else 0 for v in self.variables]
        lower = [v.lb for v in self.variables]
        upper = [v.ub for v in self.variables]
        rows: list[tuple[dict[int, float], float, float]] = []
        for con in self.constraints:
            rhs = -con.expr.constant
            if con.sense == "<=":
                rows.append((con.expr.coeffs, -_INF, rhs))
            elif con.sense == ">=":
                rows.append((con.expr.coeffs, rhs, _INF))
            else:
                rows.append((con.expr.coeffs, rhs, rhs))
        return _CompiledModel(num_vars, objective, integrality, lower, upper, rows)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self, time_limit: float | None = None, mip_gap: float | None = None
    ) -> SolveResult:
        """Solve the model with HiGHS and return a :class:`SolveResult`.

        Args:
            time_limit: wall-clock limit in seconds.
            mip_gap: relative optimality gap at which to stop early.
        """
        from repro.milp.scipy_backend import solve_with_highs

        return solve_with_highs(self, time_limit=time_limit, mip_gap=mip_gap)

    def check_feasible(self, values: list[float], tol: float = 1e-6) -> bool:
        """Whether ``values`` satisfies every constraint and bound."""
        for var in self.variables:
            val = values[var.index]
            if val < var.lb - tol or val > var.ub + tol:
                return False
            if var.integer and abs(val - round(val)) > tol:
                return False
        return all(con.violation(values) <= tol for con in self.constraints)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={len(self.variables)} "
            f"(int={sum(v.integer for v in self.variables)}), "
            f"constraints={len(self.constraints)})"
        )
