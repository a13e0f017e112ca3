"""Declarative (I)LP model builder.

The paper uses a commercial ILP solver (CPLEX) twice: for the knapsack
scratchpad allocation and — inside aiT's IPET stage — for the longest-path
problem.  The reproduction solves both with exact integer dynamic
programs; this package keeps the ILP route as their test oracle: a dense
two-phase simplex (:mod:`.simplex`) under branch & bound
(:mod:`.branch_bound`), fed by the paper's formulations
(:mod:`.formulations`).

Example::

    model = Model("knapsack", maximize=True)
    x1 = model.add_var("x1", lo=0, hi=1, integer=True)
    x2 = model.add_var("x2", lo=0, hi=1, integer=True)
    model.add_le({x1: 30, x2: 50}, 60)       # capacity
    model.set_objective({x1: 10, x2: 12})
    solution = model.solve()
    assert solution.is_optimal
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class Status:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class Var:
    """A decision variable (identified by model index)."""

    index: int
    name: str
    lo: float
    hi: float
    integer: bool

    def __repr__(self):
        return f"<Var {self.name}>"


@dataclass
class Solution:
    """Result of a solve."""

    status: str
    objective: float = math.nan
    values: dict = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status == Status.OPTIMAL

    def value(self, var) -> float:
        return self.values[var.name]

    def __getitem__(self, var):
        return self.values[var.name]


LE, GE, EQ = "<=", ">=", "=="


class Model:
    """A linear program with optional integrality restrictions."""

    def __init__(self, name="model", maximize=False):
        self.name = name
        self.maximize = maximize
        self.vars = []
        self.constraints = []   # (coeffs: {var_index: coef}, sense, rhs)
        self.objective = {}     # var_index -> coefficient

    # -- building -------------------------------------------------------------

    def add_var(self, name, lo=0.0, hi=math.inf, integer=False) -> Var:
        if lo > hi:
            raise ValueError(f"empty domain for {name}: [{lo}, {hi}]")
        if not math.isfinite(lo):
            raise ValueError(f"variable {name} needs a finite lower bound")
        var = Var(index=len(self.vars), name=name, lo=float(lo),
                  hi=float(hi), integer=integer)
        self.vars.append(var)
        return var

    def _coeff_map(self, coeffs):
        out = {}
        for var, coef in coeffs.items():
            if not isinstance(var, Var):
                raise TypeError(f"keys must be Var, got {var!r}")
            if coef:
                out[var.index] = out.get(var.index, 0.0) + float(coef)
        return out

    def add_le(self, coeffs, rhs):
        self.constraints.append((self._coeff_map(coeffs), LE, float(rhs)))

    def add_ge(self, coeffs, rhs):
        self.constraints.append((self._coeff_map(coeffs), GE, float(rhs)))

    def add_eq(self, coeffs, rhs):
        self.constraints.append((self._coeff_map(coeffs), EQ, float(rhs)))

    def set_objective(self, coeffs, maximize=None):
        self.objective = self._coeff_map(coeffs)
        if maximize is not None:
            self.maximize = maximize

    # -- solving ---------------------------------------------------------------

    def solve(self, integer=True) -> Solution:
        """Solve the model (ILP when *integer*, else the LP relaxation)."""
        from .branch_bound import solve_ilp
        from .simplex import solve_lp_model

        if integer and any(v.integer for v in self.vars):
            return solve_ilp(self)
        return solve_lp_model(self)

    # -- introspection -----------------------------------------------------------

    def stats(self) -> str:
        n_int = sum(1 for v in self.vars if v.integer)
        return (f"{self.name}: {len(self.vars)} vars ({n_int} integer), "
                f"{len(self.constraints)} constraints")
