"""The (I)LP oracle: two-phase simplex + branch & bound (CPLEX role).

The shipped solvers are exact integer dynamic programs; this solver and
the paper's formulations (:mod:`.formulations`) are their reference.
"""

from .model import EQ, GE, LE, Model, Solution, Status, Var
from .simplex import solve_lp, solve_lp_model
from .branch_bound import solve_ilp

__all__ = [
    "EQ", "GE", "LE", "Model", "Solution", "Status", "Var",
    "solve_lp", "solve_lp_model", "solve_ilp",
]
