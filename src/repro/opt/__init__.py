"""Optimization kernels: LP/ILP facade, min-cost flow, B&B, skew constraints."""

from .branch_bound import BBResult, branch_and_bound
from .diffconstraints import SkewConstraint
from .lp import LinearProgram, LPSolution
from .mincostflow import FORBIDDEN_COST, refine_assignment, solve_transportation

__all__ = [
    "LinearProgram",
    "LPSolution",
    "FORBIDDEN_COST",
    "solve_transportation",
    "refine_assignment",
    "BBResult",
    "branch_and_bound",
    "SkewConstraint",
]
