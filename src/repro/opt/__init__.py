"""Optimization kernels: LP/ILP facade, min-cost flow, B&B, graphs."""

from .branch_bound import BBResult, branch_and_bound
from .diffconstraints import (
    SkewConstraint,
    check_constraints,
    maximize_slack,
    solve_difference_constraints,
)
from .lp import LinearProgram, LPSolution
from .mincostflow import (
    FORBIDDEN_COST,
    ArcRef,
    FlowNetwork,
    FlowResult,
    refine_assignment,
    solve_transportation,
)

__all__ = [
    "LinearProgram",
    "LPSolution",
    "FlowNetwork",
    "FlowResult",
    "ArcRef",
    "FORBIDDEN_COST",
    "solve_transportation",
    "refine_assignment",
    "BBResult",
    "branch_and_bound",
    "SkewConstraint",
    "solve_difference_constraints",
    "maximize_slack",
    "check_constraints",
]
