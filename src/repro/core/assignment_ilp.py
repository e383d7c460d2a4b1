"""Flip-flop assignment minimizing maximum ring load capacitance (§VI).

The min-max ILP of eq. (3):

    minimize   C_max
    subject to sum_j x_ij = 1                 (each flip-flop one ring)
               sum_i C_p^ij x_ij <= C_max     (per ring)
               x_ij in {0, 1}

Since the operating frequency of a rotary ring is ``1/(2 sqrt(L C))``,
minimizing the worst per-ring load capacitance maximizes the achievable
frequency — the formulation for speed-critical designs.

Solved by **LP relaxation + greedy rounding** (Fig. 5): relax to
``0 <= x <= 1``, solve the LP, keep integral rows, and round each
fractional flip-flop to its largest ``x_ij``.  The *integrality gap*
``IG = SOLN(ILP) / OPT(LP)`` (eq. 4) measures rounding quality; Table I
compares it against a generic ILP solver under a time limit, reproduced
here by :func:`generic_ilp_assignment` (branch & bound).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from ..constants import Technology
from ..errors import AssignmentError
from ..geometry import Point
from ..obs import NULL_COLLECTOR, Collector
from ..opt.branch_bound import branch_and_bound
from ..opt.lp import LinearProgram
from ..opt.mincostflow import FORBIDDEN_COST
from ..rotary import RingArray
from .cost import (
    Assignment,
    TappingCostCache,
    TappingCostMatrix,
    realize_assignment,
)


@dataclass(frozen=True, slots=True)
class MinMaxCapResult:
    """Outcome of the LP-relaxation / rounding pipeline."""

    assign: npt.NDArray[np.intp]
    #: OPT(LP): optimal objective of the relaxation (fF).
    lp_bound: float
    #: SOLN(ILP): max ring load of the rounded solution (fF).
    ilp_value: float
    #: Fraction of flip-flops whose LP row was already integral.
    integral_fraction: float
    solve_seconds: float

    @property
    def integrality_gap(self) -> float:
        """IG of eq. (4); >= 1 by LP duality."""
        if self.lp_bound <= 0.0:
            return 1.0
        return self.ilp_value / self.lp_bound

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (experiment checkpoints)."""
        return {
            "assign": [int(j) for j in self.assign],
            "lp_bound": self.lp_bound,
            "ilp_value": self.ilp_value,
            "integral_fraction": self.integral_fraction,
            "solve_seconds": self.solve_seconds,
        }

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "MinMaxCapResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        return cls(
            assign=np.asarray(
                [int(j) for j in data["assign"]], dtype=np.intp
            ),
            lp_bound=float(data["lp_bound"]),
            ilp_value=float(data["ilp_value"]),
            integral_fraction=float(data["integral_fraction"]),
            solve_seconds=float(data["solve_seconds"]),
        )


def _candidate_lists(
    cap_matrix: npt.NDArray[np.float64],
    candidates: Sequence[npt.NDArray[np.intp]] | None = None,
) -> list[npt.NDArray[np.intp]]:
    """Per flip-flop, the rings with finite (non-pruned) capacitance.

    Pass the candidate columns of a :class:`TappingCostMatrix` to skip
    re-scanning the dense matrix; rows are validated either way.
    """
    if candidates is not None:
        out = list(candidates)
        for i, rings in enumerate(out):
            if rings.size == 0:
                raise AssignmentError(f"flip-flop row {i} has no candidate ring")
        return out
    out: list[npt.NDArray[np.intp]] = []
    for i in range(cap_matrix.shape[0]):
        rings = np.flatnonzero(cap_matrix[i] < FORBIDDEN_COST)
        if rings.size == 0:
            raise AssignmentError(f"flip-flop row {i} has no candidate ring")
        out.append(rings)
    return out


def build_minmax_lp(
    cap_matrix: npt.NDArray[np.float64],
    integer: bool = False,
    candidates: Sequence[npt.NDArray[np.intp]] | None = None,
) -> tuple[LinearProgram, list[npt.NDArray[np.intp]]]:
    """The eq. (3) model over the pruned capacitance matrix."""
    n_ff, n_rings = cap_matrix.shape
    candidates = _candidate_lists(cap_matrix, candidates)
    lp = LinearProgram("minmax_load_cap")
    lp.add_var("cmax", lb=0.0)
    for i in range(n_ff):
        for j in candidates[i]:
            lp.add_var(f"x_{i}_{j}", lb=0.0, ub=1.0, integer=integer)
    ring_coeffs: list[dict[str, float]] = [
        {"cmax": -1.0} for _ in range(n_rings)
    ]
    for i in range(n_ff):
        lp.add_constraint(
            {f"x_{i}_{j}": 1.0 for j in candidates[i]}, "==", 1.0
        )
        for j in candidates[i]:
            ring_coeffs[j][f"x_{i}_{j}"] = float(cap_matrix[i, j])
    for coeffs in ring_coeffs:
        if len(coeffs) > 1:
            lp.add_constraint(coeffs, "<=", 0.0)
    lp.set_objective({"cmax": 1.0})
    return lp, candidates


def greedy_rounding(
    x_lp: Mapping[str, float],
    candidates: list[npt.NDArray[np.intp]],
) -> npt.NDArray[np.intp]:
    """Fig. 5: keep integral rows; round fractional rows to the max x_ij.

    Linear in (#flip-flops x #candidate rings); always feasible because
    every row sums to one in the LP solution.
    """
    n_ff = len(candidates)
    assign = np.full(n_ff, -1, dtype=np.intp)
    for i, rings in enumerate(candidates):
        best_j = -1
        best_val = -1.0
        for j in rings:
            val = x_lp.get(f"x_{i}_{j}", 0.0)
            if val >= 1.0 - 1e-9:  # step 1.1: already integral
                best_j, best_val = int(j), val
                break
            if val > best_val:
                best_j, best_val = int(j), val
        assign[i] = best_j
    return assign


def _max_load(cap_matrix: npt.NDArray[np.float64], assign: npt.NDArray[np.intp]) -> float:
    n_rings = cap_matrix.shape[1]
    loads = np.zeros(n_rings)
    for i, j in enumerate(assign):
        loads[j] += cap_matrix[i, j]
    return float(loads.max()) if loads.size else 0.0


def solve_minmax_cap(
    cap_matrix: npt.NDArray[np.float64],
    candidates: Sequence[npt.NDArray[np.intp]] | None = None,
) -> MinMaxCapResult:
    """LP relaxation + greedy rounding on a capacitance matrix."""
    start = time.monotonic()
    lp, candidates = build_minmax_lp(cap_matrix, integer=False, candidates=candidates)
    sol = lp.solve()
    integral = 0
    for i, rings in enumerate(candidates):
        if any(sol.values.get(f"x_{i}_{j}", 0.0) >= 1.0 - 1e-9 for j in rings):
            integral += 1
    assign = greedy_rounding(sol.values, candidates)
    ilp_value = _max_load(cap_matrix, assign)
    return MinMaxCapResult(
        assign=assign,
        lp_bound=float(sol.objective),
        ilp_value=ilp_value,
        integral_fraction=integral / max(len(candidates), 1),
        solve_seconds=time.monotonic() - start,
    )


def local_search_minmax(
    cap_matrix: npt.NDArray[np.float64],
    assign: npt.NDArray[np.intp],
    max_rounds: int = 200,
) -> npt.NDArray[np.intp]:
    """Relocate/swap local search on a feasible min-max-cap assignment.

    Repeatedly takes the most loaded ring and tries to relocate one of its
    flip-flops (or swap it with a flip-flop elsewhere) so the maximum ring
    load strictly decreases.  Never worsens the solution; tightens greedy
    rounding's gap on instances where a few heavy rows pile up.
    """
    assign = assign.copy()
    n_ff, n_rings = cap_matrix.shape
    candidates = _candidate_lists(cap_matrix)
    loads = np.zeros(n_rings)
    for i, j in enumerate(assign):
        loads[j] += cap_matrix[i, j]

    for _ in range(max_rounds):
        worst = int(loads.argmax())
        worst_load = loads[worst]
        members = [i for i in range(n_ff) if assign[i] == worst]
        best_delta = 0.0
        best_action: tuple[str, int, int] | None = None
        for i in members:
            ci_here = cap_matrix[i, worst]
            for j in candidates[i]:
                if j == worst:
                    continue
                # Relocation: worst drops by ci_here; ring j rises.
                new_j = loads[j] + cap_matrix[i, j]
                new_max = max(worst_load - ci_here, new_j)
                delta = worst_load - new_max
                if delta > best_delta + 1e-12:
                    best_delta = delta
                    best_action = ("move", i, int(j))
        if best_action is None:
            break
        _, i, j = best_action
        loads[worst] -= cap_matrix[i, worst]
        loads[j] += cap_matrix[i, j]
        assign[i] = j
    return assign


def solve_minmax_cap_refined(
    cap_matrix: npt.NDArray[np.float64],
) -> MinMaxCapResult:
    """Greedy rounding followed by min-max local search.

    Same contract as :func:`solve_minmax_cap`; the returned solution is
    never worse.
    """
    base = solve_minmax_cap(cap_matrix)
    start = time.monotonic()
    refined = local_search_minmax(cap_matrix, base.assign)
    value = _max_load(cap_matrix, refined)
    return MinMaxCapResult(
        assign=refined,
        lp_bound=base.lp_bound,
        ilp_value=min(value, base.ilp_value),
        integral_fraction=base.integral_fraction,
        solve_seconds=base.solve_seconds + time.monotonic() - start,
    )


@dataclass(frozen=True, slots=True)
class GenericIlpResult:
    """Outcome of the generic (Table I comparator) ILP solver."""

    assign: npt.NDArray[np.intp] | None
    objective: float
    status: str
    solve_seconds: float
    nodes_explored: int


def generic_ilp_assignment(
    cap_matrix: npt.NDArray[np.float64],
    time_limit: float | None = 60.0,
) -> GenericIlpResult:
    """Solve eq. (3) with a *generic* exact solver under a time limit.

    This reproduces the Table I comparator (the paper used GLPK bounded
    to 10 hours and reported its best feasible solution; on three of five
    circuits it produced none) with the library's branch & bound.
    """
    lp, candidates = build_minmax_lp(cap_matrix, integer=True)
    result = branch_and_bound(lp, time_limit=time_limit)
    if result.status == "no_solution":
        return GenericIlpResult(
            assign=None,
            objective=float("inf"),
            status="no_solution",
            solve_seconds=result.elapsed_seconds,
            nodes_explored=result.nodes_explored,
        )
    assign = _extract_assign(result.values, candidates)
    return GenericIlpResult(
        assign=assign,
        objective=_max_load(cap_matrix, assign),
        status=result.status,
        solve_seconds=result.elapsed_seconds,
        nodes_explored=result.nodes_explored,
    )


def _extract_assign(
    values: Mapping[str, float], candidates: list[npt.NDArray[np.intp]]
) -> npt.NDArray[np.intp]:
    assign = np.full(len(candidates), -1, dtype=np.intp)
    for i, rings in enumerate(candidates):
        best_j, best_val = -1, -1.0
        for j in rings:
            val = values.get(f"x_{i}_{j}", 0.0)
            if val > best_val:
                best_j, best_val = int(j), val
        assign[i] = best_j
    return assign


def ilp_assignment(
    matrix: TappingCostMatrix,
    array: RingArray,
    positions: Mapping[str, Point],
    targets: Mapping[str, float],
    tech: Technology,
    cache: TappingCostCache | None = None,
    collector: Collector = NULL_COLLECTOR,
) -> tuple[Assignment, MinMaxCapResult]:
    """End-to-end Section VI assignment (LP relax + greedy rounding).

    The LP model consumes the matrix's candidate columns directly and the
    realization reuses cached tapping solutions when a ``cache`` is given.
    """
    with collector.span("assignment.ilp"):
        collector.count("assignment.flipflops", matrix.num_flipflops)
        cap_matrix = matrix.capacitance_matrix(tech)
        result = solve_minmax_cap(cap_matrix, candidates=matrix.candidates)
        collector.gauge("assignment.ilp.lp-bound-ff", result.lp_bound)
        collector.gauge("assignment.ilp.value-ff", result.ilp_value)
        collector.gauge(
            "assignment.ilp.integral-fraction", result.integral_fraction
        )
        assignment = realize_assignment(
            result.assign, matrix, array, positions, targets, tech, cache=cache
        )
        return assignment, result
