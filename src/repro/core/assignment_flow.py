"""Flip-flop assignment minimizing total tapping cost (Section V).

The 0-1 program

    minimize   sum_ij c_ij x_ij
    subject to sum_j x_ij  = 1      (every flip-flop on exactly one ring)
               sum_i x_ij <= U_j    (ring capacity)

is totally unimodular and solved exactly as a min-cost network flow
(Fig. 4): ring columns replicated to capacity, solved by the
C-implemented rectangular assignment kernel
(:func:`repro.opt.solve_transportation`) — fast enough for the largest
benchmark.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from ..constants import Technology
from ..errors import AssignmentError
from ..geometry import Point
from ..obs import NULL_COLLECTOR, Collector
from ..opt.mincostflow import refine_assignment, solve_transportation
from ..rotary import RingArray
from .cost import (
    Assignment,
    TappingCostCache,
    TappingCostMatrix,
    realize_assignment,
)


def assign_min_tapping_cost(
    matrix: TappingCostMatrix,
    capacities: Sequence[int],
    warm_start: npt.NDArray[np.intp] | None = None,
    collector: Collector = NULL_COLLECTOR,
) -> npt.NDArray[np.intp]:
    """Optimal capacitated assignment; returns ``assign[i] = ring index``.

    ``warm_start`` (a previous iteration's assignment over the same
    flip-flop order) re-optimizes by exchange-graph cycle canceling —
    exactly optimal, and much cheaper than a cold solve when few rows
    need to move.  An unusable warm start (stale shape, rows now on
    forbidden arcs, capacity violations, too far from optimal) silently
    falls back to the cold path.
    """
    if len(capacities) != matrix.num_rings:
        raise AssignmentError(
            f"capacities has {len(capacities)} entries for {matrix.num_rings} rings"
        )
    if warm_start is not None:
        refined = refine_assignment(matrix.costs, np.asarray(capacities), warm_start)
        if refined is not None:
            collector.count("assignment.warm.accepted")
            return refined
        collector.count("assignment.warm.rejected")
    return solve_transportation(matrix.costs, np.asarray(capacities))


def network_flow_assignment(
    matrix: TappingCostMatrix,
    array: RingArray,
    positions: Mapping[str, Point],
    targets: Mapping[str, float],
    tech: Technology,
    capacities: Sequence[int] | None = None,
    cache: TappingCostCache | None = None,
    warm_start: npt.NDArray[np.intp] | None = None,
    collector: Collector = NULL_COLLECTOR,
) -> Assignment:
    """End-to-end Section V assignment returning realized tappings.

    With a ``cache`` (the integrated flow's), the realization reuses the
    tapping solutions computed during the matrix build.  ``warm_start``
    re-optimizes from a previous assignment (see
    :func:`assign_min_tapping_cost`).
    """
    caps = (
        array.default_capacities(matrix.num_flipflops)
        if capacities is None
        else list(capacities)
    )
    with collector.span("assignment.network-flow"):
        collector.count("assignment.flipflops", matrix.num_flipflops)
        collector.count(
            "assignment.candidate-arcs",
            sum(int(c.size) for c in matrix.candidates),
        )
        assign = assign_min_tapping_cost(
            matrix, caps, warm_start=warm_start, collector=collector
        )
        return realize_assignment(
            assign, matrix, array, positions, targets, tech, cache=cache
        )
