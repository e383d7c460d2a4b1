"""Reference Section V assignment: the literal Fig. 4 network.

The library solves the capacitated assignment as a transportation
problem (:func:`repro.core.assign_min_tapping_cost`).  This builder
draws the paper's Fig. 4 min-cost-flow network — source → flip-flop →
candidate ring → target — and solves it with the successive-shortest-
path kernel :class:`oracles.mincostflow_ref.FlowNetwork`.  It is kept
only as the oracle the assignment tests compare the production engine
against: both must reach the same optimal total cost.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import numpy.typing as npt

from repro.core.cost import TappingCostMatrix
from repro.errors import AssignmentError

from oracles.mincostflow_ref import ArcRef, FlowNetwork


def assign_via_ssp(
    matrix: TappingCostMatrix, capacities: Sequence[int]
) -> npt.NDArray[np.intp]:
    """Build the literal Fig. 4 network and solve it with the SSP kernel."""
    net = FlowNetwork()
    n_ff = matrix.num_flipflops
    arc_of: dict[tuple[int, int], ArcRef] = {}
    for i in range(n_ff):
        net.add_arc("source", ("ff", i), capacity=1, cost=0.0)
        for j in matrix.candidates[i]:
            # A repeated candidate ring would add a parallel arc whose
            # ``arc_of`` entry overwrites the first; the unit of flow can
            # then sit on the shadowed arc and vanish from the readback,
            # leaving the flip-flop spuriously "unassigned".  The cost of
            # a duplicate is identical (same matrix column), so the first
            # arc is authoritative and duplicates are skipped.
            if (i, int(j)) in arc_of:
                continue
            arc_of[(i, int(j))] = net.add_arc(
                ("ff", i), ("ring", int(j)), capacity=1, cost=float(matrix.costs[i, j])
            )
    for j, cap in enumerate(capacities):
        net.add_arc(("ring", j), "target", capacity=int(cap), cost=0.0)
    result = net.solve({"source": n_ff, "target": -n_ff})
    assign = np.full(n_ff, -1, dtype=np.intp)
    for (i, j), ref in arc_of.items():
        if result.flow_on(ref) > 0:
            assign[i] = j
    if (assign < 0).any():
        raise AssignmentError("network flow left flip-flops unassigned")
    return assign
