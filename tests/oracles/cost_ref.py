"""Reference tapping-cost matrix: one scalar tapping solve per arc.

This is the builder the production
:func:`repro.core.tapping_cost_matrix` replaced with one pair-batched
kernel call over every candidate (flip-flop, ring) arc.  It walks the
flip-flops in Python and solves each arc with
:func:`repro.rotary.best_tapping`, so it is several times slower, and it
is kept only as the oracle the equivalence tests and the cost-matrix
perf guard compare against: the production builder must return exactly
this matrix, bit for bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.constants import Technology
from repro.core.cost import TappingCostMatrix, _validated_names
from repro.geometry import Point
from repro.opt.mincostflow import FORBIDDEN_COST
from repro.rotary import RingArray, best_tapping


def tapping_cost_matrix(
    array: RingArray,
    positions: Mapping[str, Point],
    targets: Mapping[str, float],
    tech: Technology,
    candidate_rings: int | None = 8,
) -> TappingCostMatrix:
    """Cost matrix of every flip-flop against its ``candidate_rings``
    nearest rings (all rings when ``None``); pruned arcs stay
    ``FORBIDDEN_COST``."""
    ff_names = _validated_names(positions, targets)
    costs = np.full((len(ff_names), array.num_rings), FORBIDDEN_COST)
    for i, name in enumerate(ff_names):
        p = positions[name]
        rings = (
            array.rings
            if candidate_rings is None
            else array.rings_by_distance(p, candidate_rings)
        )
        for ring in rings:
            sol = best_tapping(ring, p, targets[name], tech)
            costs[i, ring.ring_id] = sol.wirelength
    return TappingCostMatrix(ff_names=ff_names, costs=costs)
