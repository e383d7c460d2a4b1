"""Difference constraints of the Section VII skew problem.

A system of :class:`SkewConstraint` rows

    t_left - t_right <= bound - slack_coeff * M

is feasible for a given slack ``M`` iff its constraint graph has no
negative cycle.  :mod:`repro.timing.constraints` builds the rows and
:mod:`repro.analysis.constraint_graph` finds the negative cycles; the
flow itself solves the max-slack LP (:mod:`repro.core.skew_traditional`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Shared relaxation threshold for every negative-cycle detector over
#: skew constraint graphs.  The diagnostic Bellman-Ford in
#: ``repro.analysis.constraint_graph`` and the SPFA feasibility oracle
#: its tests cross-check against must use the *same* epsilon, or a
#: cycle whose weight falls between the two thresholds gets opposite
#: verdicts (found by the hypothesis cross-check at ~-8e-10).
RELAXATION_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class SkewConstraint:
    """One difference constraint: ``t[left] - t[right] <= bound - slack_coeff*M``."""

    left: str
    right: str
    bound: float
    slack_coeff: float = 1.0


__all__ = ["RELAXATION_EPS", "SkewConstraint"]
