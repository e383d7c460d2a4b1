"""Static analysis of the Section VII skew difference-constraint system.

The setup/hold constraints ``t_left - t_right <= bound - M`` form a
constraint graph (edge ``right -> left`` with weight ``bound - M``); the
system is feasible at slack ``M`` iff that graph has no negative cycle.
The flow's skew LP answers the feasibility question; this module answers
the *diagnostic* question — it runs a full Bellman-Ford with predecessor
tracking so an infeasible system is reported as the actual cycle of
flip-flops whose constraints contradict each other, not as a bare
"infeasible" verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..constants import Technology
from ..opt.diffconstraints import RELAXATION_EPS, SkewConstraint
from ..timing import PathBounds, skew_constraints


@dataclass(frozen=True, slots=True)
class NegativeCycle:
    """A certificate of infeasibility: a cycle of total negative weight.

    ``members`` are the flip-flops on the cycle in traversal order;
    ``weight`` is the cycle's total constraint headroom (< 0).  Summing
    the constraints around the cycle yields ``0 <= weight``, which is
    absurd — hence no schedule can satisfy them simultaneously.
    """

    members: tuple[str, ...]
    weight: float

    def describe(self, limit: int = 6) -> str:
        if len(self.members) > limit:
            chain = " -> ".join(self.members[:limit]) + " -> ..."
        else:
            chain = " -> ".join(self.members + (self.members[0],))
        return f"{chain} (total headroom {self.weight:.3f} ps)"


class SkewConstraintGraph:
    """The difference-constraint graph of a set of skew constraints."""

    def __init__(self, constraints: Sequence[SkewConstraint]) -> None:
        self.constraints = tuple(constraints)
        nodes: dict[str, int] = {}
        for con in self.constraints:
            nodes.setdefault(con.right, len(nodes))
            nodes.setdefault(con.left, len(nodes))
        self._index = nodes
        self._names = list(nodes)
        # Edge arrays (right -> left), pre-sorted by target node so the
        # vectorized Bellman-Ford sweeps can segment-reduce per target.
        src = np.array([nodes[c.right] for c in self.constraints], dtype=np.intp)
        dst = np.array([nodes[c.left] for c in self.constraints], dtype=np.intp)
        bound = np.array([c.bound for c in self.constraints])
        coeff = np.array([c.slack_coeff for c in self.constraints])
        order = np.argsort(dst, kind="stable")
        self._src = src[order]
        self._dst = dst[order]
        self._bound = bound[order]
        self._coeff = coeff[order]
        self._targets, self._starts = np.unique(self._dst, return_index=True)
        n_edges = self._dst.size
        self._edge_ids = np.arange(n_edges, dtype=np.intp)
        self._seg_of_edge = (
            np.searchsorted(self._starts, self._edge_ids, side="right") - 1
        )

    @classmethod
    def from_pairs(
        cls,
        pairs: Mapping[tuple[str, str], PathBounds],
        period: float,
        tech: Technology,
    ) -> "SkewConstraintGraph":
        """Build from STA pair bounds via eqs. (6)-(7)."""
        return cls(skew_constraints(pairs, period, tech))

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    def negative_cycle(
        self, slack: float = 0.0, tol: float = RELAXATION_EPS
    ) -> NegativeCycle | None:
        """The negative cycle at slack ``M``, or ``None`` when feasible.

        Full Bellman-Ford from a virtual source (distance 0 to every
        node).  If any edge still relaxes after ``n - 1`` passes, walking
        the predecessor chain ``n`` steps lands inside a negative cycle,
        which is then traced and returned.  ``tol`` defaults to the
        shared :data:`~repro.opt.diffconstraints.RELAXATION_EPS`, so this
        verdict and the SPFA oracle's its tests compare against can never
        disagree on near-zero cycles.
        """
        n = len(self._names)
        if n == 0:
            return None
        w = self._bound - self._coeff * slack
        n_edges = w.size
        dist = np.zeros(n)
        pred = np.full(n, -1, dtype=np.intp)
        relaxed_node = -1
        for _ in range(n):
            cand = dist[self._src] + w
            mins = np.minimum.reduceat(cand, self._starts)
            improved = mins < dist[self._targets] - tol
            if not improved.any():
                return None  # converged: no negative cycle
            # First minimizing edge per improved target segment -> pred.
            full_min = mins[self._seg_of_edge]
            first = np.minimum.reduceat(
                np.where(cand <= full_min, self._edge_ids, n_edges), self._starts
            )
            hit = self._targets[improved]
            dist[hit] = mins[improved]
            pred[hit] = self._src[first[improved]]
            relaxed_node = int(hit[-1])
        # Walk back n steps to guarantee we are *on* the cycle.
        on_cycle = relaxed_node
        for _ in range(n):
            on_cycle = int(pred[on_cycle])
        cycle = [on_cycle]
        node = int(pred[on_cycle])
        while node != on_cycle:
            cycle.append(node)
            node = int(pred[node])
        cycle.reverse()
        members = tuple(self._names[i] for i in cycle)
        weight = self._cycle_weight(cycle, slack)
        return NegativeCycle(members=members, weight=weight)

    def _cycle_weight(self, cycle: list[int], slack: float) -> float:
        """Total weight around ``cycle`` using the cheapest edge per hop."""
        w = self._bound - self._coeff * slack
        best: dict[tuple[int, int], float] = {}
        for pos in range(w.size):
            key = (int(self._src[pos]), int(self._dst[pos]))
            if key not in best or w[pos] < best[key]:
                best[key] = float(w[pos])
        k = len(cycle)
        return sum(
            best.get((cycle[pos], cycle[(pos + 1) % k]), 0.0) for pos in range(k)
        )

    def feasible(self, slack: float = 0.0) -> bool:
        """Whether the system admits a schedule at slack ``M``."""
        return self.negative_cycle(slack) is None
