"""Critical sequential-pair extraction for timing-driven placement.

The Fig. 3 loop couples timing back into placement only through
pseudo-nets to rings; the placer never hears *which* sequential pairs
are struggling.  Following the critical-path-extraction idea of Shi et
al. ("Timing-Driven Global Placement by Efficient Critical Path
Extraction"), this module ranks every sequentially adjacent pair by its
*permissible-range slack* — how far the scheduled skew sits from the
nearer of its setup/hold walls — extracts the ``k`` most critical
pairs, traces the signal nets that can lie on a launch→capture
combinational path, and turns them into per-net weights for
:class:`~repro.placement.QuadraticPlacer`.

Slack of one pair under a skew schedule ``t`` (permissible range
``[lo, hi]`` from :func:`repro.timing.constraints.permissible_range`):

    slack(i→j) = min(hi - (t_i - t_j), (t_i - t_j) - lo)

Negative slack means the scheduled skew violates a wall; the smallest
values are the pairs the placer should pull together.  The extraction
is purely structural on top of the vectorized STA's pair arrays
(:class:`~repro.timing.sta_vec.TimingSnapshot`) — it adds no timing
re-analysis.  The per-pair scalar loop it replaced is kept as the test
oracle ``tests/oracles/evaluation_ref.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import numpy.typing as npt

from ..constants import Technology
from ..netlist import Circuit
from ..obs import NULL_COLLECTOR, Collector
from .sta_vec import TimingSnapshot

__all__ = [
    "CriticalPair",
    "CriticalPathExtractor",
    "critical_net_weights",
    "pair_slacks",
    "worst_pair_slack",
]


@dataclass(frozen=True, slots=True)
class CriticalPair:
    """One critical sequential pair and the nets on its paths.

    ``nets`` are the signal nets that can lie on *some* combinational
    path from ``launch``'s Q to ``capture``'s D — the union over paths,
    not just the single worst path, because the quadratic placer acts on
    nets, and shortening any launch→capture branch tightens the pair's
    D_max.
    """

    launch: str
    capture: str
    #: Permissible-range slack of the scheduled skew (ps); negative
    #: means the pair violates a setup or hold wall.
    slack: float
    nets: tuple[str, ...]


def pair_slacks(
    timing: TimingSnapshot,
    targets: npt.NDArray[np.float64],
    period: float,
    tech: Technology,
) -> npt.NDArray[np.float64]:
    """Permissible-range slack of every pair of ``timing``, in pair order.

    ``targets`` holds the skew target of each of ``timing.flip_flops``
    (:meth:`TimingSnapshot.schedule_array` gives a flip-flop missing
    from a schedule 0.0, the convention the skew engines use for
    unconstrained flip-flops).  Each value is the one
    :func:`~repro.timing.constraints.permissible_range` arithmetic gives
    at zero slack, bit for bit.
    """
    # permissible_range's terms at slack 0.0, which can flip a zero's sign.
    hi = period - timing.d_max - tech.setup_time - 0.0
    lo = tech.hold_time - timing.d_min + 0.0
    skew = targets[timing.launch] - targets[timing.capture]
    setup_side = hi - skew
    hold_side = skew - lo
    # The built-in min keeps its first argument unless the second is
    # strictly smaller.
    out: npt.NDArray[np.float64] = np.where(
        hold_side < setup_side, hold_side, setup_side
    )
    return out


def worst_pair_slack(
    timing: TimingSnapshot,
    targets: npt.NDArray[np.float64],
    period: float,
    tech: Technology,
) -> float:
    """The smallest permissible-range slack over all pairs (0.0 if none);
    the first pair attaining it gives the value, as the built-in ``min``
    does."""
    slacks = pair_slacks(timing, targets, period, tech)
    if slacks.size == 0:
        return 0.0
    return float(slacks[np.argmin(slacks)])


class CriticalPathExtractor:
    """Ranks sequential pairs by slack and maps them onto signal nets.

    Built once per circuit (the combinational adjacency is structural
    and position-independent, like :class:`TimingStructure`); call
    :meth:`extract` each Fig. 3 iteration with the current pair bounds
    and skew schedule.
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        collector: Collector = NULL_COLLECTOR,
    ) -> None:
        self.circuit = circuit
        self.collector = collector
        # Combinational DAG adjacency with flip-flops split at the
        # register boundary ("<ff>$D" pseudo-nodes), exactly as the STA
        # engines see the graph.  An edge u -> v rides the net driven by
        # u, so tracing edges traces nets.
        succ: dict[str, list[str]] = {}
        pred: dict[str, list[str]] = {}
        for u, v in circuit.combinational_edges():
            succ.setdefault(u, []).append(v)
            pred.setdefault(v, []).append(u)
        self._succ = succ
        self._pred = pred

    # ------------------------------------------------------------------
    def _reachable(
        self, start: str, adjacency: Mapping[str, list[str]]
    ) -> set[str]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def path_nets(self, launch: str, capture: str) -> tuple[str, ...]:
        """Signal nets on any combinational path ``launch`` → ``capture``.

        A cell is on such a path iff it is reachable from the launch
        flip-flop's output *and* reaches the capture flip-flop's D
        pseudo-node; the net it drives then carries a path edge.  Nets
        are returned in deterministic (sorted) order.
        """
        forward = self._reachable(launch, self._succ)
        backward = self._reachable(
            Circuit.dff_data_node(capture), self._pred
        )
        nets = {u for u in forward & backward if u in self.circuit.nets}
        return tuple(sorted(nets))

    def extract(
        self,
        timing: TimingSnapshot,
        targets: npt.NDArray[np.float64],
        period: float,
        tech: Technology,
        *,
        k: int,
    ) -> list[CriticalPair]:
        """The ``k`` most critical pairs (smallest slack first).

        ``targets`` is as for :func:`pair_slacks`.  Ties break on the
        pair key so extraction is deterministic under any hash seed.
        Self-loop pairs (a flip-flop feeding itself) participate: their
        nets still deserve weight.
        """
        if k <= 0:
            return []
        slacks = pair_slacks(timing, targets, period, tech).tolist()
        keys = timing.keys
        ranked = sorted(range(len(keys)), key=lambda p: (slacks[p], keys[p]))
        out: list[CriticalPair] = []
        for p in ranked[:k]:
            launch, capture = keys[p]
            out.append(
                CriticalPair(
                    launch=launch,
                    capture=capture,
                    slack=slacks[p],
                    nets=self.path_nets(launch, capture),
                )
            )
        self.collector.count("timing.critical.extractions")
        self.collector.count("timing.critical.pairs", len(out))
        if out:
            self.collector.gauge("timing.critical.worst-slack-ps", out[0].slack)
        return out


def critical_net_weights(
    critical: list[CriticalPair], weight: float
) -> dict[str, float]:
    """Per-net placer weights: ``weight`` for every net on a critical
    pair's paths, everything else implicit 1.0.

    A net shared by several critical pairs gets ``weight`` once (not
    compounded) — the quadratic objective already sums one spring set
    per net, and compounding would let dense critical regions blow up
    the Laplacian's conditioning.
    """
    weights: dict[str, float] = {}
    for pair in critical:
        for net in pair.nets:
            weights[net] = weight
    return weights
