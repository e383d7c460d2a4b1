"""Stable incremental placement (stage 6 of the paper's flow).

Re-places the design starting from an existing placement: every cell is
anchored to its previous position (stability — "small changes on the
netlist should not cause dramatic change on the placement result") while
pseudo nets pull flip-flops toward their assigned rotary rings.  Runs
considerably faster than the initial placement because the quadratic
solves are warm-started and spreading reuses the placer's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
import numpy.typing as npt

from ..geometry import Point
from ..obs import NULL_COLLECTOR, Collector
from .legalize import LegalizationResult, legalize
from .quadratic import PseudoNetArrays, QuadraticPlacer


@dataclass(frozen=True, slots=True)
class IncrementalOptions:
    """Knobs for incremental placement."""

    #: Spring weight anchoring each cell to its previous location.
    stability_weight: float = 0.02
    #: Default spring weight of a flip-flop -> ring pseudo net.
    pseudo_net_weight: float = 0.5


def incremental_place(
    placer: QuadraticPlacer,
    previous: tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]],
    pseudo_nets: PseudoNetArrays | None = None,
    options: IncrementalOptions | None = None,
    collector: Collector = NULL_COLLECTOR,
) -> LegalizationResult:
    """One incremental placement pass; returns legalized positions.

    ``previous`` = ``(x, y)`` indexed like ``placer.movable`` anchors
    every cell (and warm-starts the solves); ``pseudo_nets`` are in the
    array form :meth:`QuadraticPlacer.place` takes.  The placer keeps
    its spring structure and base Laplacian triplets across passes.
    """
    opts = options or IncrementalOptions()
    with collector.span("placement.incremental"):
        collector.count("placement.incremental.passes")
        collector.count(
            "placement.pseudo-nets",
            0 if pseudo_nets is None else len(pseudo_nets[0]),
        )
        with collector.span("placement.quadratic"):
            gx, gy = placer.place(
                pseudo_nets=pseudo_nets,
                stability_anchors=previous,
                stability_weight=opts.stability_weight,
            )
        with collector.span("placement.legalize"):
            return legalize(gx, gy, placer.movable, placer.region)


def placement_perturbation(
    before: Mapping[str, Point], after: Mapping[str, Point]
) -> float:
    """Mean displacement between two placements of the same cells.

    The stability metric: small values mean the incremental placement
    respected the previous solution.
    """
    common = [n for n in before if n in after]
    if not common:
        return 0.0
    return sum(before[n].manhattan(after[n]) for n in common) / len(common)
