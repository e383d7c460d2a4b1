"""Placement substrate: quadratic global placement, legalization, and
stable incremental placement with pseudo-net support."""

from .detailed import DetailedOptions, DetailedResult, refine_placement
from .incremental import (
    IncrementalOptions,
    incremental_place,
    placement_perturbation,
)
from .legalize import LegalizationResult, legalize
from .pseudonet import PseudoNet
from .quadratic import PlacerOptions, PseudoNetArrays, QuadraticPlacer
from .region import (
    PlacementRegion,
    pad_positions,
    region_for_circuit,
)

__all__ = [
    "PlacementRegion",
    "region_for_circuit",
    "pad_positions",
    "QuadraticPlacer",
    "PlacerOptions",
    "legalize",
    "LegalizationResult",
    "PseudoNet",
    "PseudoNetArrays",
    "incremental_place",
    "IncrementalOptions",
    "placement_perturbation",
    "DetailedOptions",
    "DetailedResult",
    "refine_placement",
]
