"""Tests for stable incremental placement with pseudo nets."""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.geometry import Point, position_arrays
from repro.placement import (
    IncrementalOptions,
    PseudoNet,
    QuadraticPlacer,
    incremental_place,
    placement_perturbation,
)

TECH = DEFAULT_TECHNOLOGY


def place_again(circuit, region, previous, pseudo_nets=(), options=None):
    """``incremental_place`` from a ``{name: Point}`` placement."""
    placer = QuadraticPlacer(circuit, region)
    return incremental_place(
        placer,
        position_arrays(placer.movable, previous),
        placer.pseudo_net_arrays(pseudo_nets),
        options,
    )


class TestIncrementalPlace:
    def test_stability(self, tiny_circuit, tiny_placed):
        """Without pseudo nets the placement must barely move."""
        region, positions = tiny_placed
        movable = {
            n: positions[n]
            for n in positions
            if n in {c.name for c in tiny_circuit.standard_cells}
        }
        result = place_again(
            tiny_circuit, region, movable,
            options=IncrementalOptions(stability_weight=0.5),
        )
        drift = placement_perturbation(movable, result.positions)
        # A random re-place would drift ~half the die; stable incremental
        # placement must stay well under that.
        assert drift < 0.25 * region.bbox.width

    def test_pseudo_nets_move_flipflops_toward_anchor(
        self, tiny_circuit, tiny_placed
    ):
        region, positions = tiny_placed
        corner = Point(region.bbox.xlo + 1.0, region.bbox.ylo + 1.0)
        ffs = [ff.name for ff in tiny_circuit.flip_flops]
        pseudo = [PseudoNet(ff, corner, weight=5.0) for ff in ffs]
        result = place_again(tiny_circuit, region, positions, pseudo)
        before = sum(positions[f].manhattan(corner) for f in ffs)
        after = sum(result.positions[f].manhattan(corner) for f in ffs)
        assert after < before

    def test_result_is_legal(self, tiny_circuit, tiny_placed):
        region, positions = tiny_placed
        result = place_again(tiny_circuit, region, positions)
        spots = {(round(p.x, 6), round(p.y, 6)) for p in result.positions.values()}
        assert len(spots) == len(result.positions)


class TestPerturbationMetric:
    def test_zero_for_identical(self):
        pos = {"a": Point(1, 2), "b": Point(3, 4)}
        assert placement_perturbation(pos, pos) == 0.0

    def test_mean_of_moves(self):
        before = {"a": Point(0, 0), "b": Point(0, 0)}
        after = {"a": Point(1, 0), "b": Point(0, 3)}
        assert placement_perturbation(before, after) == pytest.approx(2.0)

    def test_ignores_non_common(self):
        before = {"a": Point(0, 0)}
        after = {"b": Point(9, 9)}
        assert placement_perturbation(before, after) == 0.0
