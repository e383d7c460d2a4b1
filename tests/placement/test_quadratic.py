"""Tests for the quadratic global placer."""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.errors import PlacementError
from repro.geometry import Point
from repro.netlist import generate_circuit, small_profile
from repro.placement import PseudoNet, QuadraticPlacer, region_for_circuit
from repro.core import signal_wirelength

from oracles.placer_ref import placed

TECH = DEFAULT_TECHNOLOGY


class TestGlobalPlacement:
    def test_all_cells_placed_inside(self, tiny_circuit):
        region = region_for_circuit(tiny_circuit, TECH)
        placer = QuadraticPlacer(tiny_circuit, region)
        pos = placed(placer)
        movable = {c.name for c in tiny_circuit.standard_cells}
        assert set(pos) == movable
        for p in pos.values():
            assert region.bbox.contains(p)

    def test_cells_are_spread(self, tiny_circuit):
        """Spreading must prevent total collapse to the center."""
        region = region_for_circuit(tiny_circuit, TECH)
        pos = placed(QuadraticPlacer(tiny_circuit, region))
        xs = sorted(p.x for p in pos.values())
        span = xs[-1] - xs[0]
        assert span > 0.5 * region.bbox.width

    def test_connected_cells_near_each_other(self):
        """Placement must beat a random shuffle on wirelength."""
        import random

        circuit = generate_circuit(small_profile(num_cells=200, num_flipflops=24, seed=5))
        region = region_for_circuit(circuit, TECH)
        placer = QuadraticPlacer(circuit, region)
        pos = dict(placer.fixed_positions)
        pos.update(placed(placer))
        placed_wl = signal_wirelength(circuit, pos)

        rng = random.Random(0)
        names = [c.name for c in circuit.standard_cells]
        shuffled = dict(placer.fixed_positions)
        for name in names:
            shuffled[name] = Point(
                rng.uniform(region.bbox.xlo, region.bbox.xhi),
                rng.uniform(region.bbox.ylo, region.bbox.yhi),
            )
        random_wl = signal_wirelength(circuit, shuffled)
        assert placed_wl < 0.7 * random_wl

    def test_pseudo_net_pulls_cell(self, tiny_circuit):
        region = region_for_circuit(tiny_circuit, TECH)
        ff = tiny_circuit.flip_flops[0].name
        corner = Point(region.bbox.xlo + 1.0, region.bbox.ylo + 1.0)
        placer = QuadraticPlacer(tiny_circuit, region)
        free = placed(placer)
        pulled = placed(
            QuadraticPlacer(tiny_circuit, region),
            pseudo_nets=[PseudoNet(ff, corner, weight=50.0)],
        )
        assert pulled[ff].manhattan(corner) < free[ff].manhattan(corner)

    def test_unknown_pseudo_net_cell(self, tiny_circuit):
        region = region_for_circuit(tiny_circuit, TECH)
        placer = QuadraticPlacer(tiny_circuit, region)
        with pytest.raises(PlacementError):
            placed(placer, pseudo_nets=[PseudoNet("ghost", Point(0, 0), 1.0)])

    def test_stability_anchors_keep_positions(self, tiny_circuit):
        region = region_for_circuit(tiny_circuit, TECH)
        base = placed(QuadraticPlacer(tiny_circuit, region))
        anchored = placed(
            QuadraticPlacer(tiny_circuit, region),
            stability_anchors=base,
            stability_weight=100.0,
        )
        drift = sum(base[n].manhattan(anchored[n]) for n in base) / len(base)
        assert drift < 0.2 * region.bbox.width

    def test_deterministic(self, tiny_circuit):
        region = region_for_circuit(tiny_circuit, TECH)
        a = placed(QuadraticPlacer(tiny_circuit, region))
        b = placed(QuadraticPlacer(tiny_circuit, region))
        assert all(a[n].manhattan(b[n]) < 1e-6 for n in a)


class TestPseudoNet:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PseudoNet("c", Point(0, 0), weight=-1.0)
