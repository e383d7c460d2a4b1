"""Tests for detailed-placement refinement."""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import signal_wirelength
from repro.placement import (
    DetailedOptions,
    QuadraticPlacer,
    legalize,
    refine_placement,
    region_for_circuit,
)

TECH = DEFAULT_TECHNOLOGY


@pytest.fixture(scope="module")
def refined(tiny_circuit, tiny_placed):
    region, positions = tiny_placed
    return region, positions, refine_placement(tiny_circuit, region, positions)


class TestRefinePlacement:
    def test_hpwl_never_increases(self, refined):
        _, _, result = refined
        assert result.hpwl_after <= result.hpwl_before + 1e-6
        assert result.improvement >= -1e-9

    def test_matches_signal_wirelength_metric(self, tiny_circuit, refined):
        _, _, result = refined
        assert signal_wirelength(tiny_circuit, result.positions) == pytest.approx(
            result.hpwl_after
        )

    def test_result_stays_legal(self, tiny_circuit, refined):
        region, _, result = refined
        movable = {c.name for c in tiny_circuit.standard_cells}
        slots = set()
        for name in movable:
            p = result.positions[name]
            row = region.nearest_row(p.y)
            site = region.nearest_site(p.x)
            assert p.x == pytest.approx(region.site_x(site))
            assert p.y == pytest.approx(region.row_y(row))
            assert (row, site) not in slots
            slots.add((row, site))

    def test_pads_untouched(self, tiny_circuit, refined):
        _, before, result = refined
        pads = [c.name for c in tiny_circuit if c.is_pad]
        for pad in pads:
            assert result.positions[pad] == before[pad]

    def test_zero_passes_is_identity(self, tiny_circuit, tiny_placed):
        region, positions = tiny_placed
        result = refine_placement(
            tiny_circuit, region, positions, DetailedOptions(max_passes=0)
        )
        assert result.hpwl_after == pytest.approx(result.hpwl_before)
        assert result.moves == 0 and result.swaps == 0

    def test_deterministic(self, tiny_circuit, tiny_placed):
        region, positions = tiny_placed
        a = refine_placement(tiny_circuit, region, positions)
        b = refine_placement(tiny_circuit, region, positions)
        assert a.hpwl_after == pytest.approx(b.hpwl_after)
        assert a.positions == b.positions

    def test_actually_improves_fresh_legalization(self, tiny_circuit):
        """A raw Tetris legalization leaves gains on the table."""
        region = region_for_circuit(tiny_circuit, TECH)
        placer = QuadraticPlacer(tiny_circuit, region)
        legal = legalize(*placer.place(), placer.movable, region)
        positions = dict(placer.fixed_positions)
        positions.update(legal.positions)
        result = refine_placement(tiny_circuit, region, positions)
        assert result.improvement > 0.0
        assert result.moves + result.swaps > 0
