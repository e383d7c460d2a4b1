"""Tests for Tetris legalization."""

import inspect
import math

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.errors import PlacementError
from repro.geometry import Point
from repro.placement import legalize, region_for_circuit
from repro.placement.region import PlacementRegion

from oracles.legalize_ref import legalize_points

TECH = DEFAULT_TECHNOLOGY


def make_region(rows: int = 4, sites: int = 10) -> PlacementRegion:
    from repro.geometry import BBox

    return PlacementRegion(
        bbox=BBox(0, 0, sites * 3.0, rows * 12.0),
        row_height=12.0,
        site_width=3.0,
        num_rows=rows,
        sites_per_row=sites,
    )


class TestLegalize:
    def test_snaps_to_grid(self):
        region = make_region()
        result = legalize_points({"a": Point(4.7, 13.9)}, region)
        p = result.positions["a"]
        assert p.x == pytest.approx(region.site_x(region.nearest_site(4.7)))
        assert p.y == pytest.approx(region.row_y(region.nearest_row(13.9)))

    def test_no_overlaps(self):
        region = make_region()
        # 12 cells all at the same spot.
        raw = {f"c{i}": Point(15.0, 24.0) for i in range(12)}
        result = legalize_points(raw, region)
        spots = {(p.x, p.y) for p in result.positions.values()}
        assert len(spots) == 12

    def test_capacity_exceeded(self):
        region = make_region(rows=1, sites=2)
        raw = {f"c{i}": Point(0.0, 0.0) for i in range(3)}
        with pytest.raises(PlacementError):
            legalize_points(raw, region)

    def test_full_region_exact_fit(self):
        region = make_region(rows=2, sites=3)
        raw = {f"c{i}": Point(0.0, 0.0) for i in range(6)}
        result = legalize_points(raw, region)
        assert len({(p.x, p.y) for p in result.positions.values()}) == 6

    def test_displacement_stats(self):
        region = make_region()
        raw = {"a": Point(4.5, 18.0)}
        result = legalize_points(raw, region)
        assert result.total_displacement == result.max_displacement
        assert result.mean_displacement == result.total_displacement
        assert result.total_displacement < region.row_height + region.site_width

    def test_isolated_cell_stays_close(self):
        region = make_region()
        raw = {"a": Point(16.0, 30.0)}
        result = legalize_points(raw, region)
        assert result.max_displacement <= (
            region.site_width / 2 + region.row_height / 2
        ) + 1e-9

    def test_legalized_positions_inside_region(self, tiny_circuit):
        region = region_for_circuit(tiny_circuit, TECH)
        from repro.placement import QuadraticPlacer

        placer = QuadraticPlacer(tiny_circuit, region)
        result = legalize(*placer.place(), placer.movable, region)
        for p in result.positions.values():
            assert region.bbox.contains(p)

    def test_deterministic(self):
        region = make_region()
        raw = {f"c{i}": Point(float(i), 5.0) for i in range(8)}
        a = legalize_points(raw, region).positions
        b = legalize_points(raw, region).positions
        assert a == b

    def test_full_window_doubles_and_terminates(self):
        # 20 one-site rows, every cell aimed at row 10: the ±8-row window
        # (rows 2..18) fills after 17 cells, so the last three are only
        # placed once the window doubles to cover rows 0, 1 and 19.
        region = make_region(rows=20, sites=1)
        y = region.row_y(10)
        raw = {f"c{i:02d}": Point(1.5, y) for i in range(20)}
        result = legalize_points(raw, region)
        rows = sorted(region.nearest_row(p.y) for p in result.positions.values())
        assert rows == list(range(20))
        assert result.positions["c19"].y == region.row_y(0)

    def test_search_radius_is_not_a_parameter(self):
        assert list(inspect.signature(legalize).parameters) == [
            "x",
            "y",
            "names",
            "region",
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_position_is_typed_error(self, bad, axis):
        region = make_region()
        point = Point(bad, 5.0) if axis == "x" else Point(5.0, bad)
        raw = {"ok": Point(3.0, 3.0), "bad": point}
        with pytest.raises(PlacementError, match="'bad'"):
            legalize_points(raw, region)
