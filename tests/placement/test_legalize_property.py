"""Property tests for the legalizer: legality under any input."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import BBox, Point
from repro.placement.region import PlacementRegion

from oracles.legalize_ref import legalize_points


def make_region(rows: int, sites: int) -> PlacementRegion:
    return PlacementRegion(
        bbox=BBox(0, 0, sites * 3.0, rows * 12.0),
        row_height=12.0,
        site_width=3.0,
        num_rows=rows,
        sites_per_row=sites,
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_legalization_is_always_legal(data):
    rows = data.draw(st.integers(2, 6))
    sites = data.draw(st.integers(2, 10))
    region = make_region(rows, sites)
    n = data.draw(st.integers(1, rows * sites))
    coord = st.floats(-50.0, 300.0, allow_nan=False, allow_infinity=False)
    raw = {
        f"c{i}": Point(data.draw(coord), data.draw(coord)) for i in range(n)
    }
    result = legalize_points(raw, region)
    # Every cell on a unique legal site inside the region.
    spots = set()
    for p in result.positions.values():
        assert region.bbox.contains(p)
        row = region.nearest_row(p.y)
        site = region.nearest_site(p.x)
        assert p.x == region.site_x(site)
        assert p.y == region.row_y(row)
        assert (row, site) not in spots
        spots.add((row, site))
    assert len(result.positions) == n
    assert result.total_displacement >= result.max_displacement >= 0.0
