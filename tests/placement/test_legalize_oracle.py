"""The pruned-walk legalizer must decide exactly what the full scan decides.

``oracles.legalize_ref`` is the previous legalizer, which probes every
row of the ±8-row window for every cell.  The production row walk stops
early, so these tests compare the two for exact equality — positions in
the same dict order and bit-equal displacement totals — on regions tall
enough for the window to bind, on exact ties, on out-of-die points, at
near-full occupancy and on the bundled circuits' stage-1 placements.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.errors import PlacementError
from repro.geometry import BBox, Point, position_dict
from repro.netlist import PROFILE_ORDER, generate_named
from repro.placement import QuadraticPlacer, region_for_circuit
from repro.placement.region import PlacementRegion

from oracles.legalize_ref import legalize as legalize_ref
from oracles.legalize_ref import legalize_points


def make_region(rows: int, sites: int, row_height=12.0, site_width=3.0):
    return PlacementRegion(
        bbox=BBox(0, 0, sites * site_width, rows * row_height),
        row_height=row_height,
        site_width=site_width,
        num_rows=rows,
        sites_per_row=sites,
    )


def assert_matches_oracle(raw, region):
    try:
        expected = legalize_ref(raw, region)
    except PlacementError:
        with pytest.raises(PlacementError):
            legalize_points(raw, region)
        return
    got = legalize_points(raw, region)
    assert list(got.positions.items()) == list(expected.positions.items())
    assert got.total_displacement == expected.total_displacement
    assert got.max_displacement == expected.max_displacement


def coordinates(region: PlacementRegion):
    """Points inside and outside the die, on grid centres and edges."""
    b = region.bbox
    rows, sites = region.num_rows, region.sites_per_row
    free = st.builds(
        Point,
        st.floats(b.xlo - 60.0, b.xhi + 60.0),
        st.floats(b.ylo - 60.0, b.yhi + 60.0),
    )
    # Site and row centres: exact ties between rows and between sites.
    centres = st.builds(
        Point,
        st.integers(0, sites - 1).map(region.site_x),
        st.integers(0, rows - 1).map(region.row_y),
    )
    # Site and row boundaries, the die edges included.
    edges = st.builds(
        Point,
        st.integers(0, sites).map(lambda s: b.xlo + s * region.site_width),
        st.integers(0, rows).map(lambda r: b.ylo + r * region.row_height),
    )
    return st.one_of(free, centres, edges)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matches_oracle_on_tall_regions(data):
    rows = data.draw(st.integers(1, 40), label="rows")
    sites = data.draw(st.integers(1, 16), label="sites")
    region = make_region(rows, sites)
    n = data.draw(st.integers(1, rows * sites), label="cells")
    points = data.draw(st.lists(coordinates(region), min_size=n, max_size=n))
    raw = {f"c{i}": p for i, p in enumerate(points)}
    assert_matches_oracle(raw, region)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_oracle_near_full_occupancy(data):
    # A few hot spots packed to within a handful of free sites: windows
    # fill up, so the doubling path and far rows decide the placement.
    rows = data.draw(st.integers(18, 40), label="rows")
    sites = data.draw(st.integers(1, 8), label="sites")
    region = make_region(rows, sites)
    n = rows * sites - data.draw(st.integers(0, 3), label="spare")
    spots = data.draw(st.lists(coordinates(region), min_size=1, max_size=3))
    raw = {f"c{i}": spots[i % len(spots)] for i in range(n)}
    assert_matches_oracle(raw, region)


@pytest.mark.parametrize("pitch", [(12.0, 3.0), (0.3, 0.7), (3.7, 1.1)])
def test_matches_oracle_on_exact_ties(pitch):
    # Cells on site boundaries are equidistant from two sites, and cells
    # on row boundaries from two rows.
    row_height, site_width = pitch
    region = make_region(24, 6, row_height, site_width)
    raw = {
        f"c{r}_{s}": Point(s * site_width, r * row_height)
        for r in range(25)
        for s in range(7)
        if (r + s) % 3
    }
    assert_matches_oracle(raw, region)


def test_matches_oracle_outside_the_die():
    region = make_region(20, 5)
    far = (-1e6, -40.0, 0.0, 15.0, 60.0, 240.0, 400.0, 1e6)
    raw = {f"c{i}": Point(x, y) for i, (x, y) in enumerate(product(far, far))}
    assert_matches_oracle(raw, region)


@pytest.mark.parametrize("name", [*PROFILE_ORDER, "scale10k"])
def test_matches_oracle_on_stage1_placement(name):
    circuit = generate_named(name)
    region = region_for_circuit(circuit, DEFAULT_TECHNOLOGY)
    placer = QuadraticPlacer(circuit, region)
    assert_matches_oracle(position_dict(placer.movable, *placer.place()), region)
