"""Reference Tetris legalizer: the full ±radius row scan.

This is the legalizer the production :func:`repro.placement.legalize`
replaced with a pruned outward row walk.  It probes every row of the
window for every cell, so it is several times slower, and it is kept
only as the oracle the equivalence tests and the hot-path guard compare
against: the production legalizer must return exactly what this one
returns (positions, their dict order, and both displacement totals).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping

from repro.errors import PlacementError
from repro.geometry import Point
from repro.placement.legalize import LegalizationResult
from repro.placement.region import PlacementRegion


def legalize(
    global_positions: Mapping[str, Point],
    region: PlacementRegion,
    row_search_radius: int = 8,
) -> LegalizationResult:
    """Legalize ``global_positions`` onto the region's row/site grid.

    Raises :class:`PlacementError` if the region cannot hold the cells.
    """
    names = list(global_positions)
    if len(names) > region.capacity_sites:
        raise PlacementError(
            f"{len(names)} cells exceed region capacity {region.capacity_sites}"
        )
    # Sorted free-site lists per row: a bisect per probed row replaces
    # the previous whole-row boolean scan (same candidates, same
    # right-site tie-break, so the packing is identical).
    free_sites: list[list[int]] = [
        list(range(region.sites_per_row)) for _ in range(region.num_rows)
    ]
    # Process in x order (classic Tetris) for deterministic packing.
    names.sort(key=lambda n: (global_positions[n].x, global_positions[n].y, n))
    out: dict[str, Point] = {}
    total_disp = 0.0
    max_disp = 0.0
    for name in names:
        p = global_positions[name]
        target_row = region.nearest_row(p.y)
        target_site = region.nearest_site(p.x)
        best: tuple[float, int, int] | None = None
        radius = row_search_radius
        while best is None:
            lo = max(0, target_row - radius)
            hi = min(region.num_rows - 1, target_row + radius)
            for row in range(lo, hi + 1):
                site = _nearest_free_site(free_sites[row], target_site)
                if site is None:
                    continue
                cost = abs(region.row_y(row) - p.y) + abs(
                    region.site_x(site) - p.x
                )
                if best is None or cost < best[0]:
                    best = (cost, row, site)
            if best is None:
                if lo == 0 and hi == region.num_rows - 1:
                    raise PlacementError("no free site found during legalization")
                radius *= 2
        _, row, site = best
        row_free = free_sites[row]
        del row_free[bisect_left(row_free, site)]
        q = Point(region.site_x(site), region.row_y(row))
        out[name] = q
        d = p.manhattan(q)
        total_disp += d
        max_disp = max(max_disp, d)
    return LegalizationResult(out, total_disp, max_disp)


def _nearest_free_site(free: list[int], target: int) -> int | None:
    """Free site nearest ``target`` in one row's sorted list, or ``None``.

    Ties go to the right-hand candidate, matching the original
    whole-row-bitmap implementation.
    """
    if not free:
        return None
    pos = bisect_left(free, target)
    candidates = []
    if pos < len(free):
        candidates.append(free[pos])
    if pos > 0:
        candidates.append(free[pos - 1])
    return min(candidates, key=lambda s: abs(s - target))
