"""Tetris-style legalization: snap a global placement onto rows and sites.

Cells are processed in x order; each is assigned the free site (searched
over nearby rows) minimizing its displacement.  All generated cells occupy
one site, so a sorted free-site list per row suffices.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

from ..errors import PlacementError
from ..geometry import Point
from .region import PlacementRegion

#: Rows searched on each side of a cell's target row; the window doubles
#: only when every row in it is full.
_ROW_SEARCH_RADIUS = 8


@dataclass(frozen=True, slots=True)
class LegalizationResult:
    """Legal positions plus displacement statistics."""

    positions: dict[str, Point]
    total_displacement: float
    max_displacement: float

    @property
    def mean_displacement(self) -> float:
        n = len(self.positions)
        return self.total_displacement / n if n else 0.0


def legalize(
    global_positions: Mapping[str, Point],
    region: PlacementRegion,
) -> LegalizationResult:
    """Legalize ``global_positions`` onto the region's row/site grid.

    Each cell takes the window row whose nearest free site minimizes
    ``|row_y - y| + |site_x - x|``, the lowest row winning equal costs.
    Rows are walked outward from the target row, down and up separately;
    a side stops at the first row whose vertical distance alone exceeds
    the best cost so far, since no row beyond it can match that cost.

    Raises :class:`PlacementError` if the region cannot hold the cells
    or a cell's position is not finite.
    """
    num_cells = len(global_positions)
    if num_cells > region.capacity_sites:
        raise PlacementError(
            f"{num_cells} cells exceed region capacity {region.capacity_sites}"
        )
    cells: list[tuple[float, float, str]] = []
    for name, p in global_positions.items():
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise PlacementError(
                f"cell {name!r} has a non-finite position ({p.x}, {p.y})"
            )
        cells.append((p.x, p.y, name))
    # Process in x order (classic Tetris) for deterministic packing.
    cells.sort()
    num_rows = region.num_rows
    row_ys = [region.row_y(row) for row in range(num_rows)]
    site_xs = [region.site_x(site) for site in range(region.sites_per_row)]
    free_sites: list[list[int]] = [
        list(range(region.sites_per_row)) for _ in range(num_rows)
    ]
    out: dict[str, Point] = {}
    total_disp = 0.0
    max_disp = 0.0
    for x, y, name in cells:
        target_row = region.nearest_row(y)
        target_site = region.nearest_site(x)
        radius = _ROW_SEARCH_RADIUS
        while True:
            lo = max(0, target_row - radius)
            hi = min(num_rows - 1, target_row + radius)
            best_cost, best_row, best_site = math.inf, -1, -1
            # Row centres fall walking down and rise walking up, so
            # ``y - row_y`` (down) and ``row_y - y`` (up) never shrink
            # along a walk: once one exceeds the best cost, so does every
            # remaining row's cost.  Walking down, an equal cost goes to
            # the later (lower) row; walking up, to the earlier one.  The
            # first free row wins even if its cost overflowed to inf.
            for row in range(target_row, lo - 1, -1):
                dy = row_ys[row] - y
                if -dy > best_cost:
                    break
                site = _nearest_free_site(free_sites[row], target_site)
                if site is None:
                    continue
                cost = abs(dy) + abs(site_xs[site] - x)
                if cost <= best_cost:
                    best_cost, best_row, best_site = cost, row, site
            for row in range(target_row + 1, hi + 1):
                dy = row_ys[row] - y
                if dy > best_cost:
                    break
                site = _nearest_free_site(free_sites[row], target_site)
                if site is None:
                    continue
                cost = abs(dy) + abs(site_xs[site] - x)
                if cost < best_cost or best_row < 0:
                    best_cost, best_row, best_site = cost, row, site
            if best_row >= 0:
                break
            if lo == 0 and hi == num_rows - 1:
                raise PlacementError("no free site found during legalization")
            radius *= 2
        row_free = free_sites[best_row]
        del row_free[bisect_left(row_free, best_site)]
        out[name] = Point(site_xs[best_site], row_ys[best_row])
        # The winning cost is bit-equal to the cell's Manhattan
        # displacement (float addition commutes; |a - b| == |b - a|).
        total_disp += best_cost
        if best_cost > max_disp:
            max_disp = best_cost
    return LegalizationResult(out, total_disp, max_disp)


def _nearest_free_site(free: list[int], target: int) -> int | None:
    """Free site nearest ``target`` in one row's sorted list, or ``None``.

    Ties go to the right-hand candidate, matching the original
    whole-row-bitmap implementation.
    """
    if not free:
        return None
    pos = bisect_left(free, target)
    if pos == len(free):
        return free[pos - 1]
    right = free[pos]
    if pos and target - free[pos - 1] < right - target:
        return free[pos - 1]
    return right
