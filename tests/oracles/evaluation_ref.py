"""Reference per-object loops of the Fig. 3 evaluation kernels.

The flow computes the Section VII ring attractions and the per-pair
permissible-range slacks with array kernels over one placement state.
These are the loops they replaced: one Python iteration per flip-flop
and per sequential pair over ``{name: Point}`` and
``{pair: PathBounds}`` mappings, with the ring geometry the attraction
loop calls per flip-flop (:func:`nearest_point`,
:func:`delay_candidates_at`).  They are kept only as the oracles the
equivalence tests and the hot-path guards compare against: each kernel
must return exactly what its loop returns (``==``, no tolerance).  The
stage-5 HPWL kernel's loop is the library's own
:func:`repro.core.signal_wirelength`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.constants import Technology
from repro.geometry import Point
from repro.rotary import RingArray, RotaryRing, stub_delay
from repro.rotary.ring import RingSegment
from repro.timing import PathBounds, permissible_range


def nearest_point(ring: RotaryRing, p: Point) -> tuple[Point, float]:
    """Closest point of ``ring``'s loop to ``p`` and its Manhattan
    distance (point ``c`` and distance ``l_i`` of Section VII)."""
    best: tuple[Point, float] | None = None
    for seg in ring.segments()[:4]:
        xf, yf = seg.project(p)
        x = min(max(xf, 0.0), seg.length)
        q = seg.point_at(x)
        d = abs(x - xf) + yf
        if best is None or d < best[1]:
            best = (q, d)
    assert best is not None
    return best


def delay_candidates_at(ring: RotaryRing, p: Point) -> list[float]:
    """Clock delays available at the loop point nearest to ``p``: one per
    line of the differential pair (they differ by half a period)."""
    best_seg: RingSegment | None = None
    best_d = math.inf
    best_x = 0.0
    for seg in ring.segments()[:4]:
        xf, yf = seg.project(p)
        x = min(max(xf, 0.0), seg.length)
        d = abs(x - xf) + yf
        if d < best_d:
            best_seg, best_d, best_x = seg, d, x
    assert best_seg is not None
    t = best_seg.delay_at(best_x)
    return [t, t + 0.5 * ring.period]


@dataclass(frozen=True, slots=True)
class RingAttraction:
    """Per flip-flop: the nearest ring point and its achievable delay."""

    ff: str
    nearest_point: Point
    distance: float  # l_i (um)
    delay_at_point: float  # t_c (ps), phase-adjusted near the current target
    stub_delay: float  # t_{c,i} (ps)


def ring_attractions(
    ring_of: Mapping[str, int],
    positions: Mapping[str, Point],
    current: Mapping[str, float],
    array: RingArray,
    tech: Technology,
) -> dict[str, RingAttraction]:
    """``(c, l_i, t_c, t_{c,i})`` for every assigned flip-flop, one
    flip-flop at a time."""
    period = array.period
    out: dict[str, RingAttraction] = {}
    for ff, ring_id in ring_of.items():
        ring = array[ring_id]
        p = positions[ff]
        point, dist = nearest_point(ring, p)
        t_stub = stub_delay(dist, tech)
        target = current[ff]
        best_tc = None
        best_err = None
        for tc in delay_candidates_at(ring, p):
            # Shift tc by whole periods to land nearest the current target.
            k = round((target - (tc + t_stub)) / period)
            tc_adj = tc + k * period
            err = abs(tc_adj + t_stub - target)
            if best_err is None or err < best_err:
                best_tc, best_err = tc_adj, err
        assert best_tc is not None
        out[ff] = RingAttraction(
            ff=ff,
            nearest_point=point,
            distance=dist,
            delay_at_point=best_tc,
            stub_delay=t_stub,
        )
    return out


def pair_slacks(
    pairs: Mapping[tuple[str, str], PathBounds],
    schedule: Mapping[str, float],
    period: float,
    tech: Technology,
) -> dict[tuple[str, str], float]:
    """Permissible-range slack of every pair; a flip-flop missing from
    the schedule counts as 0.0."""
    slacks: dict[tuple[str, str], float] = {}
    for (i, j), bounds in pairs.items():
        r = permissible_range(i, j, bounds, period, tech)
        skew = schedule.get(i, 0.0) - schedule.get(j, 0.0)
        slacks[(i, j)] = min(r.hi - skew, skew - r.lo)
    return slacks


def worst_pair_slack(
    pairs: Mapping[tuple[str, str], PathBounds],
    schedule: Mapping[str, float],
    period: float,
    tech: Technology,
) -> float:
    """The smallest permissible-range slack over all pairs (0.0 if none)."""
    slacks = pair_slacks(pairs, schedule, period, tech)
    return min(slacks.values(), default=0.0)
