"""Tests for the Section III flexible tapping solver.

The central invariant: for any flip-flop location and any delay target,
the returned tapping point satisfies eq. (1) exactly —
``t0 - k*T + rho*x + stub_delay(l) == target (mod T)``.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.geometry import Point
from repro.rotary import (
    RotaryRing,
    best_tapping,
    solve_segment,
    stub_delay,
    tapping_arc_length,
)

from oracles.evaluation_ref import delay_candidates_at, nearest_point

TECH = DEFAULT_TECHNOLOGY
PERIOD = 1000.0


def make_ring(half: float = 50.0) -> RotaryRing:
    return RotaryRing(0, Point(100.0, 100.0), half, period=PERIOD)


def achieved_delay(ring: RotaryRing, sol) -> float:
    seg = ring.segments()[sol.segment_index]
    return (
        seg.t0
        - sol.periods_borrowed * ring.period
        + seg.rho * sol.x
        + stub_delay(sol.wirelength, TECH)
    )


class TestStubDelay:
    def test_zero_length(self):
        assert stub_delay(0.0, TECH) == 0.0

    def test_monotone_in_length(self):
        assert stub_delay(200.0, TECH) > stub_delay(100.0, TECH) > 0.0

    def test_quadratic_plus_linear(self):
        # d(l) = K(1/2 r c l^2 + r C l): check against direct formula.
        l = 137.0
        r, c = TECH.unit_resistance, TECH.unit_capacitance
        expected = 1e-3 * (0.5 * r * c * l * l + r * l * TECH.flipflop_input_cap)
        assert stub_delay(l, TECH) == pytest.approx(expected)


class TestSolveSegment:
    def test_exact_on_segment_point(self):
        """Target equal to the delay at a point directly below the FF."""
        ring = make_ring()
        seg = ring.segments()[0]  # bottom edge, t0=0
        ff = Point(120.0, 30.0)  # 20 um below the bottom edge
        xf, yf = seg.project(ff)
        target = seg.delay_at(xf) + stub_delay(yf, TECH)
        sol = solve_segment(seg, ff, target, TECH, PERIOD)
        assert sol is not None
        assert sol.x == pytest.approx(xf, abs=1e-6)
        assert sol.wirelength == pytest.approx(yf, abs=1e-6)
        assert not sol.snaked

    def test_case2_picks_smaller_wirelength(self):
        """When two roots exist, the smaller stub must be returned."""
        ring = make_ring()
        seg = ring.segments()[0]
        ff = Point(100.0, 30.0)
        xf, yf = seg.project(ff)
        # A target slightly above the curve minimum has two roots on the
        # left parabola (rho dominates the wire term).
        target = seg.delay_at(xf) + stub_delay(yf, TECH) - 10.0
        sol = solve_segment(seg, ff, target, TECH, PERIOD)
        assert sol is not None
        achieved = (
            seg.t0 - sol.periods_borrowed * PERIOD
            + seg.rho * sol.x
            + stub_delay(sol.wirelength, TECH)
        )
        assert achieved == pytest.approx(target % PERIOD, abs=1e-6)

    def test_case1_borrows_minimal_periods(self):
        ring = make_ring()
        seg = ring.segments()[3]  # t0 = 750
        ff = Point(70.0, 100.0)
        sol = solve_segment(seg, ff, 5.0, TECH, PERIOD)  # target below t0
        assert sol is not None
        assert sol.periods_borrowed >= 1

    def test_case4_snakes(self):
        """A target just above the segment's reach forces snaking."""
        ring = make_ring()
        seg = ring.segments()[0]
        ff = Point(150.0, 49.0)  # 1 um from the segment end
        # Max direct delay at end is rho*100 + stub(~1+..); ask for more.
        target = seg.delay_at(seg.length) + stub_delay(1.0, TECH) + 3.0
        sol = solve_segment(seg, ff, target, TECH, PERIOD)
        assert sol is not None
        assert sol.snaked
        assert sol.x == pytest.approx(seg.length)
        # Snaked wire must be at least the direct distance.
        xf, yf = seg.project(ff)
        assert sol.wirelength >= abs(seg.length - xf) + yf - 1e-9

    @settings(max_examples=150, deadline=None)
    @given(
        ffx=st.floats(-50.0, 250.0),
        ffy=st.floats(-50.0, 250.0),
        target=st.floats(0.0, 999.0),
        half=st.floats(20.0, 80.0),
    )
    def test_equation_satisfied_property(self, ffx, ffy, target, half):
        """Eq. (1) holds to 1e-6 ps for every segment solution."""
        ring = make_ring(half)
        ff = Point(ffx, ffy)
        for seg in ring.segments():
            sol = solve_segment(seg, ff, target, TECH, PERIOD)
            if sol is None:
                continue
            achieved = (
                seg.t0
                - sol.periods_borrowed * PERIOD
                + seg.rho * sol.x
                + stub_delay(sol.wirelength, TECH)
            )
            assert achieved == pytest.approx(target % PERIOD, abs=1e-5)
            assert 0.0 <= sol.x <= seg.length + 1e-9
            assert sol.wirelength >= 0.0


class TestBestTapping:
    def test_returns_minimum_over_segments(self):
        ring = make_ring()
        ff = Point(160.0, 100.0)  # right of the right edge
        sol = best_tapping(ring, ff, 300.0, TECH)
        assert achieved_delay(ring, sol) == pytest.approx(300.0, abs=1e-6)
        # Check optimality against brute force over segments.
        candidates = [
            s
            for s in (
                solve_segment(seg, ff, 300.0, TECH, PERIOD)
                for seg in ring.segments()
            )
            if s is not None
        ]
        assert sol.wirelength == pytest.approx(
            min(c.wirelength for c in candidates)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        ffx=st.floats(0.0, 200.0),
        ffy=st.floats(0.0, 200.0),
        target=st.floats(0.0, 999.0),
    )
    def test_always_solvable(self, ffx, ffy, target):
        """Any target is reachable somewhere on the ring (8 segments)."""
        ring = make_ring()
        sol = best_tapping(ring, Point(ffx, ffy), target, TECH)
        assert achieved_delay(ring, sol) == pytest.approx(
            target % PERIOD, abs=1e-5
        )

    def test_near_target_costs_near_distance(self):
        """If the target equals the delay at the nearest point, the cost
        approaches the flip-flop/ring distance."""
        ring = make_ring()
        ff = Point(100.0, 170.0)  # 20 um above the top edge
        q, dist = nearest_point(ring, ff)
        candidates = delay_candidates_at(ring, ff)
        target = candidates[0] + stub_delay(dist, TECH)
        sol = best_tapping(ring, ff, target, TECH)
        assert sol.wirelength == pytest.approx(dist, rel=0.05)

    def test_arc_length_mapping(self):
        ring = make_ring()
        sol = best_tapping(ring, Point(160.0, 100.0), 300.0, TECH)
        s = tapping_arc_length(ring, sol)
        assert 0.0 <= s <= ring.perimeter
        # Complementary segments map to the same physical arc.
        assert (sol.segment_index % 4) * ring.side <= s <= (
            sol.segment_index % 4 + 1
        ) * ring.side
