"""Tests for rotary ring geometry and phase model."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.rotary import RotaryRing

from oracles.evaluation_ref import delay_candidates_at, nearest_point


@pytest.fixture()
def ring() -> RotaryRing:
    return RotaryRing(0, Point(100.0, 100.0), half_width=50.0, period=1000.0)


class TestGeometry:
    def test_dimensions(self, ring):
        assert ring.side == 100.0
        assert ring.perimeter == 400.0
        assert ring.rho == pytest.approx(2.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RotaryRing(0, Point(0, 0), half_width=-1.0, period=1000.0)
        with pytest.raises(ValueError):
            RotaryRing(0, Point(0, 0), half_width=1.0, period=0.0)

    def test_corners_counter_clockwise(self, ring):
        corners = ring.corners()
        assert corners[0] == Point(50.0, 50.0)
        assert corners[1] == Point(150.0, 50.0)
        assert corners[2] == Point(150.0, 150.0)
        assert corners[3] == Point(50.0, 150.0)

    def test_bbox(self, ring):
        box = ring.bbox
        assert (box.xlo, box.ylo, box.xhi, box.yhi) == (50, 50, 150, 150)


class TestSegments:
    def test_eight_segments(self, ring):
        segs = ring.segments()
        assert len(segs) == 8
        assert all(s.length == ring.side for s in segs)

    def test_primary_delays_progress(self, ring):
        segs = ring.segments()
        assert [s.t0 for s in segs[:4]] == [0.0, 250.0, 500.0, 750.0]

    def test_complementary_offset_half_period(self, ring):
        segs = ring.segments()
        for i in range(4):
            assert segs[i + 4].t0 == segs[i].t0 + 500.0
            assert segs[i + 4].start == segs[i].start

    def test_segment_endpoints_chain(self, ring):
        segs = ring.segments()[:4]
        for i in range(4):
            end = segs[i].point_at(segs[i].length)
            nxt = segs[(i + 1) % 4].start
            assert end.manhattan(nxt) == pytest.approx(0.0, abs=1e-9)

    def test_projection(self, ring):
        top = ring.segments()[2]  # from (150,150) to (50,150)
        xf, yf = top.project(Point(120.0, 170.0))
        assert yf == pytest.approx(20.0)
        assert top.point_at(xf).manhattan(Point(120.0, 150.0)) == pytest.approx(0.0)

    def test_delay_at(self, ring):
        seg = ring.segments()[1]
        assert seg.delay_at(0.0) == pytest.approx(250.0)
        assert seg.delay_at(100.0) == pytest.approx(500.0)


class TestPhase:
    def test_full_lap_is_one_period(self, ring):
        assert ring.delay_at_arclength(0.0) == 0.0
        assert ring.delay_at_arclength(400.0) == pytest.approx(0.0)  # wraps
        assert ring.delay_at_arclength(200.0) == pytest.approx(500.0)

    def test_phase_degrees(self, ring):
        assert ring.phase_at_arclength(100.0) == pytest.approx(90.0)
        assert ring.phase_at_arclength(300.0) == pytest.approx(270.0)

    @given(st.floats(0.0, 10_000.0))
    def test_phase_in_range(self, s):
        ring = RotaryRing(0, Point(0, 0), 25.0, 1000.0)
        assert 0.0 <= ring.phase_at_arclength(s) < 360.0


class TestNearestPoint:
    def test_outside_point(self, ring):
        q, d = nearest_point(ring, Point(200.0, 100.0))
        assert q == Point(150.0, 100.0)
        assert d == pytest.approx(50.0)

    def test_inside_point(self, ring):
        q, d = nearest_point(ring, Point(100.0, 90.0))
        assert d == pytest.approx(40.0)  # bottom edge at y=50

    def test_on_ring(self, ring):
        q, d = nearest_point(ring, Point(150.0, 120.0))
        assert d == pytest.approx(0.0)

    def test_delay_candidates_complementary(self, ring):
        c1, c2 = delay_candidates_at(ring, Point(200.0, 100.0))
        assert abs(c2 - c1) == pytest.approx(500.0)

    @given(
        st.floats(-100.0, 300.0),
        st.floats(-100.0, 300.0),
    )
    @settings(max_examples=50)
    def test_nearest_distance_lower_bound(self, x, y):
        """The nearest-point distance never exceeds distance to any corner."""
        ring = RotaryRing(0, Point(100.0, 100.0), 50.0, 1000.0)
        p = Point(x, y)
        _, d = nearest_point(ring, p)
        for corner in ring.corners():
            assert d <= p.manhattan(corner) + 1e-9
