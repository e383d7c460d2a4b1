"""Rotary clock ring geometry and phase model.

A rotary ring is a pair of cross-connected differential transmission lines
laid out as a square loop (Fig. 1(a) of the paper).  The clock wave travels
around the loop once per period ``T``, so the signal delay at arc-length
``s`` from the ring's reference point is ``t_ref + rho * s`` with
``rho = T / perimeter``.  The two lines of the differential pair carry
complementary phases: at the same geometric location the second line is
half a period (180 degrees) behind the first.

For tapping-point computation the square loop is viewed as **eight
segments**: the four sides, each available on both lines of the pair
(Section III of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import BBox, Point


@dataclass(frozen=True, slots=True)
class RingSegment:
    """One tappable segment of a ring.

    The segment runs from ``start`` for ``length`` um in direction
    ``(dx, dy)`` (a unit axis vector).  The clock delay at local coordinate
    ``x`` (0 <= x <= length) is ``t0 + rho * x``.
    """

    ring_id: int
    index: int  # 0..7: side (0..3) plus 4 for the complementary line
    start: Point
    dx: float
    dy: float
    length: float
    t0: float  # delay at the segment start (ps), may exceed T
    rho: float  # delay per um along the ring (ps/um)

    def point_at(self, x: float) -> Point:
        """Planar location of local coordinate ``x``."""
        return Point(self.start.x + self.dx * x, self.start.y + self.dy * x)

    def delay_at(self, x: float) -> float:
        """Clock signal delay (ps) at local coordinate ``x``."""
        return self.t0 + self.rho * x

    def project(self, p: Point) -> tuple[float, float]:
        """Project ``p`` onto the segment's axis.

        Returns ``(xf, yf)``: the (unclamped) local coordinate of the
        projection and the perpendicular distance.  The stub wirelength
        from tap coordinate ``x`` to the flip-flop is ``|x - xf| + yf``
        (Manhattan routing: along the segment, then perpendicular).
        """
        rx = p.x - self.start.x
        ry = p.y - self.start.y
        xf = rx * self.dx + ry * self.dy
        yf = abs(rx * self.dy - ry * self.dx)  # perpendicular component
        return xf, yf


class RotaryRing:
    """A square rotary clock ring.

    Parameters
    ----------
    ring_id:
        Index of the ring within its array.
    center:
        Geometric center of the square loop.
    half_width:
        Half the side length of the square (um).
    period:
        Clock period ``T`` (ps); the wave makes one lap per period.
    reference_delay:
        Clock delay at the ring's reference corner (ps).  In a
        phase-locked array every ring has an equal-phase point; choosing
        the reference corner as that point (delay 0) matches Fig. 1(b).
    """

    def __init__(
        self,
        ring_id: int,
        center: Point,
        half_width: float,
        period: float,
        reference_delay: float = 0.0,
    ):
        if half_width <= 0:
            raise ValueError("ring half_width must be positive")
        if period <= 0:
            raise ValueError("clock period must be positive")
        self.ring_id = ring_id
        self.center = center
        self.half_width = half_width
        self.period = period
        self.reference_delay = reference_delay

    @property
    def side(self) -> float:
        """Side length of the square loop (um)."""
        return 2.0 * self.half_width

    @property
    def perimeter(self) -> float:
        """Loop length (um)."""
        return 4.0 * self.side

    @property
    def rho(self) -> float:
        """Delay per unit length along the ring (ps/um): one lap per period."""
        return self.period / self.perimeter

    @property
    def bbox(self) -> BBox:
        c, h = self.center, self.half_width
        return BBox(c.x - h, c.y - h, c.x + h, c.y + h)

    def corners(self) -> list[Point]:
        """Loop corners in travel order, starting at the reference corner
        (lower-left) and proceeding counter-clockwise."""
        c, h = self.center, self.half_width
        return [
            Point(c.x - h, c.y - h),
            Point(c.x + h, c.y - h),
            Point(c.x + h, c.y + h),
            Point(c.x - h, c.y + h),
        ]

    def segments(self) -> list[RingSegment]:
        """The eight tappable segments (4 sides x 2 complementary lines).

        Segments 0-3 follow the primary line (delay ``t0 + rho*x``);
        segments 4-7 are the same geometry on the complementary line,
        offset by half a period (a flip-flop tapped there gets the
        opposite clock polarity, per Section III of the paper).
        """
        corners = self.corners()
        rho = self.rho
        side = self.side
        out: list[RingSegment] = []
        for i in range(4):
            a = corners[i]
            b = corners[(i + 1) % 4]
            dx = (b.x - a.x) / side
            dy = (b.y - a.y) / side
            t0 = self.reference_delay + rho * side * i
            out.append(RingSegment(self.ring_id, i, a, dx, dy, side, t0, rho))
        for i in range(4):
            base = out[i]
            out.append(
                RingSegment(
                    self.ring_id,
                    i + 4,
                    base.start,
                    base.dx,
                    base.dy,
                    base.length,
                    base.t0 + 0.5 * self.period,
                    rho,
                )
            )
        return out

    def delay_at_arclength(self, s: float) -> float:
        """Delay at arc length ``s`` from the reference corner (wraps)."""
        return self.reference_delay + self.rho * (s % self.perimeter)

    def phase_at_arclength(self, s: float) -> float:
        """Clock phase in degrees at arc length ``s``."""
        t = self.delay_at_arclength(s)
        return 360.0 * ((t / self.period) % 1.0)
