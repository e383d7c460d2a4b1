"""Bit-for-bit agreement of the Fig. 3 array kernels with their loops.

The flow evaluates ring attractions, signal HPWL and pair slacks with
array kernels over one placement state; ``oracles.evaluation_ref``
keeps the per-flip-flop and per-pair loops they replaced, and the
per-net HPWL loop is :func:`repro.core.signal_wirelength`.
Every property compares the two bit for bit (signed zeros included) on
the inputs where a vectorization most easily drifts: flip-flops on a
ring corner or equidistant from two sides, period shifts that land on
an exact ``.5``, nets with fewer than two placed pins, flip-flops
missing from the schedule, one flip-flop and co-located flip-flops.
Each runs under ``np.errstate(all="raise")``, so a kernel that only
agreed after a silent NaN or overflow fails too.  The last test pins
the placer's anchor-order contract: stability anchors fed in cell-index
order give the placement the previous legalization's x order gives.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import ring_attractions, signal_wirelength
from repro.errors import ReproError
from repro.geometry import (
    BBox,
    Point,
    hpwl_from_arrays,
    net_hpwl,
    pin_index,
    position_arrays,
    position_dict,
)
from repro.netlist import generate_circuit, small_profile
from repro.placement import QuadraticPlacer, legalize, region_for_circuit
from repro.rotary import RingArray
from repro.timing import PathBounds, TimingSnapshot, pair_slacks, worst_pair_slack

from oracles import evaluation_ref

TECH = DEFAULT_TECHNOLOGY
PERIOD = 1000.0


def same_bits(got, expected) -> bool:
    """Equal as float64 bit patterns, element by element."""
    a = np.asarray(got, dtype=np.float64)
    b = np.asarray(expected, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Ring attractions.
# ----------------------------------------------------------------------
ARRAY = RingArray(BBox(0.0, 0.0, 900.0, 900.0), side=3, period=PERIOD)


@st.composite
def ring_points(draw) -> tuple[int, Point]:
    """A ring and a point that stresses the nearest-side choice."""
    ring = ARRAY[draw(st.integers(0, ARRAY.num_rings - 1))]
    c, h = ring.center, ring.half_width
    kind = draw(st.sampled_from(["corner", "diagonal", "center", "side", "free"]))
    if kind == "corner":
        p = draw(st.sampled_from(ring.corners()))
    elif kind == "diagonal":
        # Equidistant from the two sides meeting at a corner.
        t = draw(st.floats(-2.0 * h, 2.0 * h))
        sx, sy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        p = Point(c.x + sx * t, c.y + sy * t)
    elif kind == "center":
        p = c
    elif kind == "side":
        frac = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
        off = draw(st.sampled_from([0.0, 5.0, -5.0, 37.5]))
        side = draw(st.integers(0, 3))
        a = ring.corners()[side]
        b = ring.corners()[(side + 1) % 4]
        p = Point(a.x + frac * (b.x - a.x) + off, a.y + frac * (b.y - a.y) - off)
    else:
        p = Point(draw(st.floats(-100.0, 1000.0)), draw(st.floats(-100.0, 1000.0)))
    return ring.ring_id, p


#: Targets on whole and half periods (the shift rounds an exact .5 from
#: a flip-flop on a corner) and arbitrary ones.
targets = st.one_of(
    st.integers(-6, 6).map(lambda k: k * PERIOD / 2.0),
    st.integers(-6, 6).map(lambda k: k * PERIOD / 2.0 + 250.0),
    st.floats(-5.0 * PERIOD, 5.0 * PERIOD),
)


def assert_attractions_match(ring_of, positions, current) -> None:
    ffs = list(ring_of)
    with np.errstate(all="raise"):
        got = ring_attractions(
            [ring_of[ff] for ff in ffs],
            [positions[ff].x for ff in ffs],
            [positions[ff].y for ff in ffs],
            [current[ff] for ff in ffs],
            ARRAY,
            TECH,
        )
    expected = evaluation_ref.ring_attractions(ring_of, positions, current, ARRAY, TECH)
    assert same_bits(got.distance, [expected[ff].distance for ff in ffs])
    assert same_bits(got.delay_at_point, [expected[ff].delay_at_point for ff in ffs])
    assert same_bits(got.stub_delay, [expected[ff].stub_delay for ff in ffs])


class TestRingAttractions:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(ring_points(), targets), min_size=1, max_size=12))
    def test_matches_loop(self, rows):
        ring_of = {f"ff{k}": ring for k, ((ring, _), _) in enumerate(rows)}
        positions = {f"ff{k}": p for k, ((_, p), _) in enumerate(rows)}
        current = {f"ff{k}": t for k, (_, t) in enumerate(rows)}
        assert_attractions_match(ring_of, positions, current)

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_half_period_shift_on_a_corner(self, k):
        """A corner flip-flop has no stub, so target (k + 1/2) T puts the
        shift exactly on .5: both round half to even."""
        corner = ARRAY[0].corners()[0]
        ring_of = {"a": 0}
        positions = {"a": corner}
        current = {"a": (k + 0.5) * PERIOD}
        assert_attractions_match(ring_of, positions, current)

    @settings(max_examples=50, deadline=None)
    @given(ring_points(), targets, st.integers(1, 20))
    def test_co_located_flip_flops(self, ring_point, target, n):
        ring, p = ring_point
        names = [f"ff{k}" for k in range(n)]
        assert_attractions_match(
            {ff: ring for ff in names},
            {ff: p for ff in names},
            {ff: target for ff in names},
        )

    def test_no_flip_flops(self):
        got = ring_attractions([], [], [], [], ARRAY, TECH)
        assert len(got) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["target", "x", "y"])
    def test_non_finite_input_is_typed_error(self, bad, where):
        values = {"target": 0.0, "x": 10.0, "y": 10.0}
        values[where] = bad
        with pytest.raises(ReproError, match="non-finite"):
            ring_attractions(
                [0], [values["x"]], [values["y"]], [values["target"]], ARRAY, TECH
            )


# ----------------------------------------------------------------------
# Signal HPWL.
# ----------------------------------------------------------------------
coords = st.floats(-1e5, 1e5)


class TestHpwl:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=10),
        st.lists(st.lists(st.integers(0, 9), max_size=6), max_size=15),
    )
    def test_matches_net_by_net_fold(self, points, nets):
        """Empty and one-pin nets, repeated pins, any coordinates."""
        nets = [[i % len(points) for i in net] for net in nets]
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        expected = 0.0
        for net in nets:
            expected += net_hpwl([Point(*points[i]) for i in net])
        with np.errstate(all="raise"):
            got = hpwl_from_arrays(x, y, *pin_index(nets))
        assert same_bits(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), keep=st.floats(0.0, 1.0), colocated=st.booleans())
    def test_matches_signal_wirelength(self, seed, keep, colocated):
        """Cells missing from the placement drop out of their nets, so
        some nets keep fewer than two placed pins."""
        rng = np.random.default_rng(seed)
        names = [cell.name for cell in CIRCUIT]
        placed = [n for n in names if rng.random() < keep]
        if colocated:
            positions = {n: Point(17.0, -3.5) for n in placed}
        else:
            positions = {
                n: Point(float(rng.uniform(-50, 500)), float(rng.uniform(-50, 500)))
                for n in placed
            }
        with np.errstate(all="raise"):
            got = hpwl_from_arrays(
                *position_arrays(names, positions), *circuit_pins(positions)
            )
        assert same_bits(got, signal_wirelength(CIRCUIT, positions))

    def test_flow_pin_index_matches_signal_wirelength(self):
        region = region_for_circuit(CIRCUIT, TECH)
        placer = QuadraticPlacer(CIRCUIT, region)
        positions = dict(placer.fixed_positions)
        positions.update(position_dict(placer.movable, *placer.place()))
        names = [cell.name for cell in CIRCUIT]
        with np.errstate(all="raise"):
            got = hpwl_from_arrays(
                *position_arrays(names, positions), *circuit_pins(positions)
            )
        assert same_bits(got, signal_wirelength(CIRCUIT, positions))


def circuit_pins(placed):
    """The flow's CSR pin index over ``CIRCUIT``'s nets, keeping only the
    pins of ``placed`` cells (as :func:`signal_wirelength` does)."""
    index = {cell.name: i for i, cell in enumerate(CIRCUIT)}
    return pin_index(
        [index[m] for m in net.members if m in placed]
        for net in CIRCUIT.nets.values()
    )


CIRCUIT = generate_circuit(small_profile(num_cells=120, num_flipflops=16, seed=5))


# ----------------------------------------------------------------------
# Pair slacks.
# ----------------------------------------------------------------------
delays = st.floats(0.0, 2.0 * PERIOD)


@st.composite
def timing_cases(draw):
    n_ff = draw(st.integers(1, 6))
    ffs = [f"ff{k}" for k in range(n_ff)]
    pairs = {}
    for _ in range(draw(st.integers(0, 12))):
        key = (draw(st.sampled_from(ffs)), draw(st.sampled_from(ffs)))
        d_min = draw(delays)
        pairs[key] = PathBounds(d_min=d_min, d_max=d_min + draw(delays))
    kind = draw(st.sampled_from(["partial", "full", "co-located", "empty"]))
    if kind == "empty":
        schedule = {}
    elif kind == "co-located":
        t = draw(st.floats(-PERIOD, PERIOD))
        schedule = {ff: t for ff in ffs}
    else:
        schedule = {
            ff: draw(st.floats(-PERIOD, PERIOD))
            for ff in ffs
            if kind == "full" or draw(st.booleans())
        }
    return ffs, pairs, schedule


class TestPairSlacks:
    @settings(max_examples=300, deadline=None)
    @given(timing_cases())
    def test_matches_loop(self, case):
        """Flip-flops missing from the schedule count as 0.0."""
        ffs, pairs, schedule = case
        snap = TimingSnapshot.from_pairs(pairs, ffs)
        with np.errstate(all="raise"):
            targets = snap.schedule_array(schedule)
            got = pair_slacks(snap, targets, PERIOD, TECH)
            worst = worst_pair_slack(snap, targets, PERIOD, TECH)
        expected = evaluation_ref.pair_slacks(pairs, schedule, PERIOD, TECH)
        assert snap.keys == tuple(expected)
        assert same_bits(got, list(expected.values()))
        assert same_bits(
            worst, evaluation_ref.worst_pair_slack(pairs, schedule, PERIOD, TECH)
        )

    def test_one_flip_flop_self_loop(self):
        pairs = {("a", "a"): PathBounds(d_min=120.0, d_max=640.0)}
        snap = TimingSnapshot.from_pairs(pairs, ["a"])
        targets = snap.schedule_array({"a": 321.0})
        assert same_bits(
            worst_pair_slack(snap, targets, PERIOD, TECH),
            evaluation_ref.worst_pair_slack(pairs, {"a": 321.0}, PERIOD, TECH),
        )


# ----------------------------------------------------------------------
# Stability-anchor order.
# ----------------------------------------------------------------------
def test_stability_anchor_order_leaves_the_placement_unchanged():
    """The placer's stability anchors go in cell-index order; the flow
    used to feed them in the previous legalization's x order.  Each cell
    keeps its anchors' relative order (pseudo net, stability, spreading
    level) either way, so scipy's duplicate folding and ``np.add.at``
    see the same per-cell sequence and the placements are equal."""
    circuit = generate_circuit(small_profile(num_cells=160, num_flipflops=20, seed=9))
    region = region_for_circuit(circuit, TECH)
    placer = QuadraticPlacer(circuit, region)
    gx, gy = placer.place()
    legal = legalize(gx, gy, placer.movable, region)
    ffs = [ff.name for ff in circuit.flip_flops]
    cells = np.array([placer.movable.index(ff) for ff in ffs])
    pseudo = (
        cells,
        np.linspace(region.bbox.xlo, region.bbox.xhi, len(ffs)),
        np.linspace(region.bbox.yhi, region.bbox.ylo, len(ffs)),
        np.full(len(ffs), 0.5),
    )
    weight = 0.02

    x, y = placer.place(
        pseudo_nets=pseudo,
        stability_anchors=(legal.x, legal.y),
        stability_weight=weight,
    )

    # The previous assembly: pseudo nets, then stability anchors in the
    # order the legalizer placed the cells.
    order = legal.order
    a_idx = np.concatenate([pseudo[0], order])
    a_w = np.concatenate([pseudo[3], np.full(order.size, weight)])
    anchors_x = (a_idx, np.concatenate([pseudo[1], legal.x[order]]), a_w)
    anchors_y = (a_idx, np.concatenate([pseudo[2], legal.y[order]]), a_w)
    px, py = placer._solve(anchors_x, anchors_y, legal.x, legal.y)
    px, py = placer._spread(px, py, anchors_x, anchors_y)
    parent = [region.bbox.clamp(Point(float(a), float(b))) for a, b in zip(px, py)]

    assert not np.array_equal(order, np.arange(order.size))
    assert [Point(a, b) for a, b in zip(x.tolist(), y.tolist())] == parent
