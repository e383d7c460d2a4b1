"""Tests for traditional and cost-driven skew optimization (Section VII)."""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import (
    cost_driven_schedule,
    max_slack_schedule,
    ring_attractions,
    zero_skew_schedule,
)
from repro.errors import SkewOptimizationError
from repro.geometry import BBox, Point
from repro.opt import maximize_slack
from repro.rotary import RingArray, stub_delay
from repro.timing import PathBounds, skew_constraints, validate_schedule

TECH = DEFAULT_TECHNOLOGY
T = 1000.0


def two_ff_pairs() -> dict:
    return {
        ("a", "b"): PathBounds(d_min=100.0, d_max=700.0),
        ("b", "a"): PathBounds(d_min=150.0, d_max=500.0),
    }


class TestMaxSlack:
    def test_lp_schedule_is_valid(self):
        pairs = two_ff_pairs()
        sched = max_slack_schedule(pairs, ["a", "b"], T, TECH)
        assert validate_schedule(sched.targets, pairs, T, TECH, slack=sched.slack - 1e-6) == []

    def test_slack_is_maximal(self):
        """Increasing the slack slightly must break some constraint."""
        pairs = two_ff_pairs()
        sched = max_slack_schedule(pairs, ["a", "b"], T, TECH)
        assert validate_schedule(
            sched.targets, pairs, T, TECH, slack=sched.slack + 1.0
        ) != []

    def test_lp_and_graph_backends_agree(self, tiny_timing, tiny_circuit):
        """The flow's LP optimum matches the difference-constraint graph
        formulation's binary search, and the graph schedule is valid."""
        ffs = [ff.name for ff in tiny_circuit.flip_flops]
        lp = max_slack_schedule(tiny_timing.pairs, ffs, T, TECH)
        slack, schedule = maximize_slack(
            ffs, skew_constraints(tiny_timing.pairs, T, TECH)
        )
        assert lp.slack == pytest.approx(slack, abs=0.01)
        # Unconstrained flip-flops default to zero skew.
        targets = {ff: schedule.get(ff, 0.0) for ff in ffs}
        assert validate_schedule(
            targets, tiny_timing.pairs, T, TECH, slack=slack - 0.01
        ) == []

    def test_no_flipflops_rejected(self):
        with pytest.raises(SkewOptimizationError):
            max_slack_schedule({}, [], T, TECH)

    def test_acyclic_pairs_slack_capped(self):
        """Without cycles the slack is capped at one period, not infinite."""
        pairs = {("a", "b"): PathBounds(100.0, 300.0)}
        sched = max_slack_schedule(pairs, ["a", "b"], T, TECH)
        assert sched.slack <= T + 1e-6

    def test_zero_skew_reference(self):
        sched = zero_skew_schedule(["x", "y"])
        assert sched.targets == {"x": 0.0, "y": 0.0}
        assert sched.slack == 0.0

    def test_normalized_folds_into_period(self):
        sched = zero_skew_schedule(["x"])
        shifted = type(sched)(targets={"x": 2345.0}, slack=0.0)
        assert shifted.normalized(T).targets["x"] == pytest.approx(345.0)


class TestRingAttractions:
    @pytest.fixture()
    def array(self):
        return RingArray(BBox(0, 0, 400, 400), side=2, period=T)

    def test_attraction_geometry(self, array):
        positions = {"ff0": Point(100.0, 100.0)}
        atts = ring_attractions({"ff0": 0}, positions, {"ff0": 0.0}, array, TECH)
        att = atts["ff0"]
        ring = array[0]
        _, dist = ring.nearest_point(positions["ff0"])
        assert att.distance == pytest.approx(dist)
        assert att.stub_delay == pytest.approx(stub_delay(dist, TECH))
        assert att.achievable_delay == pytest.approx(
            att.delay_at_point + att.stub_delay
        )

    def test_phase_adjustment_near_current_target(self, array):
        """The chosen t_c lands within half a period of the target."""
        positions = {"ff0": Point(100.0, 100.0)}
        for target in (0.0, 400.0, 900.0, 1700.0, -300.0):
            atts = ring_attractions(
                {"ff0": 0}, positions, {"ff0": target}, array, TECH
            )
            assert abs(atts["ff0"].achievable_delay - target) <= T / 2 + 1e-6


class TestCostDriven:
    @pytest.fixture()
    def array(self):
        return RingArray(BBox(0, 0, 400, 400), side=2, period=T)

    def _schedule(self, array, mode, pairs, positions, targets, slack=0.0):
        ffs = list(positions)
        atts = ring_attractions(
            {ff: 0 for ff in ffs}, positions, targets, array, TECH
        )
        return cost_driven_schedule(
            atts, pairs, ffs, T, TECH, slack=slack, mode=mode
        )

    @pytest.mark.parametrize("mode", ["minmax", "weighted"])
    def test_pulls_targets_toward_achievable(self, array, mode):
        """Unconstrained flip-flops snap to their achievable delays."""
        positions = {"a": Point(100.0, 100.0), "b": Point(120.0, 90.0)}
        targets = {"a": 500.0, "b": 500.0}
        sched = self._schedule(array, mode, {}, positions, targets)
        atts = ring_attractions(
            {ff: 0 for ff in positions}, positions, targets, array, TECH
        )
        for ff in positions:
            assert sched.targets[ff] == pytest.approx(
                atts[ff].achievable_delay, abs=5.0
            )

    @pytest.mark.parametrize("mode", ["minmax", "weighted"])
    def test_respects_timing_constraints(self, array, mode):
        positions = {"a": Point(50.0, 50.0), "b": Point(350.0, 350.0)}
        targets = {"a": 0.0, "b": 0.0}
        pairs = two_ff_pairs()
        sched = self._schedule(array, mode, pairs, positions, targets, slack=10.0)
        assert validate_schedule(sched.targets, pairs, T, TECH, slack=10.0 - 1e-6) == []

    def test_bad_mode_rejected(self, array):
        with pytest.raises(SkewOptimizationError):
            self._schedule(array, "nope", {}, {"a": Point(0, 0)}, {"a": 0.0})

    def test_no_flipflops_rejected(self):
        with pytest.raises(SkewOptimizationError):
            cost_driven_schedule({}, {}, [], T, TECH)

    def test_weighted_prioritizes_far_flipflops(self, array):
        """With conflicting pulls, the far flip-flop's wish dominates."""
        near = Point(95.0, 100.0)  # ~5 um from ring 0's left edge? inside
        far = Point(200.0, 200.0)  # between rings
        positions = {"near": near, "far": far}
        targets = {"near": 100.0, "far": 100.0}
        # No timing pairs: just check the weighted objective runs and
        # produces finite targets.
        atts = ring_attractions(
            {ff: 0 for ff in positions}, positions, targets, array, TECH
        )
        sched = cost_driven_schedule(
            atts, {}, list(positions), T, TECH, mode="weighted"
        )
        assert all(abs(v) < 10 * T for v in sched.targets.values())
