"""Semantic checks on the cost-driven skew LP objectives."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import RingAttractions, cost_driven_schedule
from repro.rotary import stub_delay
from repro.timing import PathBounds

TECH = DEFAULT_TECHNOLOGY
T = 1000.0


def make_attraction(ff: str, t_c: float, distance: float) -> SimpleNamespace:
    stub = stub_delay(distance, TECH)
    return SimpleNamespace(
        ff=ff,
        distance=distance,
        delay_at_point=t_c,
        stub_delay=stub,
        achievable_delay=t_c + stub,
    )


def attractions(*atts: SimpleNamespace) -> RingAttractions:
    """The array form of ``atts``, in the order given."""
    return RingAttractions(
        distance=np.array([a.distance for a in atts]),
        delay_at_point=np.array([a.delay_at_point for a in atts]),
        stub_delay=np.array([a.stub_delay for a in atts]),
    )


class TestMinMaxSemantics:
    def test_unconstrained_delta_is_half_window(self):
        """With no timing constraints, the optimal t sits so that both
        inequalities bind equally: Delta* = t_{c,i} (the midpoint of
        [t_c, t_c + 2 t_ci])."""
        att = make_attraction("a", t_c=300.0, distance=80.0)
        sched = cost_driven_schedule(
            attractions(att), {}, ["a"], T, TECH, mode="minmax"
        )
        t = sched.targets["a"]
        delta_star = max(att.delay_at_point + 2 * att.stub_delay - t, t - att.delay_at_point)
        assert delta_star == pytest.approx(att.stub_delay, abs=1e-6)

    def test_two_flipflops_worst_governs(self):
        near = make_attraction("near", t_c=100.0, distance=5.0)
        far = make_attraction("far", t_c=700.0, distance=150.0)
        sched = cost_driven_schedule(
            attractions(near, far), {}, ["near", "far"], T, TECH, mode="minmax"
        )
        # Delta is set by the far flip-flop's larger stub delay.
        t_far = sched.targets["far"]
        delta_far = max(
            far.delay_at_point + 2 * far.stub_delay - t_far,
            t_far - far.delay_at_point,
        )
        assert delta_far == pytest.approx(far.stub_delay, abs=1e-5)


class TestWeightedSemantics:
    def test_exact_targets_when_unconstrained(self):
        atts = {
            "a": make_attraction("a", 200.0, 40.0),
            "b": make_attraction("b", 650.0, 15.0),
        }
        sched = cost_driven_schedule(
            attractions(*atts.values()), {}, ["a", "b"], T, TECH, mode="weighted"
        )
        for ff, att in atts.items():
            assert sched.targets[ff] == pytest.approx(att.achievable_delay, abs=1e-6)

    def test_constraint_forces_compromise_toward_heavy_weight(self):
        """A rigid skew constraint couples the two targets; the solution
        must favour the far (heavily weighted) flip-flop."""
        near = make_attraction("near", t_c=100.0, distance=2.0)
        far = make_attraction("far", t_c=400.0, distance=200.0)
        # Force t_near - t_far ~ 0 via a tight two-sided constraint.
        pairs = {
            ("near", "far"): PathBounds(
                d_min=TECH.hold_time, d_max=T - TECH.setup_time
            ),
            ("far", "near"): PathBounds(
                d_min=TECH.hold_time, d_max=T - TECH.setup_time
            ),
        }
        sched = cost_driven_schedule(
            attractions(near, far), pairs, ["near", "far"], T, TECH,
            mode="weighted",
        )
        err_far = abs(sched.targets["far"] - far.achievable_delay)
        err_near = abs(sched.targets["near"] - near.achievable_delay)
        # The weighted objective (w = distance) sacrifices the near FF.
        assert err_far <= err_near + 1e-6
