"""Tests of the reference SPFA feasibility oracle and graph-based max slack
(``oracles.diffconstraints_ref``), the cross-check of the skew LP."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt import SkewConstraint

from oracles.diffconstraints_ref import (
    check_constraints,
    maximize_slack,
    solve_difference_constraints,
)


class TestFeasibility:
    def test_simple_feasible(self):
        cons = [SkewConstraint("a", "b", 5.0)]
        sched = solve_difference_constraints(["a", "b"], cons)
        assert sched is not None
        assert sched["a"] - sched["b"] <= 5.0 + 1e-9

    def test_negative_cycle_infeasible(self):
        cons = [
            SkewConstraint("a", "b", 1.0),
            SkewConstraint("b", "a", -2.0),
        ]
        assert solve_difference_constraints(["a", "b"], cons) is None

    def test_zero_cycle_feasible(self):
        cons = [
            SkewConstraint("a", "b", 1.0),
            SkewConstraint("b", "a", -1.0),
        ]
        # b - a <= -1 forces a - b >= 1; with a - b <= 1 it pins to 1.
        sched = solve_difference_constraints(["a", "b"], cons)
        assert sched is not None
        assert sched["a"] - sched["b"] == pytest.approx(1.0)

    def test_slack_tightens_bounds(self):
        cons = [SkewConstraint("a", "b", 5.0), SkewConstraint("b", "a", -3.0)]
        assert solve_difference_constraints(["a", "b"], cons, slack=1.0) is not None
        # At slack 4+ the cycle (5-M) + (-3-M) goes negative.
        assert solve_difference_constraints(["a", "b"], cons, slack=1.5) is None

    def test_no_constraints(self):
        sched = solve_difference_constraints(["a", "b"], [])
        assert sched == {"a": 0.0, "b": 0.0}


class TestMaxSlack:
    def test_two_node_cycle(self):
        cons = [SkewConstraint("a", "b", 10.0), SkewConstraint("b", "a", 6.0)]
        slack, sched = maximize_slack(["a", "b"], cons)
        assert slack == pytest.approx(8.0, abs=1e-3)
        assert not check_constraints(sched, cons, slack=slack - 1e-3)

    def test_no_constraints_unbounded(self):
        slack, sched = maximize_slack(["a"], [])
        assert math.isinf(slack)

    def test_schedule_respects_constraints(self):
        cons = [
            SkewConstraint("a", "b", 4.0),
            SkewConstraint("b", "c", 7.0),
            SkewConstraint("c", "a", 1.0),
        ]
        slack, sched = maximize_slack(["a", "b", "c"], cons)
        assert slack == pytest.approx((4 + 7 + 1) / 3, abs=1e-3)
        assert not check_constraints(sched, cons, slack=slack - 1e-3)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_cycles_match_min_mean_cycle(self, data):
        """On a single directed cycle the max slack is the cycle mean."""
        n = data.draw(st.integers(2, 6))
        bounds = [data.draw(st.integers(-3, 12)) for _ in range(n)]
        nodes = [f"n{i}" for i in range(n)]
        cons = [
            SkewConstraint(nodes[i], nodes[(i + 1) % n], float(bounds[i]))
            for i in range(n)
        ]
        slack, sched = maximize_slack(nodes, cons, tolerance=1e-5)
        assert slack == pytest.approx(sum(bounds) / n, abs=1e-3)
        assert not check_constraints(sched, cons, slack=slack - 1e-3)


class TestCheckConstraints:
    def test_reports_violations(self):
        cons = [SkewConstraint("a", "b", 1.0)]
        bad = {"a": 5.0, "b": 0.0}
        assert check_constraints(bad, cons) == cons
        good = {"a": 0.0, "b": 0.0}
        assert check_constraints(good, cons) == []
