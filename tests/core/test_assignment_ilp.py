"""Tests for the Section VI min-max load-capacitance ILP pipeline."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_minmax_lp,
    generic_ilp_assignment,
    greedy_rounding,
    local_search_minmax,
    solve_minmax_cap,
    solve_minmax_cap_refined,
)
from repro.errors import AssignmentError
from repro.opt.mincostflow import FORBIDDEN_COST

from oracles.simplex_ref import solve_program


def brute_force_minmax(cap: np.ndarray) -> float:
    n, r = cap.shape
    best = np.inf
    for combo in itertools.product(range(r), repeat=n):
        if any(cap[i, j] >= FORBIDDEN_COST for i, j in enumerate(combo)):
            continue
        loads = np.zeros(r)
        for i, j in enumerate(combo):
            loads[j] += cap[i, j]
        best = min(best, loads.max())
    return best


class TestLpModel:
    def test_model_shape(self):
        cap = np.array([[1.0, 2.0], [3.0, 4.0]])
        lp, candidates = build_minmax_lp(cap)
        # cmax + 4 x vars; 2 equality rows + 2 ring rows.
        assert lp.num_vars == 5
        assert lp.num_constraints == 4
        assert [list(c) for c in candidates] == [[0, 1], [0, 1]]

    def test_pruned_candidates(self):
        cap = np.array([[1.0, FORBIDDEN_COST], [FORBIDDEN_COST, 4.0]])
        _, candidates = build_minmax_lp(cap)
        assert [list(c) for c in candidates] == [[0], [1]]

    def test_row_without_candidates_rejected(self):
        cap = np.full((1, 2), FORBIDDEN_COST)
        with pytest.raises(AssignmentError):
            build_minmax_lp(cap)


class TestGreedyRounding:
    def test_integral_solution_kept(self):
        candidates = [np.array([0, 1]), np.array([0, 1])]
        x = {"x_0_0": 1.0, "x_0_1": 0.0, "x_1_0": 0.0, "x_1_1": 1.0}
        assert list(greedy_rounding(x, candidates)) == [0, 1]

    def test_fractional_rounds_to_max(self):
        candidates = [np.array([0, 1, 2])]
        x = {"x_0_0": 0.2, "x_0_1": 0.5, "x_0_2": 0.3}
        assert list(greedy_rounding(x, candidates)) == [1]

    def test_every_row_assigned(self):
        candidates = [np.array([1]), np.array([0, 2])]
        x = {"x_0_1": 1.0, "x_1_0": 0.5, "x_1_2": 0.5}
        assign = greedy_rounding(x, candidates)
        assert (assign >= 0).all()


class TestSolveMinMax:
    def test_lp_bound_is_lower_bound(self):
        rng = np.random.default_rng(1)
        cap = rng.uniform(5, 50, size=(6, 3))
        res = solve_minmax_cap(cap)
        assert res.ilp_value >= res.lp_bound - 1e-6
        assert res.integrality_gap >= 1.0 - 1e-9

    def test_feasibility_of_rounded(self):
        rng = np.random.default_rng(2)
        cap = rng.uniform(5, 50, size=(10, 4))
        res = solve_minmax_cap(cap)
        assert res.assign.shape == (10,)
        assert ((res.assign >= 0) & (res.assign < 4)).all()

    def test_balances_load(self):
        """Identical flip-flops spread across identical rings."""
        cap = np.full((8, 4), 10.0)
        res = solve_minmax_cap(cap)
        counts = np.bincount(res.assign, minlength=4)
        assert counts.max() == 2  # perfectly balanced
        assert res.ilp_value == pytest.approx(20.0)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_near_optimal_vs_brute_force(self, data):
        n = data.draw(st.integers(2, 5))
        r = data.draw(st.integers(2, 3))
        cap = np.array(
            [[data.draw(st.integers(1, 30)) for _ in range(r)] for _ in range(n)],
            dtype=float,
        )
        res = solve_minmax_cap(cap)
        optimum = brute_force_minmax(cap)
        # The reference simplex reaches the same relaxation optimum.
        assert solve_program(build_minmax_lp(cap)[0]).objective == pytest.approx(
            res.lp_bound
        )
        assert res.lp_bound <= optimum + 1e-6  # LP relax is a lower bound
        assert res.ilp_value >= optimum - 1e-6  # rounding can't beat it
        # Greedy rounding should be within a small factor on tiny cases.
        assert res.ilp_value <= 3.0 * optimum + 1e-6


class TestLocalSearch:
    def test_never_worse_than_greedy(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            cap = rng.uniform(1, 50, size=(12, 4))
            greedy = solve_minmax_cap(cap)
            refined = solve_minmax_cap_refined(cap)
            assert refined.ilp_value <= greedy.ilp_value + 1e-9
            assert refined.lp_bound == pytest.approx(greedy.lp_bound)

    def test_stays_feasible(self):
        rng = np.random.default_rng(22)
        cap = rng.uniform(1, 50, size=(15, 5))
        refined = solve_minmax_cap_refined(cap)
        assert ((refined.assign >= 0) & (refined.assign < 5)).all()

    def test_respects_pruned_arcs(self):
        from repro.opt.mincostflow import FORBIDDEN_COST

        cap = np.array(
            [
                [10.0, FORBIDDEN_COST],
                [10.0, FORBIDDEN_COST],
                [5.0, 1.0],
            ]
        )
        base = solve_minmax_cap(cap)
        refined = local_search_minmax(cap, base.assign)
        # Rows 0 and 1 may never move to the forbidden column.
        assert refined[0] == 0 and refined[1] == 0

    def test_fixes_pileup(self):
        """An instance where greedy rounding piles onto one ring and a
        single relocation fixes it."""
        cap = np.array([[10.0, 11.0], [10.0, 11.0], [10.0, 11.0]])
        # Force the pileup: everyone on ring 0.
        assign = np.array([0, 0, 0])
        refined = local_search_minmax(cap, assign)
        loads = np.zeros(2)
        for i, j in enumerate(refined):
            loads[j] += cap[i, j]
        assert loads.max() < 30.0

    def test_idempotent_at_local_optimum(self):
        rng = np.random.default_rng(23)
        cap = rng.uniform(1, 50, size=(10, 3))
        once = local_search_minmax(cap, solve_minmax_cap(cap).assign)
        twice = local_search_minmax(cap, once)
        assert (once == twice).all()


class TestGenericIlp:
    def test_exact_on_small(self):
        rng = np.random.default_rng(3)
        cap = rng.uniform(1, 20, size=(5, 3))
        res = generic_ilp_assignment(cap, time_limit=30.0)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(brute_force_minmax(cap), abs=1e-6)

    def test_milp_backend_agrees(self):
        rng = np.random.default_rng(4)
        cap = rng.uniform(1, 20, size=(5, 3))
        a = generic_ilp_assignment(cap, time_limit=30.0)
        b = build_minmax_lp(cap, integer=True)[0].solve(time_limit=30.0)
        assert a.objective == pytest.approx(b.objective, abs=1e-5)

    def test_greedy_never_better_than_exact(self):
        rng = np.random.default_rng(5)
        cap = rng.uniform(1, 20, size=(6, 3))
        greedy = solve_minmax_cap(cap)
        exact = generic_ilp_assignment(cap, time_limit=30.0)
        assert greedy.ilp_value >= exact.objective - 1e-6

    def test_time_limit_respected(self):
        rng = np.random.default_rng(6)
        cap = rng.uniform(1, 20, size=(12, 5))
        res = generic_ilp_assignment(cap, time_limit=0.5)
        assert res.solve_seconds < 10.0  # generous slop over the limit
