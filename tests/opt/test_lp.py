"""Tests for the LinearProgram facade (HiGHS, cross-checked by the oracle simplex)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError, OptimizationError, UnboundedError
from repro.opt import LinearProgram

from oracles.simplex_ref import solve_program


def toy_lp() -> LinearProgram:
    lp = LinearProgram("toy")
    lp.add_var("x", lb=0.0)
    lp.add_var("y", lb=0.0)
    lp.add_constraint({"x": 1, "y": 2}, "<=", 14)
    lp.add_constraint({"x": 3, "y": -1}, ">=", 0)
    lp.add_constraint({"x": 1, "y": -1}, "<=", 2)
    lp.set_objective({"x": -1, "y": -1})
    return lp


class TestModelBuilding:
    def test_duplicate_variable(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(OptimizationError):
            lp.add_var("x")

    def test_bad_bounds(self):
        lp = LinearProgram()
        with pytest.raises(OptimizationError):
            lp.add_var("x", lb=2.0, ub=1.0)

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(OptimizationError):
            lp.add_constraint({"ghost": 1.0}, "<=", 0.0)

    def test_bad_sense(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(OptimizationError):
            lp.add_constraint({"x": 1.0}, "<", 0.0)  # type: ignore[arg-type]

    def test_unknown_variable_in_objective(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(OptimizationError):
            lp.set_objective({"ghost": 1.0})

    def test_counts(self):
        lp = toy_lp()
        assert lp.num_vars == 2
        assert lp.num_constraints == 3


class TestSolve:
    def test_known_optimum(self):
        sol = toy_lp().solve()
        assert sol.objective == pytest.approx(-10.0)
        assert sol["x"] == pytest.approx(6.0)
        assert sol["y"] == pytest.approx(4.0)

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0)
        lp.add_constraint({"x": 1}, "<=", -1)
        lp.set_objective({"x": 1})
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_unbounded(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0)
        lp.set_objective({"x": -1})
        with pytest.raises(UnboundedError):
            lp.solve()

    def test_equality_constraints(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0.0)
        lp.add_var("y", lb=0.0)
        lp.add_constraint({"x": 1, "y": 1}, "==", 10)
        lp.set_objective({"x": 2, "y": 1})
        sol = lp.solve()
        assert sol.objective == pytest.approx(10.0)
        assert sol["y"] == pytest.approx(10.0)


class TestMilp:
    def test_integer_knapsack(self):
        lp = LinearProgram("knap")
        for i, _ in enumerate([5, 4, 3]):
            lp.add_var(f"x{i}", lb=0, ub=1, integer=True)
        lp.add_constraint({"x0": 5, "x1": 4, "x2": 3}, "<=", 8)
        lp.set_objective({"x0": -10, "x1": -8, "x2": -6})
        sol = lp.solve()
        assert sol.objective == pytest.approx(-16.0)
        assert sol["x0"] == pytest.approx(1.0)
        assert sol["x2"] == pytest.approx(1.0)

    def test_relax_integrality(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0, ub=1, integer=True)
        lp.add_constraint({"x": 2}, "<=", 1)
        lp.set_objective({"x": -1})
        relaxed = lp.solve(relax_integrality=True)
        assert relaxed["x"] == pytest.approx(0.5)
        exact = lp.solve()
        assert exact["x"] == pytest.approx(0.0)

    def test_simplex_rejects_integers(self):
        lp = LinearProgram()
        lp.add_var("x", lb=0, ub=1, integer=True)
        lp.set_objective({"x": 1})
        with pytest.raises(OptimizationError):
            solve_program(lp)


class TestBackendAgreement:
    def test_toy_agreement(self):
        a = toy_lp().solve()
        b = solve_program(toy_lp())
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_lp_agreement(self, data):
        """HiGHS and the reference simplex find the same optimum on random
        bounded LPs."""
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 5))
        coef = st.integers(-5, 5)
        lp1 = LinearProgram()
        lp2 = LinearProgram()
        for i in range(n):
            ub = data.draw(st.integers(1, 10))
            lp1.add_var(f"v{i}", lb=0.0, ub=float(ub))
            lp2.add_var(f"v{i}", lb=0.0, ub=float(ub))
        obj = {f"v{i}": float(data.draw(coef)) for i in range(n)}
        rows = []
        for _ in range(m):
            row = {f"v{i}": float(data.draw(coef)) for i in range(n)}
            rhs = float(data.draw(st.integers(0, 20)))
            rows.append((row, rhs))
        for lp in (lp1, lp2):
            for row, rhs in rows:
                lp.add_constraint(row, "<=", rhs)
            lp.set_objective(obj)
        # Bounded + x=0 feasible, so both must return an optimum.
        a = lp1.solve()
        b = solve_program(lp2)
        assert a.objective == pytest.approx(b.objective, abs=1e-6)
