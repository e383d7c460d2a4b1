"""Direct tests of the two-phase simplex kernel against scipy/HiGHS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.errors import InfeasibleError, UnboundedError

from oracles.simplex_ref import solve_simplex


class TestBasics:
    def test_simple_minimize(self):
        # min -x - 2y st x + y <= 4, x,y >= 0 -> y=4, obj=-8
        x, obj = solve_simplex(
            np.array([-1.0, -2.0]),
            np.array([[1.0, 1.0]]),
            np.array([4.0]),
            None,
            None,
            [(0.0, np.inf), (0.0, np.inf)],
        )
        assert obj == pytest.approx(-8.0)
        assert x[1] == pytest.approx(4.0)

    def test_equality_only(self):
        # min x + y st x + y == 3
        x, obj = solve_simplex(
            np.array([1.0, 1.0]),
            None,
            None,
            np.array([[1.0, 1.0]]),
            np.array([3.0]),
            [(0.0, np.inf), (0.0, np.inf)],
        )
        assert obj == pytest.approx(3.0)

    def test_shifted_lower_bounds(self):
        # min x with x >= 5 (via bounds)
        x, obj = solve_simplex(
            np.array([1.0]), None, None, None, None, [(5.0, np.inf)]
        )
        assert obj == pytest.approx(5.0)

    def test_free_variable(self):
        # min x with -3 <= x <= 7 expressed as free var + rows
        x, obj = solve_simplex(
            np.array([1.0]),
            np.array([[1.0], [-1.0]]),
            np.array([7.0, 3.0]),
            None,
            None,
            [(-np.inf, np.inf)],
        )
        assert obj == pytest.approx(-3.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_simplex(
                np.array([1.0]),
                np.array([[1.0], [-1.0]]),
                np.array([1.0, -2.0]),  # x <= 1 and x >= 2
                None,
                None,
                [(0.0, np.inf)],
            )

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            solve_simplex(
                np.array([-1.0]), None, None, None, None, [(0.0, np.inf)]
            )

    def test_redundant_equalities(self):
        # x + y == 2 twice (redundant row must be dropped, not fail).
        x, obj = solve_simplex(
            np.array([1.0, 0.0]),
            None,
            None,
            np.array([[1.0, 1.0], [1.0, 1.0]]),
            np.array([2.0, 2.0]),
            [(0.0, np.inf), (0.0, np.inf)],
        )
        assert obj == pytest.approx(0.0)

    def test_negative_rhs_normalization(self):
        # -x <= -2  (i.e. x >= 2)
        x, obj = solve_simplex(
            np.array([1.0]),
            np.array([[-1.0]]),
            np.array([-2.0]),
            None,
            None,
            [(0.0, np.inf)],
        )
        assert obj == pytest.approx(2.0)


class TestAgainstScipy:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_problems(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 4))
        c = np.array([data.draw(st.integers(-4, 4)) for _ in range(n)], dtype=float)
        A = np.array(
            [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)],
            dtype=float,
        )
        b = np.array([data.draw(st.integers(0, 15)) for _ in range(m)], dtype=float)
        bounds = [(0.0, float(data.draw(st.integers(1, 8)))) for _ in range(n)]
        ref = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        assert ref.success  # x=0 feasible, box-bounded
        x, obj = solve_simplex(c, A, b, None, None, bounds)
        assert obj == pytest.approx(ref.fun, abs=1e-6)
        # Solution must actually be feasible.
        assert (A @ x <= b + 1e-6).all()
        for xi, (lo, hi) in zip(x, bounds):
            assert lo - 1e-9 <= xi <= hi + 1e-9
