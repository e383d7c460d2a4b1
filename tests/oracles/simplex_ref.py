"""Reference LP solver: a from-scratch two-phase dense simplex.

The library solves every LP with HiGHS (:meth:`repro.opt.LinearProgram.solve`).
This textbook tableau method with Bland's rule is an independent
implementation kept only as the oracle the LP tests compare HiGHS
against; it is intended for models up to a few hundred variables.
:func:`solve_program` runs it on a :class:`~repro.opt.LinearProgram`.

Problem form (same conventions as :func:`scipy.optimize.linprog`)::

    minimize     c @ x
    subject to   A_ub @ x <= b_ub
                 A_eq @ x == b_eq
                 bounds[i][0] <= x[i] <= bounds[i][1]

Free variables are split into positive/negative parts; finite upper bounds
become explicit rows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import InfeasibleError, OptimizationError, UnboundedError
from repro.opt import LinearProgram, LPSolution

_TOL = 1e-9


def solve_simplex(
    c: np.ndarray,
    A_ub: np.ndarray | None,
    b_ub: np.ndarray | None,
    A_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    bounds: Sequence[tuple[float, float]],
    max_iterations: int = 50_000,
) -> tuple[np.ndarray, float]:
    """Solve the LP; returns ``(x, objective)``.

    Raises :class:`InfeasibleError` or :class:`UnboundedError` as
    appropriate.
    """
    c = np.asarray(c, dtype=float)
    n_orig = c.size
    if len(bounds) != n_orig:
        raise OptimizationError("bounds length must match variable count")

    # ------------------------------------------------------------------
    # Rewrite variables: shifted nonnegative and split free variables.
    # Each original variable i maps to columns via (pos_col, neg_col,
    # shift): x_i = shift + x[pos_col] - (x[neg_col] if neg_col else 0).
    # ------------------------------------------------------------------
    col_of: list[tuple[int, int | None, float]] = []
    n_cols = 0
    extra_ub_rows: list[tuple[int, float]] = []  # (orig var, ub - lb)
    for i, (lb, ub) in enumerate(bounds):
        if lb == -math.inf:
            pos, neg = n_cols, n_cols + 1
            n_cols += 2
            col_of.append((pos, neg, 0.0))
            if ub != math.inf:
                extra_ub_rows.append((i, ub))  # x_i <= ub
        else:
            col_of.append((n_cols, None, lb))
            n_cols += 1
            if ub != math.inf:
                extra_ub_rows.append((i, ub))

    def expand_row(row: np.ndarray) -> tuple[np.ndarray, float]:
        """Map a row over original variables to transformed columns.

        Returns the expanded row and the constant contributed by shifts.
        """
        out = np.zeros(n_cols)
        const = 0.0
        for i, coef in enumerate(row):
            if coef == 0.0:
                continue
            pos, neg, shift = col_of[i]
            out[pos] += coef
            if neg is not None:
                out[neg] -= coef
            const += coef * shift
        return out, const

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []
    if A_ub is not None:
        for r, b in zip(np.atleast_2d(A_ub), np.atleast_1d(b_ub)):
            er, const = expand_row(np.asarray(r, dtype=float))
            rows.append(er)
            rhs.append(float(b) - const)
            senses.append("<=")
    if A_eq is not None:
        for r, b in zip(np.atleast_2d(A_eq), np.atleast_1d(b_eq)):
            er, const = expand_row(np.asarray(r, dtype=float))
            rows.append(er)
            rhs.append(float(b) - const)
            senses.append("==")
    for i, ub in extra_ub_rows:
        unit = np.zeros(n_orig)
        unit[i] = 1.0
        er, const = expand_row(unit)
        rows.append(er)
        rhs.append(ub - const)
        senses.append("<=")

    c_row, c_const = expand_row(c)

    m = len(rows)
    if m == 0:
        # Unconstrained over the (shifted) nonnegative orthant.
        x_t = np.zeros(n_cols)
        if np.any(c_row < -_TOL):
            raise UnboundedError("LP is unbounded (no constraints)")
        return _recover(x_t, col_of, n_orig), float(c_const)

    A = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)
    # Normalize: rhs >= 0.
    for k in range(m):
        if b[k] < 0:
            A[k] = -A[k]
            b[k] = -b[k]
            senses[k] = {"<=": ">=", ">=": "<=", "==": "=="}[senses[k]]

    # Add slack/surplus and artificial columns.
    slack_cols = sum(1 for s in senses if s in ("<=", ">="))
    art_rows = [k for k, s in enumerate(senses) if s in ("==", ">=")]
    n_slack = slack_cols
    n_art = len(art_rows)
    T = np.zeros((m, n_cols + n_slack + n_art))
    T[:, :n_cols] = A
    basis = [-1] * m
    si = 0
    for k, s in enumerate(senses):
        if s == "<=":
            T[k, n_cols + si] = 1.0
            basis[k] = n_cols + si
            si += 1
        elif s == ">=":
            T[k, n_cols + si] = -1.0
            si += 1
    for j, k in enumerate(art_rows):
        T[k, n_cols + n_slack + j] = 1.0
        basis[k] = n_cols + n_slack + j

    total_cols = n_cols + n_slack + n_art

    # Phase 1: minimize sum of artificials.
    if n_art:
        c1 = np.zeros(total_cols)
        c1[n_cols + n_slack :] = 1.0
        obj1, x1 = _simplex_core(T, b, c1, basis, max_iterations)
        if obj1 > 1e-7:
            raise InfeasibleError("LP is infeasible (phase-1 objective positive)")
        # Drive any artificials out of the basis when possible; rows whose
        # artificial cannot be pivoted out are redundant and are dropped.
        keep_rows: list[int] = []
        for k in range(m):
            if basis[k] >= n_cols + n_slack:
                pivot_col = next(
                    (
                        j
                        for j in range(n_cols + n_slack)
                        if abs(T[k, j]) > _TOL
                    ),
                    None,
                )
                if pivot_col is None:
                    continue  # redundant row
                _pivot(T, b, k, pivot_col)
                basis[k] = pivot_col
            keep_rows.append(k)
        T = T[np.ix_(keep_rows, range(n_cols + n_slack))]
        b = b[keep_rows]
        basis = [basis[k] for k in keep_rows]
        m = len(keep_rows)
        total_cols = n_cols + n_slack

    # Phase 2.
    c2 = np.zeros(total_cols)
    c2[:n_cols] = c_row
    obj2, x2 = _simplex_core(T, b, c2, basis, max_iterations)
    x_t = x2[:n_cols]
    return _recover(x_t, col_of, n_orig), float(obj2 + c_const)


def _recover(
    x_t: np.ndarray, col_of: list[tuple[int, int | None, float]], n_orig: int
) -> np.ndarray:
    x = np.zeros(n_orig)
    for i, (pos, neg, shift) in enumerate(col_of):
        x[i] = shift + x_t[pos] - (x_t[neg] if neg is not None else 0.0)
    return x


def _pivot(T: np.ndarray, b: np.ndarray, row: int, col: int) -> None:
    piv = T[row, col]
    T[row] /= piv
    b[row] /= piv
    for k in range(T.shape[0]):
        if k != row and abs(T[k, col]) > 0:
            factor = T[k, col]
            T[k] -= factor * T[row]
            b[k] -= factor * b[row]


def _simplex_core(
    T: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    max_iterations: int,
) -> tuple[float, np.ndarray]:
    """Primal simplex on an (in-place) tableau with a valid starting basis."""
    m, n = T.shape
    for _ in range(max_iterations):
        # Reduced costs: z_j - c_j = c_B @ T[:, j] - c_j; entering if < 0
        # for minimization written as c_j - c_B @ T[:,j] < 0.
        cb = c[basis]
        reduced = c - cb @ T
        # Bland's rule: smallest index with negative reduced cost.
        negative = np.flatnonzero(reduced < -_TOL)
        if negative.size == 0:
            x = np.zeros(n)
            x[basis] = b
            return float(c @ x), x
        entering = int(negative[0])
        col = T[:, entering]
        pos_rows = np.flatnonzero(col > _TOL)
        if pos_rows.size == 0:
            raise UnboundedError("LP is unbounded")
        ratios = b[pos_rows] / col[pos_rows]
        # Smallest ratio; tie-break on smallest basis index (Bland).
        tied = pos_rows[ratios == ratios.min()]
        basis_arr = np.asarray(basis)
        leaving_row = int(tied[np.argmin(basis_arr[tied])])
        _pivot(T, b, leaving_row, entering)
        basis[leaving_row] = entering
    raise OptimizationError("simplex iteration limit exceeded")


def solve_program(lp: LinearProgram) -> LPSolution:
    """Solve a continuous :class:`LinearProgram` with :func:`solve_simplex`."""
    if lp.has_integers:
        raise OptimizationError("the reference simplex solves continuous models only")
    arrays = lp.to_arrays()
    a_ub = arrays["A_ub"].toarray() if arrays["A_ub"] is not None else None
    a_eq = arrays["A_eq"].toarray() if arrays["A_eq"] is not None else None
    x, obj = solve_simplex(
        arrays["c"], a_ub, arrays["b_ub"], a_eq, arrays["b_eq"], arrays["bounds"]
    )
    values = dict(zip(arrays["order"], (float(v) for v in x)))
    return LPSolution("optimal", float(obj), values)
