"""A small linear-programming model facade.

The paper solves its LPs with Soplex.  This module plays that role:
formulations elsewhere in the library build a :class:`LinearProgram` and
stay solver-independent, and :meth:`LinearProgram.solve` hands the model
to scipy's HiGHS ``linprog`` (``milp`` when integer variables are
present).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from ..errors import InfeasibleError, OptimizationError, UnboundedError

Sense = Literal["<=", ">=", "=="]


@dataclass(slots=True)
class _Constraint:
    coeffs: dict[str, float]
    sense: Sense
    rhs: float
    name: str


@dataclass(slots=True)
class _ConstraintBlock:
    """A batch of same-sense constraints in COO triplet form.

    ``rows`` are block-local (0..n_rows-1); ``cols`` index the variable
    declaration order.  Rows with no entries are legal (a vacuous
    ``0 <= rhs`` row, e.g. a self-loop timing pair whose coefficients
    cancelled) and keep their right-hand side.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    sense: Sense
    rhs: np.ndarray
    n_rows: int


@dataclass(frozen=True, slots=True)
class LPSolution:
    """Result of an LP/MILP solve."""

    status: str  # "optimal"
    objective: float
    values: dict[str, float]

    def __getitem__(self, var: str) -> float:
        return self.values[var]


class LinearProgram:
    """An LP/MILP in natural (named-variable) form.

    Example::

        lp = LinearProgram("toy")
        lp.add_var("x", lb=0), lp.add_var("y", lb=0)
        lp.add_constraint({"x": 1, "y": 2}, "<=", 14)
        lp.set_objective({"x": -1, "y": -1})   # minimize -x - y
        sol = lp.solve()
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._vars: dict[str, tuple[float, float, bool]] = {}
        self._order: list[str] = []
        self._constraints: list[_Constraint | _ConstraintBlock] = []
        self._objective: dict[str, float] = {}

    # ------------------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float | None = None,
        integer: bool = False,
    ) -> str:
        """Declare a variable with bounds ``[lb, ub]`` (``ub=None`` = +inf)."""
        if name in self._vars:
            raise OptimizationError(f"duplicate variable {name!r} in LP {self.name}")
        upper = math.inf if ub is None else ub
        if upper < lb:
            raise OptimizationError(f"variable {name!r}: ub {upper} < lb {lb}")
        self._vars[name] = (lb, upper, integer)
        self._order.append(name)
        return name

    def add_constraint(
        self,
        coeffs: Mapping[str, float],
        sense: Sense,
        rhs: float,
        name: str | None = None,
    ) -> None:
        """Add ``sum coeffs[v]*v  <sense>  rhs``."""
        if sense not in ("<=", ">=", "=="):
            raise OptimizationError(f"bad constraint sense {sense!r}")
        unknown = [v for v in coeffs if v not in self._vars]
        if unknown:
            raise OptimizationError(f"constraint references unknown variables {unknown}")
        self._constraints.append(
            _Constraint(dict(coeffs), sense, rhs, name or f"c{len(self._constraints)}")
        )

    def add_constraint_block(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        sense: Sense,
        rhs: np.ndarray,
    ) -> None:
        """Add ``len(rhs)`` constraints at once from COO triplets.

        Equivalent to calling :meth:`add_constraint` row by row with the
        same coefficients, but without per-row Python objects — the fast
        assembly path for the 10^5-row skew LPs on scale profiles.
        ``rows`` are block-local row indices, ``cols`` are variable
        indices in declaration order (see :meth:`var_indices`), and every
        row shares ``sense``.  Duplicate ``(row, col)`` entries are
        summed by the CSR lowering; emit each coefficient once (and skip
        zeros) to stay byte-compatible with the scalar path.
        """
        if sense not in ("<=", ">=", "=="):
            raise OptimizationError(f"bad constraint sense {sense!r}")
        row_arr = np.asarray(rows, dtype=np.intp)
        col_arr = np.asarray(cols, dtype=np.intp)
        val_arr = np.asarray(values, dtype=float)
        rhs_arr = np.asarray(rhs, dtype=float)
        if not (row_arr.shape == col_arr.shape == val_arr.shape) or row_arr.ndim != 1:
            raise OptimizationError(
                f"constraint block in LP {self.name}: triplet arrays must be "
                "1-D and share a shape"
            )
        n_rows = int(rhs_arr.shape[0])
        if row_arr.size and (row_arr.min() < 0 or row_arr.max() >= n_rows):
            raise OptimizationError(
                f"constraint block in LP {self.name}: row index out of range"
            )
        if col_arr.size and (col_arr.min() < 0 or col_arr.max() >= len(self._order)):
            raise OptimizationError(
                f"constraint block in LP {self.name} references unknown variables"
            )
        self._constraints.append(
            _ConstraintBlock(row_arr, col_arr, val_arr, sense, rhs_arr, n_rows)
        )

    def var_indices(self, names: list[str]) -> np.ndarray:
        """Indices of ``names`` in declaration order, for block assembly."""
        idx = {v: i for i, v in enumerate(self._order)}
        try:
            return np.array([idx[n] for n in names], dtype=np.intp)
        except KeyError as exc:
            raise OptimizationError(
                f"unknown variable {exc.args[0]!r} in LP {self.name}"
            ) from None

    def set_objective(self, coeffs: Mapping[str, float]) -> None:
        """Set the objective (always minimized; negate to maximize)."""
        unknown = [v for v in coeffs if v not in self._vars]
        if unknown:
            raise OptimizationError(f"objective references unknown variables {unknown}")
        self._objective = dict(coeffs)

    @property
    def num_vars(self) -> int:
        return len(self._order)

    @property
    def num_constraints(self) -> int:
        return sum(
            c.n_rows if isinstance(c, _ConstraintBlock) else 1
            for c in self._constraints
        )

    @property
    def has_integers(self) -> bool:
        return any(is_int for (_, _, is_int) in self._vars.values())

    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, object]:
        """Lower to the matrix form consumed by the solvers.

        Returns ``c, A_ub, b_ub, A_eq, b_eq, bounds, integrality, order``.
        Constraint matrices are scipy CSR (skew and assignment models have
        tens of thousands of rows but only a few nonzeros per row).
        """
        import scipy.sparse as sp

        idx = {v: i for i, v in enumerate(self._order)}
        n = len(self._order)
        c = np.zeros(n)
        for v, coef in self._objective.items():
            c[idx[v]] = coef

        def build(
            rows: list[_Constraint | _ConstraintBlock], negate: bool
        ) -> tuple[sp.csr_matrix, np.ndarray]:
            data: list[float] = []
            ri: list[int] = []
            ci: list[int] = []
            chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
            b: list[float] = []
            offset = 0
            for con in rows:
                sign = -1.0 if (negate and con.sense == ">=") else 1.0
                if isinstance(con, _ConstraintBlock):
                    chunks.append(
                        (
                            con.rows + offset,
                            con.cols,
                            con.values if sign == 1.0 else -con.values,
                        )
                    )
                    b.extend((con.rhs if sign == 1.0 else -con.rhs).tolist())
                    offset += con.n_rows
                else:
                    for v, coef in con.coeffs.items():
                        ri.append(offset)
                        ci.append(idx[v])
                        data.append(sign * coef)
                    b.append(con.rhs if sign == 1.0 else -con.rhs)
                    offset += 1
            all_r = np.concatenate(
                [np.asarray(ri, dtype=np.intp), *(ch[0] for ch in chunks)]
            )
            all_c = np.concatenate(
                [np.asarray(ci, dtype=np.intp), *(ch[1] for ch in chunks)]
            )
            all_v = np.concatenate(
                [np.asarray(data, dtype=float), *(ch[2] for ch in chunks)]
            )
            matrix = sp.csr_matrix((all_v, (all_r, all_c)), shape=(offset, n))
            return matrix, np.array(b)

        ub_cons = [c_ for c_ in self._constraints if c_.sense in ("<=", ">=")]
        eq_cons = [c_ for c_ in self._constraints if c_.sense == "=="]
        a_ub, b_ub = build(ub_cons, negate=True) if ub_cons else (None, None)
        a_eq, b_eq = build(eq_cons, negate=False) if eq_cons else (None, None)
        bounds = [(self._vars[v][0], self._vars[v][1]) for v in self._order]
        integrality = np.array(
            [1 if self._vars[v][2] else 0 for v in self._order], dtype=int
        )
        return {
            "c": c,
            "A_ub": a_ub,
            "b_ub": b_ub,
            "A_eq": a_eq,
            "b_eq": b_eq,
            "bounds": bounds,
            "integrality": integrality,
            "order": list(self._order),
        }

    # ------------------------------------------------------------------
    def solve(
        self,
        relax_integrality: bool = False,
        time_limit: float | None = None,
    ) -> LPSolution:
        """Solve with HiGHS and return an :class:`LPSolution`.

        Raises :class:`InfeasibleError` / :class:`UnboundedError` on those
        outcomes; any other solver failure raises
        :class:`OptimizationError`.
        """
        arrays = self.to_arrays()
        if self.has_integers and not relax_integrality:
            return self._solve_milp(arrays, time_limit)
        return self._solve_linprog(arrays)

    def _solve_linprog(self, arrays: dict[str, object]) -> LPSolution:
        from scipy.optimize import linprog

        res = linprog(
            arrays["c"],
            A_ub=arrays["A_ub"],
            b_ub=arrays["b_ub"],
            A_eq=arrays["A_eq"],
            b_eq=arrays["b_eq"],
            bounds=arrays["bounds"],
            method="highs",
        )
        if res.status == 2:
            raise InfeasibleError(f"LP {self.name} is infeasible")
        if res.status == 3:
            raise UnboundedError(f"LP {self.name} is unbounded")
        if not res.success:
            raise OptimizationError(f"LP {self.name} failed: {res.message}")
        values = dict(zip(arrays["order"], (float(v) for v in res.x)))
        return LPSolution("optimal", float(res.fun), values)

    def _solve_milp(
        self, arrays: dict[str, object], time_limit: float | None
    ) -> LPSolution:
        from scipy.optimize import LinearConstraint, milp
        from scipy.optimize import Bounds as ScipyBounds

        constraints = []
        if arrays["A_ub"] is not None:
            constraints.append(
                LinearConstraint(arrays["A_ub"], -np.inf, arrays["b_ub"])
            )
        if arrays["A_eq"] is not None:
            constraints.append(
                LinearConstraint(arrays["A_eq"], arrays["b_eq"], arrays["b_eq"])
            )
        lbs = np.array([b[0] for b in arrays["bounds"]])
        ubs = np.array([b[1] for b in arrays["bounds"]])
        options = {}
        if time_limit is not None:
            options["time_limit"] = time_limit
        res = milp(
            c=arrays["c"],
            constraints=constraints,
            bounds=ScipyBounds(lbs, ubs),
            integrality=arrays["integrality"],
            options=options,
        )
        if res.status == 2:
            raise InfeasibleError(f"MILP {self.name} is infeasible")
        if res.x is None:
            raise OptimizationError(f"MILP {self.name} failed: {res.message}")
        values = dict(zip(arrays["order"], (float(v) for v in res.x)))
        return LPSolution("optimal" if res.status == 0 else "feasible",
                          float(res.fun), values)
