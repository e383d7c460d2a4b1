"""Traditional max-slack skew optimization (Section VII, eqs. (5)-(7)).

Fishburn's formulation: find clock arrival targets ``t_i`` maximizing the
common slack ``M`` subject to long-path (setup) and short-path (hold)
constraints over all sequentially adjacent flip-flop pairs:

    maximize   M
    subject to t_i - t_j + M <= T - D_max^ij - t_setup     (i -> j)
               t_i - t_j >= M + t_hold - D_min^ij          (i -> j)

Solvable by LP [4] or graph algorithms [23], [24].  The flow solves the
LP; the graph formulation, :func:`repro.opt.maximize_slack`, cross-checks
its optimum in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..constants import Technology
from ..errors import SkewOptimizationError
from ..opt.lp import LinearProgram
from ..timing import PathBounds


@dataclass(frozen=True, slots=True)
class SkewSchedule:
    """A clock-arrival schedule with its guaranteed slack."""

    targets: dict[str, float]
    slack: float

    def __getitem__(self, ff: str) -> float:
        return self.targets[ff]

    def normalized(self, period: float) -> "SkewSchedule":
        """Targets folded into ``[0, T)`` — phase is all the rotary ring
        needs, and folding keeps the tapping solver's Case 1 counters
        small.  Skews (differences) are preserved only modulo ``T``,
        which is exactly the rotary-clock semantics."""
        return SkewSchedule(
            targets={k: v % period for k, v in self.targets.items()},
            slack=self.slack,
        )


def _pair_index_arrays(
    pairs: Mapping[tuple[str, str], PathBounds],
    flip_flops: list[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ii, jj, d_max, d_min)`` arrays over ``pairs`` in iteration order.

    ``ii``/``jj`` index into ``flip_flops``; the shared precursor for the
    block-assembled skew LPs (here and in the cost-driven variant).
    """
    fidx = {ff: k for k, ff in enumerate(flip_flops)}
    n_p = len(pairs)
    ii = np.empty(n_p, dtype=np.intp)
    jj = np.empty(n_p, dtype=np.intp)
    d_max = np.empty(n_p)
    d_min = np.empty(n_p)
    try:
        for k, ((i, j), b) in enumerate(pairs.items()):
            ii[k] = fidx[i]
            jj[k] = fidx[j]
            d_max[k] = b.d_max
            d_min[k] = b.d_min
    except KeyError as exc:
        raise SkewOptimizationError(
            f"timing pair references unknown flip-flop {exc.args[0]!r}"
        ) from None
    return ii, jj, d_max, d_min


def _max_slack_lp(
    pairs: Mapping[tuple[str, str], PathBounds],
    flip_flops: list[str],
    period: float,
    tech: Technology,
) -> LinearProgram:
    """The max-slack LP, assembled as one COO block (scale-friendly)."""
    lp = LinearProgram("max_slack_skew")
    for ff in flip_flops:
        lp.add_var(f"t_{ff}", lb=float("-inf"))
    # M is capped at one period: an acyclic sequential graph would make
    # the slack unbounded, and slack beyond T has no physical meaning.
    lp.add_var("M", lb=float("-inf"), ub=period)
    m_col = len(flip_flops)

    ii, jj, d_max, d_min = _pair_index_arrays(pairs, flip_flops)
    n_p = len(pairs)
    # Row 2k: t_i - t_j + M <= T - Dmax - setup (setup, pair k).
    # Row 2k+1: t_j - t_i + M <= Dmin - hold   (hold, pair k).
    # Self-loop pairs (i == j) cancel the t terms and constrain M alone.
    setup_rows = 2 * np.arange(n_p, dtype=np.intp)
    hold_rows = setup_rows + 1
    nd = ii != jj
    ones_nd = np.ones(int(nd.sum()))
    ones_p = np.ones(n_p)
    m_cols = np.full(n_p, m_col, dtype=np.intp)
    rows = np.concatenate(
        [
            setup_rows[nd],
            setup_rows[nd],
            setup_rows,
            hold_rows[nd],
            hold_rows[nd],
            hold_rows,
        ]
    )
    cols = np.concatenate([ii[nd], jj[nd], m_cols, jj[nd], ii[nd], m_cols])
    vals = np.concatenate([ones_nd, -ones_nd, ones_p, ones_nd, -ones_nd, ones_p])
    rhs = np.empty(2 * n_p)
    rhs[0::2] = period - d_max - tech.setup_time
    rhs[1::2] = d_min - tech.hold_time
    lp.add_constraint_block(rows, cols, vals, "<=", rhs)

    # Pin one reference to remove the schedule's translation freedom.
    lp.add_constraint({f"t_{flip_flops[0]}": 1.0}, "==", 0.0)
    lp.set_objective({"M": -1.0})  # maximize M
    return lp


def max_slack_schedule(
    pairs: Mapping[tuple[str, str], PathBounds],
    flip_flops: list[str],
    period: float,
    tech: Technology,
) -> SkewSchedule:
    """Solve the max-slack LP; returns targets plus the optimum M."""
    if not flip_flops:
        raise SkewOptimizationError("no flip-flops to schedule")
    sol = _max_slack_lp(pairs, flip_flops, period, tech).solve()
    targets = {ff: sol.values[f"t_{ff}"] for ff in flip_flops}
    return SkewSchedule(targets=targets, slack=sol.values["M"])


def zero_skew_schedule(flip_flops: list[str]) -> SkewSchedule:
    """The conventional-design reference: every target zero."""
    return SkewSchedule(targets={ff: 0.0 for ff in flip_flops}, slack=0.0)
