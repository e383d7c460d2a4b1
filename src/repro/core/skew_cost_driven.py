"""Cost-driven skew optimization (Section VII, stage 4 of the flow).

After flip-flops are assigned to rings, re-optimize the delay targets so
each target becomes reachable from the point ``c`` on its ring *closest*
to the flip-flop — the tapping cost is then (nearly) the shortest
flip-flop-to-ring distance.  For flip-flop ``i``:

* ``c``   = nearest loop point, ``l_i`` = distance to it,
* ``t_c`` = clock delay at ``c`` (the rings are phase-locked, so
  ``t_c = t_ref + t_ref,c``),
* ``t_{c,i}`` = stub Elmore delay over ``l_i``,
* the achievable delay is ``t_i = t_c + t_{c,i}``.

Two LP formulations, both subject to the timing constraints at a
prespecified slack ``M``:

* **min-max** — minimize ``Delta`` with
  ``t_c + 2 t_{c,i} - t̂_i <= Delta`` and ``t̂_i - t_c <= Delta``
  (equivalent to ``|t_i - t̂_i| + t_{c,i} <= Delta``);
* **weighted-sum** — minimize ``sum_i w_i delta_i`` with
  ``|t_i - t̂_i| <= delta_i`` and the natural weights ``w_i = l_i``
  (work hardest on flip-flops far from their rings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np
import numpy.typing as npt

from ..constants import Technology
from ..errors import SkewOptimizationError
from ..obs import NULL_COLLECTOR, Collector
from ..opt.lp import LinearProgram
from ..rotary import RingArray, stub_delay
from ..timing import PathBounds, TimingSnapshot
from .skew_traditional import SkewSchedule, _pair_index_arrays

_F64 = npt.NDArray[np.float64]


@dataclass(frozen=True, slots=True)
class RingAttractions:
    """Per flip-flop, in the order of the flip-flops they were computed
    for: the distance ``l_i`` to the nearest ring point ``c``, the delay
    ``t_c`` there (phase-adjusted near the current target) and the stub
    delay ``t_{c,i}`` over ``l_i``."""

    distance: _F64  # l_i (um)
    delay_at_point: _F64  # t_c (ps)
    stub_delay: _F64  # t_{c,i} (ps)

    def __len__(self) -> int:
        return int(self.distance.shape[0])

    @property
    def achievable_delay(self) -> _F64:
        """t_i = t_c + t_{c,i}."""
        out: _F64 = self.delay_at_point + self.stub_delay
        return out


def ring_attractions(
    ring_ids: npt.ArrayLike,
    px: npt.ArrayLike,
    py: npt.ArrayLike,
    current: npt.ArrayLike,
    array: RingArray,
    tech: Technology,
) -> RingAttractions:
    """Compute ``(l_i, t_c, t_{c,i})`` for flip-flop ``i`` at
    ``(px[i], py[i])`` on ring ``ring_ids[i]`` with target ``current[i]``.

    ``c`` is the nearest point of the ring's four sides (the first of
    segments 0-3 of :meth:`RotaryRing.segments` at minimum Manhattan
    distance).  The ring offers two complementary phases at ``c`` and
    repeats every period; the candidate delay closest to the flip-flop's
    *current* target is chosen so the LP pulls the target the short way
    around.  Each value is bit-identical to the per-flip-flop loop kept
    as the test oracle ``tests/oracles/evaluation_ref.py``.

    Raises :class:`SkewOptimizationError` for a non-finite position or
    target.
    """
    rid = np.asarray(ring_ids, dtype=np.intp)
    xs = np.asarray(px, dtype=np.float64)
    ys = np.asarray(py, dtype=np.float64)
    target = np.asarray(current, dtype=np.float64)
    for what, values in (("x", xs), ("y", ys), ("skew target", target)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            k = int(bad[0])
            raise SkewOptimizationError(
                f"ring attraction of flip-flop #{k}: non-finite {what} "
                f"{float(values[k])!r}"
            )
    sx, sy, dx, dy, length, t0, rho, periods = (
        stack[rid] for stack in array.segment_stacks()
    )
    sides = slice(0, 4)  # segments 4-7 repeat the geometry
    sx, sy, dx, dy = sx[:, sides], sy[:, sides], dx[:, sides], dy[:, sides]
    length, t0, rho = length[:, sides], t0[:, sides], rho[:, sides]
    # RingSegment.project, then clamp onto the side as the built-in
    # max/min do (each keeps its first argument on a tie).
    rx = xs[:, None] - sx
    ry = ys[:, None] - sy
    xf = rx * dx + ry * dy
    yf = np.abs(rx * dy - ry * dx)
    above = np.where(0.0 > xf, 0.0, xf)
    x = np.where(length < above, length, above)
    dist_all = np.abs(x - xf) + yf
    # argmin takes the first minimum, as the scalar strict ``<`` does.
    rows = np.arange(rid.size)
    best = np.argmin(dist_all, axis=1)
    dist = dist_all[rows, best]
    t_stub = np.asarray(stub_delay(dist, tech), dtype=np.float64)
    t_point = t0[rows, best] + rho[rows, best] * x[rows, best]
    period = array.period

    def shifted(tc: _F64) -> tuple[_F64, _F64]:
        # Whole periods landing tc nearest the current target; np.rint
        # rounds half to even, as the built-in round does.
        k = np.rint((target - (tc + t_stub)) / period)
        tc_adj = tc + k * period
        return tc_adj, np.abs(tc_adj + t_stub - target)

    tc_a, err_a = shifted(t_point)
    tc_b, err_b = shifted(t_point + 0.5 * periods)
    return RingAttractions(
        distance=dist,
        delay_at_point=np.where(err_b < err_a, tc_b, tc_a),
        stub_delay=t_stub,
    )


def _add_timing_constraints(
    lp: LinearProgram,
    pairs: Mapping[tuple[str, str], PathBounds] | TimingSnapshot,
    flip_flops: list[str],
    period: float,
    tech: Technology,
    slack: float,
) -> None:
    """Timing rows at fixed slack, assembled as one COO block.

    Row 2k: t_i - t_j <= T - Dmax - setup - M; row 2k+1:
    t_j - t_i <= Dmin - hold - M.  Self-loop pairs cancel to a vacuous
    (empty) row, exactly as the row-by-row assembly kept in
    ``tests/oracles/skew_lp_ref.py`` drops their zero coefficients.
    """
    ii, jj, d_max, d_min = _pair_index_arrays(pairs, flip_flops)
    n_p = len(ii)
    setup_rows = 2 * np.arange(n_p, dtype=np.intp)
    hold_rows = setup_rows + 1
    nd = ii != jj
    ones_nd = np.ones(int(nd.sum()))
    rows = np.concatenate(
        [setup_rows[nd], setup_rows[nd], hold_rows[nd], hold_rows[nd]]
    )
    cols = np.concatenate([ii[nd], jj[nd], jj[nd], ii[nd]])
    vals = np.concatenate([ones_nd, -ones_nd, ones_nd, -ones_nd])
    rhs = np.empty(2 * n_p)
    rhs[0::2] = period - d_max - tech.setup_time - slack
    rhs[1::2] = d_min - tech.hold_time - slack
    lp.add_constraint_block(rows, cols, vals, "<=", rhs)


def cost_driven_schedule(
    attractions: RingAttractions,
    pairs: Mapping[tuple[str, str], PathBounds] | TimingSnapshot,
    flip_flops: list[str],
    period: float,
    tech: Technology,
    slack: float = 0.0,
    mode: Literal["minmax", "weighted"] = "weighted",
    collector: Collector = NULL_COLLECTOR,
) -> SkewSchedule:
    """Solve the cost-driven skew LP; returns the new schedule.

    ``attractions`` is aligned with ``flip_flops``.  ``slack`` is the
    prespecified guaranteed slack ``M`` (the paper keeps timing safe
    while trading the rest of the permissible range for tapping cost).
    """
    if not flip_flops:
        raise SkewOptimizationError("no flip-flops to schedule")
    if mode not in ("minmax", "weighted"):
        raise SkewOptimizationError(f"unknown cost-driven mode {mode!r}")
    if len(attractions) != len(flip_flops):
        raise SkewOptimizationError(
            f"ring attractions cover {len(attractions)} flip-flops, "
            f"expected {len(flip_flops)}"
        )

    with collector.span("skew.cost-driven", mode=mode):
        collector.count("skew.lp.solves")
        collector.count("skew.lp.timing-pairs", len(pairs))
        return _solve_cost_driven(
            attractions, pairs, flip_flops, period, tech, slack, mode
        )


def _solve_cost_driven(
    attractions: RingAttractions,
    pairs: Mapping[tuple[str, str], PathBounds] | TimingSnapshot,
    flip_flops: list[str],
    period: float,
    tech: Technology,
    slack: float,
    mode: Literal["minmax", "weighted"],
) -> SkewSchedule:
    lp = LinearProgram(f"cost_driven_skew_{mode}")
    for ff in flip_flops:
        lp.add_var(f"t_{ff}", lb=float("-inf"))
    _add_timing_constraints(lp, pairs, flip_flops, period, tech, slack)

    n_a = len(flip_flops)
    t_cols = np.arange(n_a, dtype=np.intp)
    t_c = attractions.delay_at_point
    stub = attractions.stub_delay
    first = 2 * np.arange(n_a, dtype=np.intp)
    second = first + 1

    if mode == "minmax":
        lp.add_var("delta", lb=0.0)
        delta_cols = np.full(n_a, len(flip_flops), dtype=np.intp)
        ones_a = np.ones(n_a)
        # Row 2k: t_c + 2 t_{c,i} - t̂_i <= Delta; row 2k+1: t̂_i - t_c <= Delta.
        rows = np.concatenate([first, first, second, second])
        cols = np.concatenate([t_cols, delta_cols, t_cols, delta_cols])
        vals = np.concatenate([-ones_a, -ones_a, ones_a, -ones_a])
        rhs = np.empty(2 * n_a)
        rhs[0::2] = -(t_c + 2.0 * stub)
        rhs[1::2] = t_c
        lp.add_constraint_block(rows, cols, vals, "<=", rhs)
        lp.set_objective({"delta": 1.0})
    else:
        # d_{ff} vars are appended contiguously after the t vars.
        d_cols = lp.num_vars + np.arange(n_a, dtype=np.intp)
        d_names = [f"d_{ff}" for ff in flip_flops]
        for name in d_names:
            lp.add_var(name, lb=0.0)
        ones_a = np.ones(n_a)
        t_i = t_c + stub  # achievable delay per attracted flip-flop
        # Rows 2k / 2k+1: |t̂_i - t_i| <= delta_i as two one-sided rows.
        rows = np.concatenate([first, first, second, second])
        cols = np.concatenate([t_cols, d_cols, t_cols, d_cols])
        vals = np.concatenate([ones_a, -ones_a, -ones_a, -ones_a])
        rhs = np.empty(2 * n_a)
        rhs[0::2] = t_i
        rhs[1::2] = -t_i
        lp.add_constraint_block(rows, cols, vals, "<=", rhs)
        # Natural weights: w_i = l_i (+ epsilon so near-ring flip-flops
        # are not entirely ignored).
        lp.set_objective(
            dict(zip(d_names, (attractions.distance + 1e-3).tolist()))
        )

    sol = lp.solve()
    targets = {ff: sol.values[f"t_{ff}"] for ff in flip_flops}
    return SkewSchedule(targets=targets, slack=slack)
