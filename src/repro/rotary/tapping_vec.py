"""Vectorized tapping-point kernel (batched Section III solver).

:mod:`repro.rotary.tapping` solves the four-case two-parabola equation

    t_f(x) = t0 + rho*x + 1/2 r c l^2 + r l C_ff = t_hat          (eq. 1)

one ``(flip-flop, segment, borrowed-period)`` triple at a time with Python
floats.  This module evaluates the same equation as NumPy array
arithmetic over

    (flip-flop) x (segment) x (borrowed period) x (candidate)

where the five candidates per triple are the two roots of the right
parabola, the two roots of the left parabola, and the Case 4 snaking
solution, in exactly the order the scalar solver enumerates them.  Every
expression is written with the same floating-point association as the
scalar reference, so the two paths agree to the last ULP on the same
inputs; the scalar solver stays in the tree as the cross-checked
reference implementation (see ``tests/rotary/test_tapping_vectorized.py``).

Two batched entry points share the kernel core:

* :func:`batch_solve` — one ring, many flip-flops (the PR-1 shape);
* :func:`batch_solve_rings` — arbitrary ``(flip-flop, ring)`` pairs
  against a whole :class:`~repro.rotary.array.RingArray` in one call,
  evaluated in bounded-memory chunks.  This is the hot path of
  :func:`repro.core.cost.tapping_cost_matrix`: one call per *iteration*
  replaces one call per *ring*.

Because the kernel math is elementwise over pairs, the pair-indexed and
ring-at-a-time paths produce bit-identical results for the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING, Mapping

from ..constants import OHM_FF_TO_PS, Technology
from ..errors import TappingError
from ..geometry import Point
from ..obs import NULL_COLLECTOR, Collector
from ..parallel import chunk_kernel, fixed_chunks, run_kernel_chunks
from .ring import RotaryRing
from .tapping import _MAX_PERIOD_REDUCTIONS, _TOL, TappingSolution

if TYPE_CHECKING:  # only the annotation of batch_solve_rings needs it
    from .array import RingArray

#: Candidate index of the Case 4 snaking solution in the stacked kernel.
_SNAKE_CANDIDATE = 4
#: Root-acceptance slack used by the scalar solver (kept identical).
_ROOT_TOL = 1e-7
#: Pairs evaluated per kernel invocation by the chunked multi-ring entry
#: point.  The kernel materializes ~(segments x periods x candidates)
#: intermediates per pair, so unbounded batches would peak at hundreds of
#: MB on 100k-cell circuits; chunking is elementwise and changes nothing.
_PAIRS_PER_CHUNK = 16384
#: Chunk width when dispatching pairs to the worker pool.  Fixed — it
#: never varies with the worker count, so chunk boundaries (and hence
#: results) are identical for any ``jobs``.  Smaller than the serial
#: width so a scale10k-sized batch still splits into enough chunks to
#: feed every core.
_PAIRS_PER_PARALLEL_CHUNK = 512


@dataclass(frozen=True, slots=True)
class BatchTappingResult:
    """Best tapping of a batch of flip-flops on one ring.

    All arrays are indexed by flip-flop position in the input batch.
    Infeasible flip-flops (degenerate geometry only, exactly the scalar
    solver's ``None``-everywhere case) have ``feasible[i] == False`` and
    ``wirelength[i] == inf``.
    """

    ring_id: int
    #: Stub wirelength (um) — the tapping cost; ``inf`` when infeasible.
    wirelength: np.ndarray
    #: Segment index (0..7) of the winning solution; -1 when infeasible.
    segment_index: np.ndarray
    #: Local coordinate of the tapping point along its segment.
    x: np.ndarray
    #: Whole periods borrowed by Case 1.
    periods_borrowed: np.ndarray
    #: True where Case 4 wire snaking was required.
    snaked: np.ndarray
    #: Normalized clock-delay target satisfied by each solution (ps).
    target_delay: np.ndarray
    #: Planar tap coordinates (valid where ``feasible``).
    point_x: np.ndarray
    point_y: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return np.isfinite(self.wirelength)

    def __len__(self) -> int:
        return int(self.wirelength.shape[0])

    def solution(self, i: int) -> TappingSolution:
        """Materialize flip-flop ``i``'s result as a :class:`TappingSolution`."""
        if not np.isfinite(self.wirelength[i]):
            raise TappingError(
                f"flip-flop {i} has no feasible tapping on ring {self.ring_id}"
            )
        return TappingSolution(
            ring_id=self.ring_id,
            segment_index=int(self.segment_index[i]),
            x=float(self.x[i]),
            point=Point(float(self.point_x[i]), float(self.point_y[i])),
            wirelength=float(self.wirelength[i]),
            periods_borrowed=int(self.periods_borrowed[i]),
            snaked=bool(self.snaked[i]),
            target_delay=float(self.target_delay[i]),
        )

    def solutions(self) -> list[TappingSolution]:
        """All per-flip-flop solutions (raises on any infeasible entry)."""
        return [self.solution(i) for i in range(len(self))]


@dataclass(frozen=True, slots=True)
class RingPairsTappingResult:
    """Best tapping of arbitrary ``(flip-flop, ring)`` pairs.

    The multi-ring analogue of :class:`BatchTappingResult`: all arrays
    are indexed by pair position in the input batch and ``ring_ids[i]``
    identifies the ring pair ``i`` was solved against.
    """

    #: Ring id per pair.
    ring_ids: np.ndarray
    wirelength: np.ndarray
    segment_index: np.ndarray
    x: np.ndarray
    periods_borrowed: np.ndarray
    snaked: np.ndarray
    target_delay: np.ndarray
    point_x: np.ndarray
    point_y: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return np.isfinite(self.wirelength)

    def __len__(self) -> int:
        return int(self.wirelength.shape[0])

    def solution(self, i: int) -> TappingSolution:
        """Materialize pair ``i``'s result as a :class:`TappingSolution`."""
        if not np.isfinite(self.wirelength[i]):
            raise TappingError(
                f"pair {i} has no feasible tapping on ring {int(self.ring_ids[i])}"
            )
        return TappingSolution(
            ring_id=int(self.ring_ids[i]),
            segment_index=int(self.segment_index[i]),
            x=float(self.x[i]),
            point=Point(float(self.point_x[i]), float(self.point_y[i])),
            wirelength=float(self.wirelength[i]),
            periods_borrowed=int(self.periods_borrowed[i]),
            snaked=bool(self.snaked[i]),
            target_delay=float(self.target_delay[i]),
        )


def _segment_arrays(
    ring: RotaryRing,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack the ring's eight segments into parallel arrays."""
    segs = ring.segments()
    sx = np.array([s.start.x for s in segs])
    sy = np.array([s.start.y for s in segs])
    dx = np.array([s.dx for s in segs])
    dy = np.array([s.dy for s in segs])
    length = np.array([s.length for s in segs])
    t0 = np.array([s.t0 for s in segs])
    rho = np.array([s.rho for s in segs])
    return sx, sy, dx, dy, length, t0, rho


def _solve_pairs(
    sx: np.ndarray,
    sy: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    length: np.ndarray,
    t0: np.ndarray,
    rho: np.ndarray,
    period: "float | np.ndarray",
    px: np.ndarray,
    py: np.ndarray,
    targets: np.ndarray,
    tech: Technology,
    cf: "np.floating | np.ndarray",
) -> tuple[np.ndarray, ...]:
    """Kernel core over ``(pair, segment, period, candidate)``.

    Segment arrays are ``(n, S)`` (broadcast views are fine); ``period``
    is a scalar or per-pair ``(n,)`` array.  Every expression keeps the
    floating-point association of the scalar reference, so results are
    bit-identical to per-ring evaluation of the same pairs.
    """
    n = px.shape[0]
    r, c = tech.unit_resistance, tech.unit_capacitance
    K = OHM_FF_TO_PS
    A = K * 0.5 * r * c

    # Projection onto each segment axis: (n, S).
    rx = px[:, None] - sx
    ry = py[:, None] - sy
    xf = rx * dx + ry * dy
    yf = np.abs(rx * dy - ry * dx)

    cfb = cf[:, None] if np.ndim(cf) == 1 else cf
    wire_lin = K * (r * c * yf + r * cfb)
    C0 = rho * xf + A * yf * yf + K * r * cfb * yf

    # Python's float ``%`` is fmod with a sign fix-up; NumPy's ``%`` is
    # floor-based and can differ by one ULP.  Replicate Python exactly.
    target_norm = np.fmod(targets, period)
    target_norm = np.where(target_norm < 0.0, target_norm + period, target_norm)
    ks = np.arange(_MAX_PERIOD_REDUCTIONS + 1, dtype=float)
    kp = (
        ks[None, None, :] * np.asarray(period)[:, None, None]
        if np.ndim(period) == 1
        else ks[None, None, :] * period
    )
    # Case 1 period borrowing: budget per (ff, segment, k).
    budget = (target_norm[:, None, None] + kp) - t0[:, :, None]

    xf3 = xf[:, :, None]
    yf3 = yf[:, :, None]
    len3 = length[:, :, None]
    cq = C0[:, :, None] - budget

    with np.errstate(invalid="ignore", divide="ignore"):
        # Right parabola: x = xf + u, u >= 0, stub = u + yf.
        u_lo = np.maximum(0.0, -xf)[:, :, None]
        u_hi = (length - xf)[:, :, None]
        gate_r = u_hi >= u_lo - _TOL
        b_r = (rho + wire_lin)[:, :, None]
        disc_r = b_r * b_r - 4.0 * A * cq
        sq_r = np.sqrt(np.where(disc_r >= 0.0, disc_r, 0.0))
        roots_r = np.stack([(-b_r - sq_r) / (2.0 * A), (-b_r + sq_r) / (2.0 * A)], axis=-1)
        ok_r = (
            gate_r[..., None]
            & (disc_r >= 0.0)[..., None]
            & (roots_r >= (u_lo - _ROOT_TOL)[..., None])
            & (roots_r <= (u_hi + _ROOT_TOL)[..., None])
        )
        u_cl = np.minimum(np.maximum(roots_r, u_lo[..., None]), u_hi[..., None])
        wl_r = u_cl + yf3[..., None]
        x_r = xf3[..., None] + u_cl

        # Left parabola: x = xf - v, v >= 0, stub = v + yf.
        v_lo = np.maximum(0.0, xf - length)[:, :, None]
        v_hi = xf3
        gate_l = v_hi >= v_lo - _TOL
        b_l = (-rho + wire_lin)[:, :, None]
        disc_l = b_l * b_l - 4.0 * A * cq
        sq_l = np.sqrt(np.where(disc_l >= 0.0, disc_l, 0.0))
        roots_l = np.stack([(-b_l - sq_l) / (2.0 * A), (-b_l + sq_l) / (2.0 * A)], axis=-1)
        ok_l = (
            gate_l[..., None]
            & (disc_l >= 0.0)[..., None]
            & (roots_l >= (v_lo - _ROOT_TOL)[..., None])
            & (roots_l <= (v_hi + _ROOT_TOL)[..., None])
        )
        v_cl = np.minimum(np.maximum(roots_l, v_lo[..., None]), v_hi[..., None])
        wl_l = v_cl + yf3[..., None]
        x_l = xf3[..., None] - v_cl

        # Case 4: snake from the far segment end (maximum ring delay).
        direct = np.abs(length - xf) + yf
        stub_at_end = K * (0.5 * r * c * direct * direct + r * direct * cfb)
        snake_budget = budget - (rho * length)[:, :, None]
        gate_s = snake_budget >= stub_at_end[:, :, None] - _TOL
        b_s = r * cfb if np.ndim(cfb) else np.float64(r * cf)
        b_s3 = b_s[:, :, None] if np.ndim(b_s) else b_s
        a_s = 0.5 * r * c
        disc_s = b_s3 * b_s3 + 4.0 * a_s * snake_budget / K
        l_pos = (-b_s3 + np.sqrt(np.where(disc_s >= 0.0, disc_s, 0.0))) / (2.0 * a_s)
        l_snake = np.where(snake_budget <= 0.0, 0.0, l_pos)
        ok_s = gate_s & (snake_budget >= -_TOL)
        wl_s = np.maximum(l_snake, direct[:, :, None])
        x_s = np.broadcast_to(len3, wl_s.shape)

    # Candidate stacking follows the scalar enumeration order exactly:
    # right roots, left roots, snake — ties resolve to the earliest.
    cand_wl = np.concatenate([wl_r, wl_l, wl_s[..., None]], axis=-1)
    cand_x = np.concatenate([x_r, x_l, x_s[..., None]], axis=-1)
    cand_ok = np.concatenate([ok_r, ok_l, ok_s[..., None]], axis=-1)
    cand_wl = np.where(cand_ok, cand_wl, np.inf)

    # Per (ff, segment, k): cheapest candidate; per (ff, segment): the
    # *smallest feasible k* wins (Case 1 borrows minimally), not the
    # cheapest k — matching the scalar solver's early return.
    best_c = np.argmin(cand_wl, axis=-1)
    wl_k = np.take_along_axis(cand_wl, best_c[..., None], axis=-1)[..., 0]
    feas_k = np.isfinite(wl_k)
    first_k = np.argmax(feas_k, axis=-1)
    any_k = feas_k.any(axis=-1)
    wl_seg = np.where(
        any_k, np.take_along_axis(wl_k, first_k[..., None], axis=-1)[..., 0], np.inf
    )

    best_s = np.argmin(wl_seg, axis=-1)
    idx = np.arange(n)
    wirelength = wl_seg[idx, best_s]
    feasible = np.isfinite(wirelength)

    k_at = first_k[idx, best_s]
    c_at = best_c[idx, best_s, k_at]
    x_at = cand_x[idx, best_s, k_at, c_at]
    seg_len = length[idx, best_s]
    x_at = np.minimum(np.maximum(x_at, 0.0), seg_len)
    snaked = (c_at == _SNAKE_CANDIDATE) & feasible

    point_x = sx[idx, best_s] + dx[idx, best_s] * x_at
    point_y = sy[idx, best_s] + dy[idx, best_s] * x_at

    return (
        wirelength,
        np.where(feasible, best_s, -1),
        np.where(feasible, x_at, 0.0),
        np.where(feasible, k_at, 0),
        snaked,
        target_norm,
        point_x,
        point_y,
    )


def batch_solve(
    ring: RotaryRing,
    px: np.ndarray,
    py: np.ndarray,
    targets: np.ndarray,
    tech: Technology,
    load_cap: float | np.ndarray | None = None,
    collector: Collector = NULL_COLLECTOR,
) -> BatchTappingResult:
    """Best tapping of every ``(px[i], py[i], targets[i])`` on ``ring``.

    The batched equivalent of calling :func:`repro.rotary.best_tapping`
    once per flip-flop; infeasible entries are reported through the
    ``feasible`` mask instead of raising.  ``load_cap`` may be a scalar
    or a per-flip-flop array; ``None`` uses the flip-flop input cap.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = px.shape[0]
    collector.count("tapping.batch.calls")
    collector.count("tapping.batch.flipflops", n)

    if load_cap is None:
        cf: np.floating | np.ndarray = np.float64(tech.flipflop_input_cap)
    else:
        cf = np.asarray(load_cap, dtype=float)

    seg = _segment_arrays(ring)
    n_seg = seg[0].shape[0]
    pairwise = tuple(np.broadcast_to(a, (n, n_seg)) for a in seg)
    (
        wirelength,
        segment_index,
        x,
        periods_borrowed,
        snaked,
        target_norm,
        point_x,
        point_y,
    ) = _solve_pairs(*pairwise, ring.period, px, py, targets, tech, cf)

    return BatchTappingResult(
        ring_id=ring.ring_id,
        wirelength=wirelength,
        segment_index=segment_index,
        x=x,
        periods_borrowed=periods_borrowed,
        snaked=snaked,
        target_delay=target_norm,
        point_x=point_x,
        point_y=point_y,
    )


@dataclass(frozen=True, slots=True)
class _TechRC:
    """The two :class:`Technology` fields the pair kernel reads.

    A registered chunk kernel receives its inputs as named ndarray
    views only, so the unit RC constants travel as a two-element float
    array and are rebuilt here — ``float`` conversion is exact, so
    results stay bit-identical to passing the :class:`Technology`
    itself.
    """

    unit_resistance: float
    unit_capacitance: float


@chunk_kernel("tapping.solve-pairs")
def _solve_pairs_chunk(views: Mapping[str, np.ndarray], lo: int, hi: int) -> None:
    """Solve pairs ``[lo, hi)`` of a stacked batch; write output slices.

    Pool-safe: reads input views, writes only the ``[lo:hi)`` slices of
    the eight output views, touches no module state.
    """
    rid = views["ring_ids"][lo:hi]
    cf_all = views["cf"]
    cf: np.floating | np.ndarray
    cf = cf_all[lo:hi] if cf_all.ndim == 1 else np.float64(cf_all[()])
    rc = views["tech_rc"]
    tech = _TechRC(float(rc[0]), float(rc[1]))
    out = _solve_pairs(
        views["sx"][rid],
        views["sy"][rid],
        views["dx"][rid],
        views["dy"][rid],
        views["length"][rid],
        views["t0"][rid],
        views["rho"][rid],
        views["periods"][rid],
        views["px"][lo:hi],
        views["py"][lo:hi],
        views["targets"][lo:hi],
        tech,  # type: ignore[arg-type]
        cf,
    )
    (
        views["wirelength"][lo:hi],
        views["segment_index"][lo:hi],
        views["x"][lo:hi],
        views["periods_borrowed"][lo:hi],
        views["snaked"][lo:hi],
        views["target_norm"][lo:hi],
        views["point_x"][lo:hi],
        views["point_y"][lo:hi],
    ) = out


def batch_solve_rings(
    array: "RingArray",
    ring_ids: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    targets: np.ndarray,
    tech: Technology,
    load_cap: float | np.ndarray | None = None,
    collector: Collector = NULL_COLLECTOR,
    pairs_per_chunk: int = _PAIRS_PER_CHUNK,
    jobs: int = 1,
) -> RingPairsTappingResult:
    """Best tapping of arbitrary ``(flip-flop, ring)`` pairs in one call.

    ``ring_ids[i]`` names the ring pair ``i`` is solved against;
    ``px``/``py``/``targets`` give the flip-flop side of the pair.  The
    whole batch is evaluated through the stacked segment arrays of the
    ring array (cached on it), chunked to ``pairs_per_chunk`` so peak
    memory stays bounded on 100k-cell circuits.  Chunking is elementwise:
    results are bit-identical to per-ring :func:`batch_solve` calls over
    the same pairs.

    The chunks run through the registered ``tapping.solve-pairs``
    kernel: inline at ``jobs=1``, and on the :mod:`repro.parallel`
    worker pool for ``jobs > 1`` with a fixed (worker-count-independent)
    chunk width of at most :data:`_PAIRS_PER_PARALLEL_CHUNK`.  Each
    chunk writes disjoint output slices, so results are bit-identical
    for any ``jobs``.
    """
    ring_ids = np.asarray(ring_ids, dtype=np.intp)
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n = px.shape[0]
    collector.count("tapping.pairs.calls")
    collector.count("tapping.pairs.count", n)

    if load_cap is None:
        cf_all: np.floating | np.ndarray = np.float64(tech.flipflop_input_cap)
    else:
        cf_all = np.asarray(load_cap, dtype=float)

    sx, sy, dx, dy, length, t0, rho, periods = array.segment_stacks()

    wirelength = np.empty(n)
    segment_index = np.empty(n, dtype=np.intp)
    x = np.empty(n)
    periods_borrowed = np.empty(n, dtype=np.intp)
    snaked = np.empty(n, dtype=bool)
    target_norm = np.empty(n)
    point_x = np.empty(n)
    point_y = np.empty(n)

    if pairs_per_chunk <= 0:
        raise ValueError("pairs_per_chunk must be positive")
    views: dict[str, np.ndarray] = {
        "sx": sx,
        "sy": sy,
        "dx": dx,
        "dy": dy,
        "length": length,
        "t0": t0,
        "rho": rho,
        "periods": periods,
        "ring_ids": ring_ids,
        "px": px,
        "py": py,
        "targets": targets,
        "cf": np.asarray(cf_all),
        "tech_rc": np.array([tech.unit_resistance, tech.unit_capacitance]),
        "wirelength": wirelength,
        "segment_index": segment_index,
        "x": x,
        "periods_borrowed": periods_borrowed,
        "snaked": snaked,
        "target_norm": target_norm,
        "point_x": point_x,
        "point_y": point_y,
    }
    chunk = pairs_per_chunk
    if jobs > 1:
        chunk = min(pairs_per_chunk, _PAIRS_PER_PARALLEL_CHUNK)
    run_kernel_chunks(
        "tapping.solve-pairs",
        views,
        fixed_chunks(n, chunk),
        jobs=jobs,
        collector=collector,
        stage="tapping.pairs",
    )
    return RingPairsTappingResult(
        ring_ids=ring_ids,
        wirelength=wirelength,
        segment_index=segment_index,
        x=x,
        periods_borrowed=periods_borrowed,
        snaked=snaked,
        target_delay=target_norm,
        point_x=point_x,
        point_y=point_y,
    )


def batch_best_tapping(
    ring: RotaryRing,
    points: "np.ndarray | list[Point]",
    targets: np.ndarray,
    tech: Technology,
    load_cap: float | np.ndarray | None = None,
) -> BatchTappingResult:
    """Batched :func:`repro.rotary.best_tapping` over one ring.

    ``points`` is an ``(n, 2)`` array or a list of :class:`Point`.
    Raises :class:`TappingError` if any flip-flop is infeasible, exactly
    as the scalar path would on the first such flip-flop.
    """
    if isinstance(points, np.ndarray):
        px, py = points[:, 0], points[:, 1]
    else:
        px = np.array([p.x for p in points])
        py = np.array([p.y for p in points])
    result = batch_solve(ring, px, py, np.asarray(targets, dtype=float), tech, load_cap)
    if not result.feasible.all():
        i = int(np.flatnonzero(~result.feasible)[0])
        raise TappingError(
            f"no tapping point on ring {ring.ring_id} reaches delay "
            f"{float(np.asarray(targets, dtype=float)[i]):.3f} ps "
            f"for flip-flop at ({float(px[i]):.1f}, {float(py[i]):.1f})"
        )
    return result


def batch_tapping_wirelengths(
    ring: RotaryRing,
    points: "np.ndarray | list[Point]",
    targets: np.ndarray,
    tech: Technology,
    load_cap: float | np.ndarray | None = None,
) -> np.ndarray:
    """Tapping costs only (um); ``inf`` marks infeasible flip-flops."""
    if isinstance(points, np.ndarray):
        px, py = points[:, 0], points[:, 1]
    else:
        px = np.array([p.x for p in points])
        py = np.array([p.y for p in points])
    return batch_solve(
        ring, px, py, np.asarray(targets, dtype=float), tech, load_cap
    ).wirelength
