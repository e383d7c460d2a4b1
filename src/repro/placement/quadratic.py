"""Quadratic (analytic) global placement with recursive spreading.

The paper obtains its placements from mPL and stresses that "the placers
can be used without any change"; any analytic placer exposing pseudo-net
hooks fits the flow.  This is a GORDIAN-style engine:

1. nets become springs (clique model for small nets, star with an
   auxiliary node for large ones) and the resulting sparse SPD system is
   solved for x and y independently;
2. cells are spread by recursive area bisection — each subregion's cells
   get anchor springs toward their subregion, and the system is re-solved
   level by level;
3. :mod:`repro.placement.legalize` snaps the spread placement onto rows.

Pseudo nets (flip-flop -> ring anchors) and stability anchors (previous
positions) enter the same quadratic form, which is exactly how the
integrated flow's incremental placement works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import PlacementError
from ..geometry import BBox, Point
from ..netlist import Circuit
from ..obs import NULL_COLLECTOR, Collector
from .pseudonet import PseudoNet
from .region import PlacementRegion, pad_positions

#: Anchor triple in array form: (cell indices, targets, weights).
AnchorArrays = tuple[np.ndarray, np.ndarray, np.ndarray]
#: Pseudo nets in array form: (cell indices, anchor x, anchor y, weights).
PseudoNetArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Nets up to this degree use the clique spring model; bigger nets use a star.
_CLIQUE_MAX_DEGREE = 5
#: Tiny centering anchor guaranteeing a non-singular system.
_EPS_ANCHOR = 1e-6
#: ``solver="auto"`` switches from plain CG to Jacobi-preconditioned CG
#: above this many movable cells.  The threshold sits above the largest
#: bundled circuit (s35932, 17005 movables) so ISCAS-scale flows keep
#: the historical solver bit-for-bit; scale profiles get the
#: preconditioned path.
_PCG_AUTO_THRESHOLD = 20_000


def _checked_weight(value: float, what: str) -> float:
    """``value`` as a float, or :class:`PlacementError` naming ``what``.

    NaN comparisons are always false, so an unchecked NaN weight would
    sail through every ``< 0`` guard and silently corrupt the Laplacian
    (CG then converges to garbage instead of failing).  Reject anything
    that is not a finite, non-negative number.
    """
    w = float(value)
    if math.isnan(w) or math.isinf(w) or w < 0.0:
        raise PlacementError(
            f"{what} must be a finite non-negative number, got {value!r}"
        )
    return w


@dataclass(frozen=True, slots=True)
class PlacerOptions:
    """Knobs for the quadratic placer."""

    #: Stop bisection when a subregion holds at most this many cells.
    min_partition_cells: int = 24
    #: Anchor weight at the first spreading level (doubles per level).
    spreading_weight: float = 0.05
    #: Hard cap on bisection levels.
    max_levels: int = 12
    #: Linear solver for the SPD axis systems:
    #:
    #: * ``"cg"`` — plain conjugate gradients (the historical path);
    #: * ``"pcg"`` — Jacobi-preconditioned CG; same tolerance, far fewer
    #:   iterations on ill-conditioned 100k-cell systems;
    #: * ``"direct"`` — sparse LU factorization per solve;
    #: * ``"dense"`` — dense LU per solve (materializes the full matrix;
    #:   the dense-factorization baseline of ``benchmarks/bench_scale.py``
    #:   — O(n^2) memory, never auto-selected);
    #: * ``"auto"`` — ``"cg"`` up to ``_PCG_AUTO_THRESHOLD`` movable
    #:   cells, ``"pcg"`` beyond.
    solver: Literal["auto", "cg", "pcg", "direct", "dense"] = "auto"


class QuadraticPlacer:
    """Analytic global placement for one circuit on one region."""

    def __init__(
        self,
        circuit: Circuit,
        region: PlacementRegion,
        options: PlacerOptions | None = None,
        *,
        net_weights: Mapping[str, float] | None = None,
        collector: Collector = NULL_COLLECTOR,
    ) -> None:
        self.circuit = circuit
        self.region = region
        self.options = options or PlacerOptions()
        self.collector = collector
        self._movable = tuple(c.name for c in circuit.standard_cells)
        if not self._movable:
            raise PlacementError("no movable cells")
        self._index = {name: i for i, name in enumerate(self._movable)}
        self._fixed = pad_positions(circuit, region)
        self._net_weights = self._checked_net_weights(net_weights)
        self._springs = self._build_springs()
        if self.options.solver == "auto":
            self._solver_mode = (
                "cg" if len(self._movable) <= _PCG_AUTO_THRESHOLD else "pcg"
            )
        elif self.options.solver in ("cg", "pcg", "direct", "dense"):
            self._solver_mode = self.options.solver
        else:
            raise PlacementError(f"unknown placer solver {self.options.solver!r}")
        self._base = self._prefactor()
        self.collector.count("placement.assembly.builds")

    # ------------------------------------------------------------------
    def _checked_net_weights(
        self, net_weights: Mapping[str, float] | None
    ) -> dict[str, float]:
        """Validated copy of ``net_weights`` (unknown nets and non-finite
        or negative weights raise, naming the offending net)."""
        if not net_weights:
            return {}
        nets = self.circuit.nets
        checked: dict[str, float] = {}
        for name, value in net_weights.items():
            if name not in nets:
                raise PlacementError(
                    f"net weight targets unknown net {name!r}"
                )
            checked[name] = _checked_weight(value, f"weight of net {name!r}")
        return checked

    def set_net_weights(self, net_weights: Mapping[str, float] | None) -> None:
        """Replace the per-net weights and rebuild the spring structure.

        The timing-driven flow calls this between iterations with the
        critical-pair weights; cells, region, solver mode, and the warm
        CG machinery are all retained, only the spring list and the
        cached base triplets are rebuilt.  An absent / all-ones mapping
        restores the unweighted placer bit-for-bit.
        """
        self._net_weights = self._checked_net_weights(net_weights)
        self._springs = self._build_springs()
        self._base = self._prefactor()
        self.collector.count("placement.assembly.builds")
        self.collector.count("placement.net-weights.rebuilds")

    @property
    def net_weights(self) -> dict[str, float]:
        """The validated per-net weight overrides (absent nets weigh 1.0)."""
        return dict(self._net_weights)

    def _build_springs(self) -> list[tuple[int, int | None, float, Point | None]]:
        """Spring list: (cell_index, other_index|None, weight, fixed_point).

        ``other_index=None`` with a point = spring to a fixed location
        (pad or star auxiliary handled separately).  Per-net weights
        scale every spring a net induces; a weight of exactly 1.0 (the
        default for unlisted nets) skips the multiplication so the
        unweighted triplet stream stays bit-identical.
        """
        springs: list[tuple[int, int | None, float, Point | None]] = []
        self._star_nets: list[tuple[list[int], list[Point], float]] = []
        net_weights = self._net_weights
        for net in self.circuit.nets.values():
            members = net.members
            degree = len(members)
            if degree < 2:
                continue
            movable_idx = [self._index[m] for m in members if m in self._index]
            fixed_pts = [self._fixed[m] for m in members if m in self._fixed]
            if len(movable_idx) + len(fixed_pts) < 2:
                continue
            w_net = net_weights.get(net.name, 1.0)
            if degree <= _CLIQUE_MAX_DEGREE:
                w = 1.0 / (degree - 1)
                if w_net != 1.0:
                    w = w * w_net
                for a in range(len(movable_idx)):
                    for b in range(a + 1, len(movable_idx)):
                        springs.append((movable_idx[a], movable_idx[b], w, None))
                    for p in fixed_pts:
                        springs.append((movable_idx[a], None, w, p))
            else:
                # Star: one auxiliary node per big net.
                w = degree / (degree - 1.0)
                if w_net != 1.0:
                    w = w * w_net
                self._star_nets.append((movable_idx, fixed_pts, w))
        return springs

    # ------------------------------------------------------------------
    def _prefactor(self) -> tuple[np.ndarray, ...]:
        """Assemble the position-independent base system once.

        Emits the exact triplet stream a per-solve rebuild would produce
        for springs, star nets and eps anchors (weights are
        axis-independent; only the rhs differs per axis).  Because
        scipy's duplicate summation is deterministic for a given COO
        stream, feeding the identical stream keeps solutions
        bit-identical to the per-solve rebuild kept as the test oracle
        ``tests/oracles/placer_ref.py``.
        """
        n = len(self._movable)
        n_aux = len(self._star_nets)
        size = n + n_aux
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs_x = np.zeros(size)
        rhs_y = np.zeros(size)

        def add(
            i: int, j: int | None, w: float, fx: float = 0.0, fy: float = 0.0
        ) -> None:
            rows.append(i)
            cols.append(i)
            vals.append(w)
            if j is None:
                rhs_x[i] += w * fx
                rhs_y[i] += w * fy
            else:
                rows.append(j)
                cols.append(j)
                vals.append(w)
                rows.append(i)
                cols.append(j)
                vals.append(-w)
                rows.append(j)
                cols.append(i)
                vals.append(-w)

        for i, j, w, p in self._springs:
            if p is None:
                add(i, j, w)
            else:
                add(i, None, w, p.x, p.y)
        for k, (movable_idx, fixed_pts, w) in enumerate(self._star_nets):
            aux = n + k
            for i in movable_idx:
                add(i, aux, w)
            for p in fixed_pts:
                add(aux, None, w, p.x, p.y)
        center = self.region.bbox.center
        for i in range(size):
            add(i, None, _EPS_ANCHOR, center.x, center.y)
        return (
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals),
            rhs_x,
            rhs_y,
        )

    def _linear_solve(
        self, A: sp.csr_matrix, rhs: np.ndarray, x0: np.ndarray | None
    ) -> np.ndarray:
        """Solve the SPD axis system with the configured solver mode.

        ``"cg"`` reproduces the historical solve exactly (same scipy
        call, same fallback); ``"pcg"`` adds a Jacobi preconditioner —
        the diagonal of a spring Laplacian plus anchors is strictly
        positive, so ``M = diag(A)^-1`` is well defined; ``"direct"``
        factors the system per solve (sparse LU).
        """
        mode = self._solver_mode
        if mode == "dense":
            import scipy.linalg as sla

            self.collector.count("placement.solver.dense")
            return np.asarray(sla.lu_solve(sla.lu_factor(A.toarray()), rhs))
        if mode == "direct":
            self.collector.count("placement.solver.direct")
            return np.asarray(spla.splu(A.tocsc()).solve(rhs))
        M = None
        if mode == "pcg":
            self.collector.count("placement.solver.pcg")
            inv_diag = 1.0 / A.diagonal()
            M = spla.LinearOperator(A.shape, matvec=lambda v: inv_diag * v)
        else:
            self.collector.count("placement.solver.cg")
        sol, info = spla.cg(A, rhs, x0=x0, rtol=1e-8, maxiter=2000, M=M)
        if info != 0:
            self.collector.count("placement.solver.fallbacks")
            sol = spla.spsolve(A.tocsc(), rhs)
        return np.asarray(sol)

    def _solve_axis(
        self,
        axis: int,
        anchors: AnchorArrays,
        warm: np.ndarray | None,
    ) -> np.ndarray:
        """Solve one coordinate axis.  ``anchors`` = (cell, target,
        weight); the base triplets are reused and only the anchor
        diagonal entries are appended."""
        base_rows, base_cols, base_vals, base_rhs_x, base_rhs_y = self._base
        n = len(self._movable)
        n_aux = len(self._star_nets)
        size = n + n_aux
        a_idx, a_tgt, a_w = anchors
        rows = np.concatenate([base_rows, a_idx])
        cols = np.concatenate([base_cols, a_idx])
        vals = np.concatenate([base_vals, a_w])
        rhs = (base_rhs_x if axis == 0 else base_rhs_y).copy()
        # ufunc.at accumulates sequentially in index order, matching a
        # scalar per-anchor ``rhs[i] += w * target`` fold.
        np.add.at(rhs, a_idx, a_w * a_tgt)
        self.collector.count("placement.assembly.reuses")

        A = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
        x0 = None
        if warm is not None:
            center = (self.region.bbox.center.x, self.region.bbox.center.y)[axis]
            x0 = np.concatenate([warm, np.full(n_aux, center)])
        sol = self._linear_solve(A, rhs, x0)
        return sol[:n]

    def _solve(
        self,
        anchors_x: AnchorArrays,
        anchors_y: AnchorArrays,
        warm_x: np.ndarray | None = None,
        warm_y: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        x = self._solve_axis(0, anchors_x, warm_x)
        y = self._solve_axis(1, anchors_y, warm_y)
        return x, y

    # ------------------------------------------------------------------
    @property
    def movable(self) -> tuple[str, ...]:
        """Movable cell names; index ``i`` is placer cell ``i``."""
        return self._movable

    def pseudo_net_arrays(self, pseudo_nets: Iterable[PseudoNet]) -> PseudoNetArrays:
        """``pseudo_nets`` in the array form :meth:`place` takes.

        Raises :class:`PlacementError` for a net to an unknown cell.
        """
        nets = list(pseudo_nets)
        cells = np.empty(len(nets), dtype=np.intp)
        for k, pn in enumerate(nets):
            idx = self._index.get(pn.cell)
            if idx is None:
                raise PlacementError(f"pseudo net targets unknown cell {pn.cell!r}")
            cells[k] = idx
        return (
            cells,
            np.array([pn.anchor.x for pn in nets], dtype=np.float64),
            np.array([pn.anchor.y for pn in nets], dtype=np.float64),
            np.array([pn.weight for pn in nets], dtype=np.float64),
        )

    def place(
        self,
        pseudo_nets: PseudoNetArrays | None = None,
        stability_anchors: tuple[np.ndarray, np.ndarray] | None = None,
        stability_weight: float = 0.0,
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Global placement (unlegalized), clamped to the region.

        Returns ``(x, y)`` indexed like :attr:`movable`.
        ``pseudo_nets`` = ``(cell, x, y, weight)`` arrays add springs
        toward fixed anchor points (see :meth:`pseudo_net_arrays`);
        ``stability_anchors`` = ``(x, y)`` indexed like :attr:`movable`
        (typically the previous placement) with ``stability_weight > 0``
        turn the solve into a *stable incremental* placement, as required
        by stage 6 of the flow.  Each cell's anchors enter the system in
        the order pseudo net, stability, spreading level, whatever order
        the cells come in.
        """
        n = len(self._movable)
        if pseudo_nets is None:
            pseudo_nets = self.pseudo_net_arrays(())
        p_idx = np.asarray(pseudo_nets[0], dtype=np.intp)
        p_x, p_y, p_w = (np.asarray(a, dtype=np.float64) for a in pseudo_nets[1:])
        outside = np.flatnonzero((p_idx < 0) | (p_idx >= n))
        if outside.size:
            raise PlacementError(
                "pseudo net targets unknown cell "
                f"#{int(p_idx[outside[0]])} (the placer has {n} cells)"
            )
        bad = np.flatnonzero(~np.isfinite(p_w) | (p_w < 0.0))
        if bad.size:
            k = int(bad[0])
            _checked_weight(
                float(p_w[k]),
                f"weight of pseudo net to cell {self._movable[p_idx[k]]!r}",
            )
        if stability_weight:
            stability_weight = _checked_weight(
                stability_weight, "stability anchor weight"
            )
        a_idx, a_x, a_y, a_w = p_idx, p_x, p_y, p_w
        warm_x = warm_y = None
        if stability_anchors is not None and stability_weight > 0.0:
            warm_x = np.asarray(stability_anchors[0], dtype=np.float64)
            warm_y = np.asarray(stability_anchors[1], dtype=np.float64)
            if warm_x.shape != (n,) or warm_y.shape != (n,):
                raise PlacementError(
                    f"stability anchors must be two arrays of {n} coordinates"
                )
            cells = np.arange(n, dtype=np.intp)
            a_idx = np.concatenate([p_idx, cells])
            a_x = np.concatenate([p_x, warm_x])
            a_y = np.concatenate([p_y, warm_y])
            a_w = np.concatenate([p_w, np.full(n, stability_weight)])

        base_x: AnchorArrays = (a_idx, a_x, a_w)
        base_y: AnchorArrays = (a_idx, a_y, a_w)
        x, y = self._solve(base_x, base_y, warm_x, warm_y)
        x, y = self._spread(x, y, base_x, base_y)
        # BBox.clamp per coordinate: max then min, each keeping its first
        # argument on a tie, as the built-ins do.
        box = self.region.bbox
        x = np.where(box.xlo > x, box.xlo, x)
        x = np.where(box.xhi < x, box.xhi, x)
        y = np.where(box.ylo > y, box.ylo, y)
        y = np.where(box.yhi < y, box.yhi, y)
        return x, y

    # ------------------------------------------------------------------
    def _spread(
        self,
        x: np.ndarray,
        y: np.ndarray,
        base_ax: AnchorArrays,
        base_ay: AnchorArrays,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recursive-bisection spreading with per-level anchor re-solves."""
        n = len(self._movable)
        opts = self.options
        regions: list[tuple[BBox, np.ndarray, bool]] = [
            (self.region.bbox, np.arange(n), True)
        ]
        level = 0
        weight = opts.spreading_weight
        while level < opts.max_levels:
            next_regions: list[tuple[BBox, np.ndarray, bool]] = []
            split_any = False
            for bbox, idx, vertical in regions:
                if len(idx) <= opts.min_partition_cells:
                    next_regions.append((bbox, idx, vertical))
                    continue
                split_any = True
                coords = x[idx] if vertical else y[idx]
                order = np.argsort(coords, kind="stable")
                half = len(idx) // 2
                lo_idx, hi_idx = idx[order[:half]], idx[order[half:]]
                frac = half / len(idx)
                if vertical:
                    cut = bbox.xlo + frac * bbox.width
                    lo_box = BBox(bbox.xlo, bbox.ylo, cut, bbox.yhi)
                    hi_box = BBox(cut, bbox.ylo, bbox.xhi, bbox.yhi)
                else:
                    cut = bbox.ylo + frac * bbox.height
                    lo_box = BBox(bbox.xlo, bbox.ylo, bbox.xhi, cut)
                    hi_box = BBox(bbox.xlo, cut, bbox.xhi, bbox.yhi)
                next_regions.append((lo_box, lo_idx, not vertical))
                next_regions.append((hi_box, hi_idx, not vertical))
            regions = next_regions
            if not split_any:
                break
            # Array form of the anchor sequence: base anchors first,
            # then each region's cells in order.
            reg_idx = np.concatenate([idx for _, idx, _ in regions])
            cxs = np.concatenate(
                [np.full(idx.size, bbox.center.x) for bbox, idx, _ in regions]
            )
            cys = np.concatenate(
                [np.full(idx.size, bbox.center.y) for bbox, idx, _ in regions]
            )
            ws = np.full(reg_idx.size, weight)
            anchors_x: AnchorArrays = (
                np.concatenate([base_ax[0], reg_idx]),
                np.concatenate([base_ax[1], cxs]),
                np.concatenate([base_ax[2], ws]),
            )
            anchors_y: AnchorArrays = (
                np.concatenate([base_ay[0], reg_idx]),
                np.concatenate([base_ay[1], cys]),
                np.concatenate([base_ay[2], ws]),
            )
            x, y = self._solve(anchors_x, anchors_y, x, y)
            weight *= 2.0
            level += 1
        return x, y

    @property
    def fixed_positions(self) -> dict[str, Point]:
        """Pad locations (fixed throughout placement)."""
        return dict(self._fixed)
