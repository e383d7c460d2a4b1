"""Reference Laplacian assembly: the per-solve Python triplet rebuild.

This is the assembly the production :class:`QuadraticPlacer` replaced
with a base system built once per placer (spring, star and eps
triplets) onto which each solve only splices its anchors.  The rebuild
walks every spring again on every solve, so it is several times slower,
and it is kept only as the oracle the equivalence tests and the
hot-path guard compare against: both emit the identical COO stream, so
the production placer must return exactly the positions this one does
(``Point`` equality, no tolerance).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from repro.geometry import Point, position_arrays, position_dict
from repro.placement import PseudoNet, QuadraticPlacer
from repro.placement.quadratic import _EPS_ANCHOR, AnchorArrays


def placed(
    placer: QuadraticPlacer,
    pseudo_nets: Iterable[PseudoNet] = (),
    stability_anchors: Mapping[str, Point] | None = None,
    stability_weight: float = 0.0,
) -> dict[str, Point]:
    """``placer.place`` with name-keyed inputs and output, the form the
    placer tests compare."""
    return position_dict(
        placer.movable,
        *placer.place(
            pseudo_nets=placer.pseudo_net_arrays(pseudo_nets),
            stability_anchors=(
                None
                if stability_anchors is None
                else position_arrays(placer.movable, stability_anchors)
            ),
            stability_weight=stability_weight,
        ),
    )


class TripletsPlacer(QuadraticPlacer):
    """:class:`QuadraticPlacer` that rebuilds every axis system from its
    springs on each solve instead of reusing the prefactored base."""

    def _solve_axis(
        self,
        axis: int,
        anchors: AnchorArrays,
        warm: np.ndarray | None,
    ) -> np.ndarray:
        """Solve one coordinate axis.  ``anchors`` = (cells, targets, weights)."""
        rows_of = zip(anchors[0].tolist(), anchors[1].tolist(), anchors[2].tolist())
        n = len(self._movable)
        n_aux = len(self._star_nets)
        size = n + n_aux
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs = np.zeros(size)

        def add(i: int, j: int | None, w: float, fixed_val: float = 0.0) -> None:
            rows.append(i)
            cols.append(i)
            vals.append(w)
            if j is None:
                rhs[i] += w * fixed_val
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
                add(i, None, w, (p.x, p.y)[axis])
        for k, (movable_idx, fixed_pts, w) in enumerate(self._star_nets):
            aux = n + k
            for i in movable_idx:
                add(i, aux, w)
            for p in fixed_pts:
                add(aux, None, w, (p.x, p.y)[axis])
        center = (self.region.bbox.center.x, self.region.bbox.center.y)[axis]
        for i in range(size):
            add(i, None, _EPS_ANCHOR, center)
        for i, target, w in rows_of:
            add(i, None, w, target)

        A = sp.csr_matrix((vals, (rows, cols)), shape=(size, size))
        x0 = None
        if warm is not None:
            x0 = np.concatenate([warm, np.full(n_aux, center)])
        sol = self._linear_solve(A, rhs, x0)
        return sol[:n]
