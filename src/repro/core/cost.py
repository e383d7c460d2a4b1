"""Tapping-cost matrices and the paper's evaluation metrics.

The *tapping cost* ``c_ij`` of flip-flop ``i`` on ring ``j`` is the stub
wirelength of the best Section-III tapping solution satisfying the
flip-flop's clock-delay target.  This module builds the (pruned) cost
matrix consumed by both assignment formulations, and computes the
headline metrics of Tables III-VII:

* **AFD** — average flip-flop distance = total tapping WL / #flip-flops;
* **tapping WL / signal WL / total WL**;
* **max load capacitance** per ring (Section VI objective);
* **WCP** — wirelength-capacitance product (Table VII).

The matrix is built by the NumPy-batched pair kernel of
:mod:`repro.rotary.tapping_vec`; the scalar loop over
:func:`repro.rotary.best_tapping` it replaced is kept as the test oracle
``tests/oracles/cost_ref.py``, and the tests and the cost-matrix perf
guard check that both build the same matrix bit for bit.
:class:`TappingCostCache` adds cross-iteration row reuse for the
integrated flow: a flip-flop's matrix row only depends on its position
and skew target, so rows whose ``(position, target)`` key is unchanged
are served from the cache instead of being re-solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from ..constants import Technology
from ..errors import CostMatrixError, TappingError
from ..geometry import Point, net_hpwl, net_steiner_wl
from ..netlist import Circuit
from ..obs import NULL_COLLECTOR, Collector
from ..opt.mincostflow import FORBIDDEN_COST
from ..parallel import fixed_chunks, run_chunk_tasks
from ..rotary import (
    BatchTappingResult,
    RingArray,
    RingPairsTappingResult,
    TappingSolution,
    batch_solve_rings,
    best_tapping,
    stub_load_capacitance,
)

#: Either batched-result flavour; both expose ``.solution(i)``.
_TappingBatch = BatchTappingResult | RingPairsTappingResult


@dataclass(frozen=True, slots=True)
class TappingCostMatrix:
    """Pruned flip-flop x ring tapping-cost matrix."""

    ff_names: tuple[str, ...]
    #: ``costs[i, j]`` = stub wirelength (um), ``FORBIDDEN_COST`` if pruned.
    costs: npt.NDArray[np.float64]
    #: Per-row candidate (non-pruned) ring columns; derived from ``costs``
    #: when not supplied.  Consumers iterate this instead of re-scanning
    #: the dense matrix against ``FORBIDDEN_COST``.
    candidates: tuple[npt.NDArray[np.intp], ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.candidates) != len(self.ff_names):
            object.__setattr__(
                self,
                "candidates",
                tuple(
                    np.flatnonzero(self.costs[i] < FORBIDDEN_COST)
                    for i in range(len(self.ff_names))
                ),
            )

    @property
    def num_flipflops(self) -> int:
        return len(self.ff_names)

    @property
    def num_rings(self) -> int:
        return int(self.costs.shape[1])

    @property
    def finite_mask(self) -> npt.NDArray[np.bool_]:
        """Boolean mask of non-pruned (candidate) arcs."""
        return self.costs < FORBIDDEN_COST

    def capacitance_matrix(self, tech: Technology) -> npt.NDArray[np.float64]:
        """Load-capacitance matrix ``C_p[i, j]`` (fF) for Section VI.

        Includes the stub wire capacitance and the flip-flop input
        capacitance; pruned entries stay forbidden.
        """
        caps = np.where(
            self.costs < FORBIDDEN_COST,
            self.costs * tech.unit_capacitance + tech.flipflop_input_cap,
            FORBIDDEN_COST,
        )
        return caps


def _validated_names(
    positions: Mapping[str, Point], targets: Mapping[str, float]
) -> tuple[str, ...]:
    """Sorted target names, rejecting targets for unknown flip-flops.

    A target keyed by a name absent from ``positions`` used to raise a
    bare ``KeyError`` mid-build (or, worse, silently misalign rows when
    callers pre-filtered); fail fast with a library error instead.
    """
    unknown = sorted(name for name in targets if name not in positions)
    if unknown:
        preview = ", ".join(unknown[:8])
        if len(unknown) > 8:
            preview += ", ..."
        raise CostMatrixError(
            f"{len(unknown)} skew target(s) reference unknown flip-flops "
            f"(no position available): {preview}"
        )
    return tuple(sorted(targets))


#: Flip-flop rows per chunk when pruning candidates on the worker pool.
#: Fixed (worker-count-independent); each chunk sorts and writes its own
#: disjoint block of mask rows, so the mask is identical for any jobs.
_MASK_ROWS_PER_CHUNK = 512


def _candidate_mask(
    array: RingArray,
    px: npt.NDArray[np.float64],
    py: npt.NDArray[np.float64],
    candidate_rings: int | None,
    jobs: int = 1,
    collector: Collector = NULL_COLLECTOR,
) -> npt.NDArray[np.bool_]:
    """Boolean (ff, ring) mask of the pruned candidate arcs.

    Mirrors :meth:`RingArray.rings_by_distance`: the ``k`` nearest rings
    by center Manhattan distance, ties broken by ring id (stable sort).
    ``jobs > 1`` splits the flip-flop rows into fixed blocks dispatched
    to the worker pool — the per-row distance/argsort work is
    independent, so the pruning (the candidate set fed to the §V/§VI
    assignment engines) is bit-identical for any worker count.
    """
    n_rings = array.num_rings
    if candidate_rings is None or candidate_rings >= n_rings:
        return np.ones((px.shape[0], n_rings), dtype=bool)
    cx = np.array([ring.center.x for ring in array])
    cy = np.array([ring.center.y for ring in array])
    mask = np.zeros((px.shape[0], n_rings), dtype=bool)
    k = candidate_rings

    def prune_rows(lo: int, hi: int) -> None:
        dist = np.abs(px[lo:hi, None] - cx[None, :]) + np.abs(py[lo:hi, None] - cy[None, :])
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        np.put_along_axis(mask[lo:hi], order, True, axis=1)

    run_chunk_tasks(
        prune_rows,
        fixed_chunks(px.shape[0], _MASK_ROWS_PER_CHUNK),
        jobs=jobs,
        collector=collector,
        stage="cost.candidate-mask",
    )
    return mask


def _check_pairs_feasible(
    result: RingPairsTappingResult,
    names: Sequence[str],
    rows: npt.NDArray[np.intp] | None = None,
) -> None:
    """Raise on the first infeasible pair, in pair order.

    Callers order pairs ring-major (all of ring 0's rows, then ring 1's,
    ...), so the reported (ring, flip-flop) matches what the historical
    per-ring loop raised on.  ``rows`` maps pair index to a row of
    ``names``; ``None`` means pairs and ``names`` are parallel.
    """
    if result.feasible.all():
        return
    p = int(np.flatnonzero(~result.feasible)[0])
    name = names[p] if rows is None else names[int(rows[p])]
    raise TappingError(
        f"no tapping point on ring {int(result.ring_ids[p])} is feasible "
        f"for flip-flop {name!r}"
    )


def tapping_cost_matrix(
    array: RingArray,
    positions: Mapping[str, Point],
    targets: Mapping[str, float],
    tech: Technology,
    candidate_rings: int | None = 8,
    jobs: int = 1,
) -> TappingCostMatrix:
    """Build the cost matrix for all flip-flops against the ring array.

    ``candidate_rings`` prunes each flip-flop to its nearest rings (the
    paper: "if a flip-flop and a ring are too far away from each other,
    it is not necessary to insert an arc between them"); ``None`` builds
    the full matrix.  ``jobs > 1`` dispatches the pruning and the pair
    kernel to the :mod:`repro.parallel` worker pool; the matrix is
    bit-identical for any worker count.
    """
    ff_names = _validated_names(positions, targets)
    costs = np.full((len(ff_names), array.num_rings), FORBIDDEN_COST)
    px = np.array([positions[name].x for name in ff_names])
    py = np.array([positions[name].y for name in ff_names])
    tg = np.array([targets[name] for name in ff_names])
    mask = _candidate_mask(array, px, py, candidate_rings, jobs=jobs)
    # One pair-batched kernel call over every candidate arc, ring-major
    # so infeasibility reporting matches the historical per-ring loop.
    rid, fid = np.nonzero(mask.T)
    if rid.size:
        result = batch_solve_rings(
            array, rid, px[fid], py[fid], tg[fid], tech, jobs=jobs
        )
        _check_pairs_feasible(result, ff_names, rows=fid)
        costs[fid, rid] = result.wirelength
    return TappingCostMatrix(ff_names=ff_names, costs=costs)


class TappingCostCache:
    """Cross-iteration cache of cost-matrix rows and tapping solutions.

    A flip-flop's matrix row (and every per-ring tapping solution behind
    it) is a pure function of its ``(position, skew target)`` pair given
    a fixed ring array and technology.  The integrated flow re-keys each
    flip-flop every iteration; rows whose key is unchanged are reused
    ("hit"), rows whose flip-flop moved or was re-targeted are re-solved
    with the batched kernel ("miss").  The same store serves
    :func:`realize_assignment` and the flow's retargeting step, so a
    matrix build followed by an assignment realization solves each
    flip-flop exactly once.

    Counters (``hits`` / ``misses``) are cumulative over the cache's
    lifetime; the flow snapshots them per iteration into
    :class:`repro.core.flow.IterationRecord`, and every hit/miss is also
    emitted to the ``collector`` as the ``tapping.cache.hits`` /
    ``tapping.cache.misses`` counters.
    """

    def __init__(
        self,
        array: RingArray,
        tech: Technology,
        candidate_rings: int | None = 8,
        collector: Collector = NULL_COLLECTOR,
        jobs: int = 1,
    ) -> None:
        self.array = array
        self.tech = tech
        self.candidate_rings = candidate_rings
        self.collector = collector
        #: Worker count for pruning/kernel dispatch (execution-only: the
        #: cached rows are bit-identical for any value).
        self.jobs = jobs
        #: Row key per flip-flop: (x, y, target).
        self._key: dict[str, tuple[float, float, float]] = {}
        #: Cached dense cost row per flip-flop.
        self._row: dict[str, npt.NDArray[np.float64]] = {}
        #: Cached solutions per flip-flop: the batch result (``None`` when
        #: the batch had no candidate arc) and, per ring, the pair index
        #: into it (-1 for a pruned ring).  Materialized into
        #: :class:`TappingSolution` lazily — only the assigned ring of
        #: each flip-flop is ever realized.
        self._solutions: dict[
            str, tuple[_TappingBatch | None, npt.NDArray[np.int32]]
        ] = {}
        self.hits = 0
        self.misses = 0

    # -- internal -----------------------------------------------------
    @staticmethod
    def _row_key(p: Point, target: float) -> tuple[float, float, float]:
        return (p.x, p.y, target)

    def _solve_rows(
        self,
        names: Sequence[str],
        positions: Mapping[str, Point],
        targets: Mapping[str, float],
    ) -> None:
        """(Re)compute the cached row + solutions of ``names``."""
        px = np.array([positions[name].x for name in names])
        py = np.array([positions[name].y for name in names])
        tg = np.array([targets[name] for name in names])
        n_rings = self.array.num_rings
        mask = _candidate_mask(
            self.array, px, py, self.candidate_rings,
            jobs=self.jobs, collector=self.collector,
        )
        rid, fid = np.nonzero(mask.T)
        rows_arr = np.full((len(names), n_rings), FORBIDDEN_COST)
        pair_of = np.full((len(names), n_rings), -1, dtype=np.int32)
        result: _TappingBatch | None = None
        if rid.size:
            result = batch_solve_rings(
                self.array, rid, px[fid], py[fid], tg[fid], self.tech,
                collector=self.collector, jobs=self.jobs,
            )
            _check_pairs_feasible(result, names, rows=fid)
            rows_arr[fid, rid] = result.wirelength
            pair_of[fid, rid] = np.arange(rid.size)
        for i, name in enumerate(names):
            self._key[name] = self._row_key(positions[name], targets[name])
            self._row[name] = rows_arr[i]
            self._solutions[name] = (result, pair_of[i])

    def _evict_stale(self, live: Sequence[str]) -> None:
        stale = set(self._key) - set(live)
        for name in sorted(stale):
            del self._key[name], self._row[name], self._solutions[name]

    def _cached(self, name: str, ring_id: int) -> TappingSolution | None:
        """The cached solution of ``name`` on ``ring_id``, if solved."""
        result, pair_of = self._solutions[name]
        p = int(pair_of[ring_id])
        if result is None or p < 0:
            return None
        return result.solution(p)

    # -- public -------------------------------------------------------
    def matrix(
        self,
        positions: Mapping[str, Point],
        targets: Mapping[str, float],
    ) -> TappingCostMatrix:
        """Build the cost matrix, reusing rows with unchanged keys."""
        with self.collector.span("tapping.cost-matrix"):
            ff_names = _validated_names(positions, targets)
            changed = [
                name
                for name in ff_names
                if self._key.get(name)
                != self._row_key(positions[name], targets[name])
            ]
            self._tally(len(ff_names) - len(changed), len(changed))
            if changed:
                self._solve_rows(changed, positions, targets)
            self._evict_stale(ff_names)
            costs = np.stack([self._row[name] for name in ff_names])
            return TappingCostMatrix(ff_names=ff_names, costs=costs)

    def _tally(self, hits: int, misses: int) -> None:
        """Bump the lifetime counters and mirror them to the collector."""
        self.hits += hits
        self.misses += misses
        if hits:
            self.collector.count("tapping.cache.hits", hits)
        if misses:
            self.collector.count("tapping.cache.misses", misses)

    def solution(
        self,
        name: str,
        ring_id: int,
        position: Point,
        target: float,
    ) -> TappingSolution:
        """Tapping solution of one flip-flop on one ring, cached."""
        if self._key.get(name) == self._row_key(position, target):
            cached = self._cached(name, ring_id)
            if cached is not None:
                self._tally(1, 0)
                return cached
        self._tally(0, 1)
        return best_tapping(self.array[ring_id], position, target, self.tech)

    def realize(
        self,
        ring_of: Mapping[str, int],
        positions: Mapping[str, Point],
        targets: Mapping[str, float],
    ) -> dict[str, TappingSolution]:
        """Tapping solutions for an assignment, cached and batched.

        Flip-flops whose ``(position, target)`` key matches the cache are
        served from it; the rest are re-solved grouped by ring through
        the batched kernel (and do *not* update the cached rows — only a
        :meth:`matrix` build defines the row store).
        """
        with self.collector.span("tapping.realize"):
            out: dict[str, TappingSolution] = {}
            missed: dict[int, list[str]] = {}
            hits = 0
            for name, ring_id in ring_of.items():
                if self._key.get(name) == self._row_key(
                    positions[name], targets[name]
                ):
                    cached = self._cached(name, ring_id)
                    if cached is not None:
                        hits += 1
                        out[name] = cached
                        continue
                missed.setdefault(int(ring_id), []).append(name)
            self._tally(hits, len(ring_of) - hits)
            if missed:
                pair_names: list[str] = []
                pair_rings: list[int] = []
                for ring_id, names in missed.items():
                    pair_names.extend(names)
                    pair_rings.extend([ring_id] * len(names))
                px = np.array([positions[name].x for name in pair_names])
                py = np.array([positions[name].y for name in pair_names])
                tg = np.array([targets[name] for name in pair_names])
                result = batch_solve_rings(
                    self.array, np.array(pair_rings, dtype=np.intp),
                    px, py, tg, self.tech, collector=self.collector,
                    jobs=self.jobs,
                )
                _check_pairs_feasible(result, pair_names)
                for i, name in enumerate(pair_names):
                    out[name] = result.solution(i)
            return out


@dataclass(frozen=True, slots=True)
class Assignment:
    """A flip-flop -> ring assignment plus its tapping solutions."""

    ff_names: tuple[str, ...]
    ring_of: dict[str, int]
    solutions: dict[str, TappingSolution]

    @property
    def tapping_wirelength(self) -> float:
        # A sequential fold in solution order: the built-in sum is
        # compensated from Python 3.12 on, so its float (and every digest
        # holding it) would depend on the interpreter.
        total = 0.0
        for sol in self.solutions.values():
            total += sol.wirelength
        return total

    @property
    def average_flipflop_distance(self) -> float:
        """AFD: tapping wirelength averaged over flip-flops."""
        n = len(self.ff_names)
        return self.tapping_wirelength / n if n else 0.0

    def ring_loads(self, array: RingArray, tech: Technology) -> npt.NDArray[np.float64]:
        """Per-ring load capacitance (fF): stub wires + flip-flop pins."""
        loads = np.zeros(array.num_rings)
        for name, sol in self.solutions.items():
            loads[self.ring_of[name]] += stub_load_capacitance(
                sol.wirelength, tech
            )
        return loads

    def max_load_capacitance(self, array: RingArray, tech: Technology) -> float:
        """The Section VI objective: max over rings of load capacitance."""
        loads = self.ring_loads(array, tech)
        return float(loads.max()) if loads.size else 0.0

    def ring_occupancy(self, array: RingArray) -> npt.NDArray[np.int_]:
        """Flip-flop count per ring."""
        occ = np.zeros(array.num_rings, dtype=int)
        for ring_id in self.ring_of.values():
            occ[ring_id] += 1
        return occ


def realize_assignment(
    assign: npt.NDArray[np.intp],
    matrix: TappingCostMatrix,
    array: RingArray,
    positions: Mapping[str, Point],
    targets: Mapping[str, float],
    tech: Technology,
    cache: TappingCostCache | None = None,
) -> Assignment:
    """Re-solve the tapping of each flip-flop on its assigned ring.

    ``assign[i]`` is the ring index of ``matrix.ff_names[i]``.  With a
    ``cache``, solutions already computed during the matrix build are
    reused; otherwise flip-flops are re-solved grouped by ring through
    the batched kernel.
    """
    ring_of = {
        name: int(assign[i]) for i, name in enumerate(matrix.ff_names)
    }
    if cache is not None:
        solutions = cache.realize(ring_of, positions, targets)
    else:
        solutions = {}
        names = list(ring_of)
        px = np.array([positions[name].x for name in names])
        py = np.array([positions[name].y for name in names])
        tg = np.array([targets[name] for name in names])
        rid = np.array([ring_of[name] for name in names], dtype=np.intp)
        result = batch_solve_rings(array, rid, px, py, tg, tech)
        _check_pairs_feasible(result, names)
        for i, name in enumerate(names):
            solutions[name] = result.solution(i)
    return Assignment(
        ff_names=matrix.ff_names, ring_of=ring_of, solutions=solutions
    )


def signal_wirelength(
    circuit: Circuit,
    positions: Mapping[str, Point],
    model: str = "hpwl",
) -> float:
    """Total signal-net wirelength (um) over the placed design.

    ``model="hpwl"`` (default, the paper's metric) or ``model="steiner"``
    for the rectilinear-Steiner estimate (exact for nets of <= 3 pins,
    tighter for bigger nets).
    """
    if model not in ("hpwl", "steiner"):
        raise ValueError(f"unknown wirelength model {model!r}")
    estimate = net_hpwl if model == "hpwl" else net_steiner_wl
    total = 0.0
    for net in circuit.nets.values():
        pins = [positions[m] for m in net.members if m in positions]
        total += estimate(pins)
    return total


def wirelength_capacitance_product(total_wl: float, max_cap_ff: float) -> float:
    """WCP (um * pF), the Table VII comparison metric."""
    return total_wl * max_cap_ff * 1e-3  # fF -> pF
