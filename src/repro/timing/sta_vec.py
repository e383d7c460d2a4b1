"""Vectorized, structure-caching static timing analysis.

:class:`~repro.timing.sta.SequentialTiming` rebuilds everything — net
loads, topological order, fanout cones — from scratch on every
construction, even though the Fig. 3 flow only ever changes cell
*positions* between iterations.  This module splits the analysis into

* a **structural pass** (:class:`TimingStructure`): topological levels
  of the combinational DAG, per-net driver/sink index arrays, input-cap
  vectors, the consumer CSR, and a flattened per-source cone schedule.
  Computed once per (:class:`~repro.netlist.Circuit`, technology) pair
  and cached through a weak reference on the circuit; and
* a **positional pass** (:meth:`VectorizedTiming.analyze`): numpy
  Manhattan lengths -> buffered Elmore edge delays -> levelized min/max
  arrival propagation over the frozen schedule.  Every flow iteration
  pays only this array pass.

A dirty-set fast path re-propagates only the flip-flops whose *support
set* (fanout-cone cells plus every sink loading a cone driver) contains
a cell whose position changed since the previous analysis.  Any bitwise
position change marks the affected sources dirty, so the fast path is
exact: results always match a from-scratch analysis.

This is the flow's only STA engine.  The arithmetic mirrors the scalar
engine expression by expression (same association order wherever numpy
allows); the one intentional deviation is ``np.log`` vs ``math.log``
inside the buffer-tree level count, whose result is integral and
insensitive to last-ulp log differences except exactly at a level
boundary.  The equivalence suite in ``tests/timing/test_sta_vec.py``
pins scalar-vs-vectorized agreement to 1e-9 ps on all bundled ISCAS89
circuits and on hypothesis-generated random netlists, and
``tests/oracles/flow_ref.py`` reruns the whole flow on the scalar engine
to check that every flow decision is unchanged.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from ..constants import OHM_FF_TO_PS, Technology
from ..errors import CombinationalCycleError, TimingError
from ..netlist import CellKind, Circuit
from ..obs import NULL_COLLECTOR, Collector
from ..parallel import fixed_chunks, run_chunk_tasks
from .gates import GateDelayModel
from .sta import PathBounds

__all__ = ["TimingSnapshot", "TimingStructure", "VectorizedTiming", "get_structure"]

_F64 = npt.NDArray[np.float64]
_I32 = npt.NDArray[np.int32]
_I64 = npt.NDArray[np.int64]

#: Minimum level width (edges) before the positional pass dispatches a
#: level to the worker pool; narrower levels stay serial — thread
#: handoff would cost more than the gather it parallelizes.
_PARALLEL_LEVEL_MIN = 8192
#: Fixed (worker-count-independent) edge chunk width for wide levels.
_LEVEL_EDGES_PER_CHUNK = 4096


class TimingSnapshot:
    """Sequential-pair timing at one placement, as pair arrays.

    Pair ``k`` launches at flip-flop ``flip_flops[launch[k]]`` and
    captures at ``flip_flops[capture[k]]`` with path delays
    ``d_min[k]``/``d_max[k]``; pairs keep the scalar engine's order
    (the LP constraint order downstream).  :attr:`pairs` is the
    ``{(launch_ff, capture_ff): PathBounds}`` view of the same data,
    built on first use, so :class:`~repro.timing.sta.SequentialTiming`
    consumers read either engine unchanged.
    """

    __slots__ = ("flip_flops", "launch", "capture", "d_min", "d_max", "_keys", "_pairs")

    def __init__(
        self,
        flip_flops: tuple[str, ...],
        launch: _I32,
        capture: _I32,
        d_min: _F64,
        d_max: _F64,
        keys: tuple[tuple[str, str], ...],
    ) -> None:
        self.flip_flops = flip_flops
        self.launch = launch
        self.capture = capture
        self.d_min = d_min
        self.d_max = d_max
        self._keys = keys
        self._pairs: dict[tuple[str, str], PathBounds] | None = None

    @classmethod
    def from_pairs(
        cls,
        pairs: Mapping[tuple[str, str], PathBounds],
        flip_flops: Sequence[str],
    ) -> "TimingSnapshot":
        """The snapshot of a ``{(launch, capture): PathBounds}`` mapping
        over ``flip_flops``, in the mapping's order.

        Raises :class:`~repro.errors.TimingError` for a pair naming a
        flip-flop outside ``flip_flops``.
        """
        ffs = tuple(flip_flops)
        fidx = {ff: k for k, ff in enumerate(ffs)}
        n_p = len(pairs)
        launch = np.empty(n_p, dtype=np.int32)
        capture = np.empty(n_p, dtype=np.int32)
        d_min = np.empty(n_p)
        d_max = np.empty(n_p)
        try:
            for k, ((i, j), b) in enumerate(pairs.items()):
                launch[k] = fidx[i]
                capture[k] = fidx[j]
                d_min[k] = b.d_min
                d_max[k] = b.d_max
        except KeyError as exc:
            raise TimingError(
                f"timing pair references unknown flip-flop {exc.args[0]!r}"
            ) from None
        snap = cls(ffs, launch, capture, d_min, d_max, tuple(pairs))
        snap._pairs = dict(pairs)
        return snap

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> tuple[tuple[str, str], ...]:
        """``(launch_ff, capture_ff)`` of every pair, in pair order."""
        return self._keys

    @property
    def pairs(self) -> dict[tuple[str, str], PathBounds]:
        """``{(launch_ff, capture_ff): PathBounds}`` for adjacent pairs."""
        if self._pairs is None:
            self._pairs = {
                key: PathBounds(dmin, dmax)
                for key, dmin, dmax in zip(self._keys, self.d_min, self.d_max)
            }
        return self._pairs

    def schedule_array(self, schedule: Mapping[str, float]) -> _F64:
        """``schedule`` as an array over :attr:`flip_flops`; a flip-flop
        without a target gets 0.0."""
        get = schedule.get
        return np.array([get(ff, 0.0) for ff in self.flip_flops], dtype=np.float64)

    def bounds(self, launch: str, capture: str) -> PathBounds:
        try:
            return self.pairs[(launch, capture)]
        except KeyError:
            raise TimingError(
                f"flip-flops {launch!r} -> {capture!r} are not sequentially adjacent"
            ) from None

    @property
    def max_delay(self) -> float:
        """Largest D_max over all pairs; 0.0 when there are no pairs."""
        return max((b.d_max for b in self.pairs.values()), default=0.0)


@dataclass(frozen=True, slots=True)
class TimingStructure:
    """Everything about a circuit's timing graph that positions cannot
    change: index arrays, the levelized cone schedule, support sets.

    Built by :meth:`build`; immutable and safely shared across
    :class:`VectorizedTiming` instances (the module keeps a weak cache
    keyed by circuit and technology — see :func:`get_structure`).
    """

    cell_names: tuple[str, ...]
    #: Per-cell gate-delay coefficients (0 for pads), extended by one
    #: zero-delay sentinel row: d = intr + (drive * C_load) * ohm_ff.
    intr: _F64
    drive: _F64
    # -- load edges: one entry per (net, sink pin), grouped by net -------
    e_driver: _I32
    e_sink: _I32
    e_sink_cap: _F64
    #: reduceat boundaries into the edge arrays, one segment per net.
    net_ptr: _I64
    #: Driver cell index of each net segment.
    net_driver: _I32
    # -- flattened multi-source propagation schedule ---------------------
    #: Total number of (source, cone-node) state slots.
    n_slots: int
    src_names: tuple[str, ...]
    src_cell: _I32
    src_slot: _I64
    #: Tail level of each cone edge (sorted ascending; pass boundaries
    #: are the change points).
    p_lvl: _I64
    lvl_ptr: _I64
    p_tail: _I64
    p_head: _I64
    p_edge: _I32
    #: Gate cell receiving each edge, or ``len(cell_names)`` (the
    #: sentinel) when the edge terminates at a register D pin.
    p_gate: _I32
    p_src: _I32
    # -- captures (one per sequential pair) ------------------------------
    cap_slot: _I64
    #: Launch and capture flip-flop of each pair, as indices into
    #: ``src_names`` (``circuit.flip_flops`` order).
    cap_src: _I32
    cap_dst: _I32
    pair_keys: tuple[tuple[str, str], ...]
    # -- dirty-set support sets (CSR of sorted unique cell indices) ------
    support_ptr: _I64
    support_cells: _I32

    @property
    def num_sources(self) -> int:
        return len(self.src_names)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_keys)

    @property
    def num_cone_edges(self) -> int:
        return int(self.p_tail.size)

    # ------------------------------------------------------------------
    @staticmethod
    def build(circuit: Circuit, tech: Technology) -> "TimingStructure":
        """One-time structural analysis of ``circuit`` under ``tech``.

        Raises :class:`~repro.errors.CombinationalCycleError` exactly
        where the scalar engine would (purely combinational loops).
        """
        model = GateDelayModel(tech)
        cells = list(circuit)
        cell_names = tuple(c.name for c in cells)
        index = {name: i for i, name in enumerate(cell_names)}
        n_cells = len(cells)

        # Decompose model.delay(kind, C) = intr + (drive * C) * ohm_ff
        # using the exact products the scalar model computes (delay at
        # C=0 adds literal 0.0, which is exact).
        intr = np.zeros(n_cells + 1)
        drive = np.zeros(n_cells + 1)
        for i, cell in enumerate(cells):
            if cell.kind.is_pad:
                continue
            intr[i] = model.delay(cell.kind, 0.0)
            drive[i] = model.drive_resistance(cell.kind)

        # -- load edges, grouped by net in circuit.nets order ------------
        e_driver: list[int] = []
        e_sink: list[int] = []
        e_sink_cap: list[float] = []
        net_ptr: list[int] = [0]
        net_driver: list[int] = []
        # Propagation edges (sinks that are not primary outputs); heads
        # use node ids: cell index, or n_cells + k for flip-flop k's D.
        pe_tail: list[int] = []
        pe_head: list[int] = []
        pe_edge: list[int] = []
        pe_gate: list[int] = []
        flip_flops = circuit.flip_flops
        ff_ord = {ff.name: k for k, ff in enumerate(flip_flops)}
        ff_cell = [index[ff.name] for ff in flip_flops]
        drv_seg: dict[int, tuple[int, int]] = {}
        for net in circuit.nets.values():
            d = index[net.driver]
            start = len(e_driver)
            for sink in net.sinks:
                s = index[sink]
                sink_cell = circuit.cell(sink)
                eid = len(e_driver)
                e_driver.append(d)
                e_sink.append(s)
                e_sink_cap.append(model.input_cap(sink_cell.kind))
                if sink_cell.kind is CellKind.OUTPUT:
                    continue  # PO paths are not register-to-register
                if sink_cell.is_flipflop:
                    head = n_cells + ff_ord[sink]
                    gate = n_cells  # zero-delay sentinel: captured at D
                else:
                    head = s
                    gate = s
                pe_tail.append(d)
                pe_head.append(head)
                pe_edge.append(eid)
                pe_gate.append(gate)
            net_ptr.append(len(e_driver))
            net_driver.append(d)
            drv_seg[d] = (start, len(e_driver))

        topo_order, name_level = _levelize(circuit)
        tail_level = [name_level.get(name, 0) for name in cell_names]
        # Topological index of each flip-flop's D pseudo-node, used to
        # emit captures in the scalar engine's pop order so the pairs
        # dict iterates identically (LP constraint order downstream).
        d_topo = [
            topo_order.get(Circuit.dff_data_node(ff.name), 0) for ff in flip_flops
        ]

        # Consumer lists over tail cells.
        cons: list[list[int]] = [[] for _ in range(n_cells)]
        for k, tail in enumerate(pe_tail):
            cons[tail].append(k)

        # -- per-source cones, flattened ---------------------------------
        src_names: list[str] = []
        src_cell: list[int] = []
        src_slot: list[int] = []
        rec_lvl: list[int] = []
        rec_tail: list[int] = []
        rec_head: list[int] = []
        rec_edge: list[int] = []
        rec_gate: list[int] = []
        rec_src: list[int] = []
        cap_slot: list[int] = []
        cap_src: list[int] = []
        cap_dst: list[int] = []
        pair_keys: list[tuple[str, str]] = []
        support_ptr: list[int] = [0]
        support_cells: list[int] = []
        n_slots = 0
        for ff in flip_flops:
            src_id = len(src_names)
            fi = index[ff.name]
            slot_of: dict[int, int] = {fi: n_slots}
            n_slots += 1
            src_names.append(ff.name)
            src_cell.append(fi)
            src_slot.append(slot_of[fi])
            caps: list[tuple[int, int, int]] = []
            stack = [fi]
            while stack:
                u = stack.pop()
                lvl_u = tail_level[u]
                slot_u = slot_of[u]
                for k in cons[u]:
                    head = pe_head[k]
                    hs = slot_of.get(head)
                    if hs is None:
                        hs = slot_of[head] = n_slots
                        n_slots += 1
                        if head < n_cells:
                            stack.append(head)
                        else:
                            caps.append((d_topo[head - n_cells], hs, head - n_cells))
                    rec_lvl.append(lvl_u)
                    rec_tail.append(slot_u)
                    rec_head.append(hs)
                    rec_edge.append(pe_edge[k])
                    rec_gate.append(pe_gate[k])
                    rec_src.append(src_id)
            # Scalar _propagate_from pops nodes in increasing topological
            # index, so its pairs dict gains captures in that order.
            caps.sort()
            for _, hs, cap_ff in caps:
                cap_slot.append(hs)
                cap_src.append(src_id)
                cap_dst.append(cap_ff)
                pair_keys.append((ff.name, flip_flops[cap_ff].name))
            # Support set: cone cells plus every sink loading a cone
            # driver — pad and primary-output sinks included, because
            # their positions change branch loads and hence gate delays.
            support: set[int] = set()
            for node in slot_of:
                if node < n_cells:
                    support.add(node)
                    seg = drv_seg.get(node)
                    if seg is not None:
                        support.update(e_sink[seg[0] : seg[1]])
                else:
                    support.add(ff_cell[node - n_cells])
            support_cells.extend(sorted(support))
            support_ptr.append(len(support_cells))

        # Sort cone edges by tail level; each pass relaxes one level.
        lvl_arr = np.asarray(rec_lvl, dtype=np.int64)
        order = np.argsort(lvl_arr, kind="stable")
        p_lvl = lvl_arr[order]
        if p_lvl.size:
            change = np.flatnonzero(np.diff(p_lvl)) + 1
            lvl_ptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), change, [p_lvl.size]]
            )
        else:
            lvl_ptr = np.zeros(1, dtype=np.int64)

        def _i32(values: list[int]) -> _I32:
            return np.asarray(values, dtype=np.int32)

        def _i64_sorted(values: list[int]) -> _I64:
            return np.asarray(values, dtype=np.int64)[order]

        return TimingStructure(
            cell_names=cell_names,
            intr=intr,
            drive=drive,
            e_driver=_i32(e_driver),
            e_sink=_i32(e_sink),
            e_sink_cap=np.asarray(e_sink_cap),
            net_ptr=np.asarray(net_ptr, dtype=np.int64),
            net_driver=_i32(net_driver),
            n_slots=n_slots,
            src_names=tuple(src_names),
            src_cell=_i32(src_cell),
            src_slot=np.asarray(src_slot, dtype=np.int64),
            p_lvl=p_lvl,
            lvl_ptr=lvl_ptr,
            p_tail=_i64_sorted(rec_tail),
            p_head=_i64_sorted(rec_head),
            p_edge=_i32(rec_edge)[order],
            p_gate=_i32(rec_gate)[order],
            p_src=_i32(rec_src)[order],
            cap_slot=np.asarray(cap_slot, dtype=np.int64),
            cap_src=_i32(cap_src),
            cap_dst=_i32(cap_dst),
            pair_keys=tuple(pair_keys),
            support_ptr=np.asarray(support_ptr, dtype=np.int64),
            support_cells=_i32(support_cells),
        )


def _levelize(circuit: Circuit) -> tuple[dict[str, int], dict[str, int]]:
    """Topological order and longest-path level of every DAG node.

    Kahn's algorithm over :meth:`Circuit.combinational_edges` with the
    scalar engine's exact pop discipline (LIFO over the same insertion
    order), so the returned order indices match
    ``SequentialTiming._topological_order`` node for node.  Raises
    :class:`CombinationalCycleError` with the stuck nodes exactly like
    the scalar engine.
    """
    indeg: dict[str, int] = {}
    succ: dict[str, list[str]] = {}
    for u, v in circuit.combinational_edges():
        indeg[v] = indeg.get(v, 0) + 1
        indeg.setdefault(u, 0)
        succ.setdefault(u, []).append(v)
    ready = [n for n, d in indeg.items() if d == 0]
    level = {n: 0 for n in ready}
    order: dict[str, int] = {}
    while ready:
        n = ready.pop()
        order[n] = len(order)
        ln = level[n] + 1
        for m in succ.get(n, ()):
            if level.get(m, -1) < ln:
                level[m] = ln
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if len(order) != len(indeg):
        stuck = [n for n, d in indeg.items() if d > 0]
        raise CombinationalCycleError(stuck)
    return order, level


#: Weak per-circuit cache of structural passes, keyed by technology
#: (hashable frozen dataclass).  Entries die with their circuit.
_STRUCTURE_CACHE: "weakref.WeakKeyDictionary[Circuit, dict[Technology, TimingStructure]]" = (
    weakref.WeakKeyDictionary()
)


def get_structure(
    circuit: Circuit,
    tech: Technology,
    collector: Collector = NULL_COLLECTOR,
) -> TimingStructure:
    """The cached :class:`TimingStructure` for ``(circuit, tech)``,
    building (and recording a cache miss) on first use."""
    per_tech = _STRUCTURE_CACHE.get(circuit)
    if per_tech is None:
        per_tech = {}
        _STRUCTURE_CACHE[circuit] = per_tech
    structure = per_tech.get(tech)
    if structure is None:
        collector.count("sta.structure.misses")
        with collector.span("sta.structure.build", circuit=circuit.name):
            structure = TimingStructure.build(circuit, tech)
        per_tech[tech] = structure
    else:
        collector.count("sta.structure.hits")
    return structure


class VectorizedTiming:
    """Reusable vectorized STA engine bound to one circuit+technology.

    Call :meth:`analyze` with a placement to get a
    :class:`TimingSnapshot`; repeated calls reuse the cached structural
    pass and re-propagate only the sources whose support set actually
    moved.

    Parameters
    ----------
    circuit, tech:
        As for :class:`~repro.timing.sta.SequentialTiming`.
    collector:
        Observability sink for cache/dirty-set counters.
    jobs:
        Worker count for the wide levels of the positional pass.
        Execution-only: arrivals are bit-identical for any value (the
        parallel path only chunks the gather/arithmetic of a level; the
        min/max scatter stays a single ordered call per level).
    """

    def __init__(
        self,
        circuit: Circuit,
        tech: Technology,
        *,
        collector: Collector = NULL_COLLECTOR,
        jobs: int = 1,
    ) -> None:
        self.circuit = circuit
        self.tech = tech
        self.collector = collector
        self.jobs = max(1, int(jobs))
        self.structure = get_structure(circuit, tech, collector)
        n_pairs = self.structure.num_pairs
        self._dmin = np.zeros(n_pairs)
        self._dmax = np.zeros(n_pairs)
        self._ref_x: _F64 | None = None
        self._ref_y: _F64 | None = None
        self._snapshot: TimingSnapshot | None = None

    # ------------------------------------------------------------------
    def analyze(self, x: _F64, y: _F64) -> TimingSnapshot:
        """Timing at the placement ``(x, y)``, indexed like
        ``structure.cell_names`` (``list(circuit)`` order)."""
        s = self.structure
        obs = self.collector
        pos_x = np.array(x, dtype=np.float64)
        pos_y = np.array(y, dtype=np.float64)
        if pos_x.shape != (len(s.cell_names),) or pos_y.shape != pos_x.shape:
            raise TimingError(
                f"positions must be two arrays of {len(s.cell_names)} "
                f"coordinates, got shapes {pos_x.shape} and {pos_y.shape}"
            )

        if self._ref_x is None or self._ref_y is None:
            dirty_src: _I64 | None = None  # all sources
        else:
            moved = (pos_x != self._ref_x) | (pos_y != self._ref_y)
            if not moved.any():
                obs.count("sta.sources-reused", s.num_sources)
                obs.gauge("sta.dirty-set-size", 0)
                snap = self._snapshot
                assert snap is not None
                return snap
            hits = np.add.reduceat(
                moved[s.support_cells].astype(np.int64), s.support_ptr[:-1]
            )
            touched = hits > 0
            if touched.all():
                dirty_src = None
            else:
                dirty_src = np.flatnonzero(touched)
        self._ref_x, self._ref_y = pos_x, pos_y

        with obs.span("sta.positional", circuit=self.circuit.name):
            self._positional_pass(pos_x, pos_y, dirty_src)

        obs.count("sta.positional-passes")
        n_dirty = s.num_sources if dirty_src is None else int(dirty_src.size)
        obs.count("sta.sources-repropagated", n_dirty)
        obs.count("sta.sources-reused", s.num_sources - n_dirty)
        obs.gauge("sta.dirty-set-size", n_dirty)

        snap = TimingSnapshot(
            s.src_names, s.cap_src, s.cap_dst, self._dmin, self._dmax, s.pair_keys
        )
        self._snapshot = snap
        return snap

    # ------------------------------------------------------------------
    def _positional_pass(
        self, pos_x: _F64, pos_y: _F64, dirty_src: _I64 | None
    ) -> None:
        s = self.structure
        tech = self.tech

        # -- branch lengths and loads (per net-sink edge) ----------------
        length = np.abs(pos_x[s.e_driver] - pos_x[s.e_sink]) + np.abs(
            pos_y[s.e_driver] - pos_y[s.e_sink]
        )
        crit = tech.buffer_critical_length
        c_unit = tech.unit_capacitance
        branch_load = np.where(
            length <= crit,
            c_unit * length + s.e_sink_cap,
            tech.wire_cap(crit) + tech.buffer_input_cap,
        )

        # -- per-net driver load, buffer trees ---------------------------
        n_cells = len(s.cell_names)
        load = np.zeros(n_cells + 1)
        tree = np.zeros(n_cells + 1)
        if s.net_driver.size:
            # Fold-left segmented sum in sink order: np.add.reduceat
            # switches to pairwise summation above 8 elements, which
            # rounds differently from the scalar engine's running
            # ``total +=`` on high-fanout nets.
            starts = s.net_ptr[:-1]
            counts = np.diff(s.net_ptr)
            totals = np.zeros(counts.size)
            for j in range(int(counts.max())):
                m = counts > j
                totals[m] = totals[m] + branch_load[starts[m] + j]
            limit = tech.max_driver_load
            buf_stage = (
                tech.buffer_intrinsic_delay
                + tech.buffer_drive_resistance * limit * 1e-3
            )
            over = totals > limit
            if over.any():
                levels = np.ceil(
                    np.log(totals[over] / limit) / math.log(tech.buffer_tree_branching)
                )
                tree[s.net_driver[over]] = levels * buf_stage
                totals = np.where(over, limit, totals)
            load[s.net_driver] = totals

        # -- cell delays (clock-to-Q / gate) -----------------------------
        cell_delay = s.intr + (s.drive * load) * OHM_FF_TO_PS

        # -- edge delays: repeater-buffered Elmore + tree penalty --------
        wire = tree[s.e_driver] + _buffered_wire_delay_vec(
            length, s.e_sink_cap, tech
        )

        # -- levelized min/max arrival propagation -----------------------
        state_mn = np.full(s.n_slots, np.inf)
        state_mx = np.full(s.n_slots, -np.inf)
        if dirty_src is None:
            state_mn[s.src_slot] = cell_delay[s.src_cell]
            state_mx[s.src_slot] = cell_delay[s.src_cell]
            sel_caps: _I64 | None = None
            segments = [
                slice(int(s.lvl_ptr[i]), int(s.lvl_ptr[i + 1]))
                for i in range(len(s.lvl_ptr) - 1)
            ]
            p_tail, p_head, p_edge, p_gate = s.p_tail, s.p_head, s.p_edge, s.p_gate
        else:
            dirty_mask = np.zeros(s.num_sources, dtype=bool)
            dirty_mask[dirty_src] = True
            slots = s.src_slot[dirty_src]
            state_mn[slots] = cell_delay[s.src_cell[dirty_src]]
            state_mx[slots] = cell_delay[s.src_cell[dirty_src]]
            sel = np.flatnonzero(dirty_mask[s.p_src])
            p_tail, p_head = s.p_tail[sel], s.p_head[sel]
            p_edge, p_gate = s.p_edge[sel], s.p_gate[sel]
            sel_lvl = s.p_lvl[sel]
            if sel_lvl.size:
                change = np.flatnonzero(np.diff(sel_lvl)) + 1
                bounds = np.concatenate(
                    [np.zeros(1, dtype=np.int64), change, [sel_lvl.size]]
                )
            else:
                bounds = np.zeros(1, dtype=np.int64)
            segments = [
                slice(int(bounds[i]), int(bounds[i + 1]))
                for i in range(len(bounds) - 1)
            ]
            sel_caps = np.flatnonzero(dirty_mask[s.cap_src])

        for seg in segments:
            tails = p_tail[seg]
            heads = p_head[seg]
            wires = wire[p_edge[seg]]
            gates = cell_delay[p_gate[seg]]
            width = int(tails.shape[0])
            if self.jobs > 1 and width >= _PARALLEL_LEVEL_MIN:
                # Wide level: chunk the gather/arithmetic across the
                # worker pool into preallocated candidate arrays
                # (elementwise, disjoint slices — bit-identical to the
                # one-shot expression), then apply the min/max scatter
                # as the same single ordered call the serial path makes.
                cand_mn = np.empty(width)
                cand_mx = np.empty(width)

                def gather(lo: int, hi: int) -> None:
                    t = tails[lo:hi]
                    w = wires[lo:hi]
                    g = gates[lo:hi]
                    cand_mn[lo:hi] = (state_mn[t] + w) + g
                    cand_mx[lo:hi] = (state_mx[t] + w) + g

                run_chunk_tasks(
                    gather,
                    fixed_chunks(width, _LEVEL_EDGES_PER_CHUNK),
                    jobs=self.jobs,
                    collector=self.collector,
                    stage="sta.level",
                )
                np.minimum.at(state_mn, heads, cand_mn)
                np.maximum.at(state_mx, heads, cand_mx)
            else:
                np.minimum.at(state_mn, heads, (state_mn[tails] + wires) + gates)
                np.maximum.at(state_mx, heads, (state_mx[tails] + wires) + gates)

        if sel_caps is None:
            self._dmin = state_mn[s.cap_slot]
            self._dmax = state_mx[s.cap_slot]
        else:
            # Fresh arrays: earlier snapshots keep the values they hold.
            self._dmin = self._dmin.copy()
            self._dmax = self._dmax.copy()
            self._dmin[sel_caps] = state_mn[s.cap_slot[sel_caps]]
            self._dmax[sel_caps] = state_mx[s.cap_slot[sel_caps]]


def _buffered_wire_delay_vec(length: _F64, sink_cap: _F64, tech: Technology) -> _F64:
    """Vector twin of :func:`repro.timing.elmore.buffered_wire_delay`.

    Evaluates the same k-segment repeater chains (k = 1 up to
    ceil(L / L_crit)) with the scalar function's association order, so
    each element matches the scalar result bit-for-bit.
    """
    r, c = tech.unit_resistance, tech.unit_capacitance

    def wd(seg: _F64, load: "_F64 | float") -> _F64:
        out: _F64 = (0.5 * r * c * seg * seg + r * seg * load) * OHM_FF_TO_PS
        return out

    best = wd(length, sink_cap)  # k = 1: no repeaters
    crit = tech.buffer_critical_length
    long_idx = np.flatnonzero(length > crit)
    if long_idx.size == 0:
        return best
    lengths = length[long_idx]
    sinks = sink_cap[long_idx]
    k_max = np.ceil(lengths / crit)
    chains = best[long_idx]
    bid = tech.buffer_intrinsic_delay
    bdr = tech.buffer_drive_resistance
    buf_cap = tech.buffer_input_cap
    for k in range(2, int(k_max.max()) + 1):
        m = k_max >= k
        seg = lengths[m] / k
        seg_wire_cap = c * seg  # tech.wire_cap(seg)
        total = wd(seg, buf_cap)  # driver segment
        mid = bid + bdr * (seg_wire_cap + buf_cap) * OHM_FF_TO_PS + wd(seg, buf_cap)
        for _ in range(k - 2):
            total = total + mid
        last = bid + bdr * (seg_wire_cap + sinks[m]) * OHM_FF_TO_PS + wd(
            seg, sinks[m]
        )
        total = total + last
        chains[m] = np.minimum(chains[m], total)
    best[long_idx] = chains
    return best
