"""Run the integrated flow on the reference engines.

The flow has one engine per stage: the vectorized STA and the
prefactored placer assembly.  Inside :func:`reference_engines` it runs
on the engines those replaced instead — a from-scratch
:class:`~repro.timing.SequentialTiming` on every timing analysis and the
per-solve triplet rebuild of :mod:`oracles.placer_ref` — so the
whole-flow equivalence test (and the end-to-end hot-path record) can
check that every flow decision is unchanged, without a flow option to
select the slow path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

from repro.constants import Technology
from repro.core import flow
from repro.geometry import position_dict
from repro.netlist import Circuit
from repro.obs import NULL_COLLECTOR, Collector
from repro.timing import SequentialTiming, TimingSnapshot

from oracles.placer_ref import TripletsPlacer


class ScalarTiming:
    """Stands in for :class:`~repro.timing.VectorizedTiming`: every
    :meth:`analyze` call rebuilds a :class:`SequentialTiming` from
    scratch (no cached structure, no dirty set) and hands its pairs over
    as a :class:`~repro.timing.TimingSnapshot`."""

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
        self._names = tuple(cell.name for cell in circuit)
        self._flip_flops = [ff.name for ff in circuit.flip_flops]

    def analyze(self, x: np.ndarray, y: np.ndarray) -> TimingSnapshot:
        positions = position_dict(self._names, x, y)
        pairs = SequentialTiming(self.circuit, positions, self.tech).pairs
        return TimingSnapshot.from_pairs(pairs, self._flip_flops)


@contextmanager
def reference_engines() -> Iterator[None]:
    """Flows run inside this block use the scalar STA and the triplet
    placer assembly."""
    with mock.patch.object(flow, "VectorizedTiming", ScalarTiming):
        with mock.patch.object(flow, "QuadraticPlacer", TripletsPlacer):
            yield
