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
from typing import Iterator, Mapping
from unittest import mock

from repro.constants import Technology
from repro.core import flow
from repro.geometry import Point
from repro.netlist import Circuit
from repro.obs import NULL_COLLECTOR, Collector
from repro.timing import SequentialTiming

from oracles.placer_ref import TripletsPlacer


class ScalarTiming:
    """Stands in for :class:`~repro.timing.VectorizedTiming`: every
    :meth:`analyze` call rebuilds a :class:`SequentialTiming` from
    scratch (no cached structure, no dirty set)."""

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

    def analyze(self, positions: Mapping[str, Point]) -> SequentialTiming:
        return SequentialTiming(self.circuit, positions, self.tech)


@contextmanager
def reference_engines() -> Iterator[None]:
    """Flows run inside this block use the scalar STA and the triplet
    placer assembly."""
    with mock.patch.object(flow, "VectorizedTiming", ScalarTiming):
        with mock.patch.object(flow, "QuadraticPlacer", TripletsPlacer):
            yield
