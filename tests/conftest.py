"""Shared fixtures for the test suite.

Expensive artifacts (generated circuits, placements, timing) are
session-scoped; tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro.constants import DEFAULT_TECHNOLOGY, Technology
from repro.geometry import Point
from repro.netlist import (
    S27_BENCH,
    Circuit,
    generate_circuit,
    parse_bench_text,
    small_profile,
)
from repro.placement import QuadraticPlacer, legalize, region_for_circuit
from repro.rotary import RingArray
from repro.timing import SequentialTiming


@pytest.fixture(scope="session")
def tech() -> Technology:
    return DEFAULT_TECHNOLOGY


@pytest.fixture(scope="session")
def s27() -> Circuit:
    return parse_bench_text(S27_BENCH, "s27")


@pytest.fixture(scope="session")
def tiny_circuit() -> Circuit:
    """A deterministic 160-cell circuit used across integration tests."""
    return generate_circuit(small_profile(num_cells=160, num_flipflops=24, seed=11))


@pytest.fixture(scope="session")
def tiny_placed(tiny_circuit, tech):
    """(region, positions) for the tiny circuit, legalized."""
    region = region_for_circuit(tiny_circuit, tech)
    placer = QuadraticPlacer(tiny_circuit, region)
    legal = legalize(*placer.place(), placer.movable, region)
    positions = dict(placer.fixed_positions)
    positions.update(legal.positions)
    return region, positions


@pytest.fixture(scope="session")
def tiny_timing(tiny_circuit, tiny_placed, tech) -> SequentialTiming:
    _, positions = tiny_placed
    return SequentialTiming(tiny_circuit, positions, tech)


@pytest.fixture(scope="session")
def small_array(tiny_placed) -> RingArray:
    region, _ = tiny_placed
    return RingArray(region.bbox, side=2, period=1000.0)


@pytest.fixture()
def origin() -> Point:
    return Point(0.0, 0.0)
