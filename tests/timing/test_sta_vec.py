"""Equivalence tests: vectorized timing engine vs the scalar reference.

The vectorized engine (:class:`repro.timing.VectorizedTiming`) is a
drop-in replacement for rebuilding :class:`SequentialTiming` at new
positions, so these tests hold it to the strictest possible standard:
identical pair *keys in identical insertion order* and delay bounds
within 1e-9 ps (empirically bit-identical) on every bundled Table II
circuit, on random generated circuits, and through the dirty-set
incremental fast path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.errors import CombinationalCycleError, TimingError
from repro.geometry import Point
from repro.netlist import (
    PROFILE_ORDER,
    CellKind,
    Circuit,
    generate_circuit,
    generate_named,
    small_profile,
)
from repro.timing import (
    SequentialTiming,
    TimingSnapshot,
    VectorizedTiming,
    get_structure,
)

TECH = DEFAULT_TECHNOLOGY
TOL = 1e-9


def random_positions(circuit: Circuit, seed: int) -> dict[str, Point]:
    rng = random.Random(seed)
    return {
        cell.name: Point(rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0))
        for cell in circuit
    }


def assert_equivalent(scalar: SequentialTiming, snap: TimingSnapshot) -> None:
    """Same pair keys, same *order*, same bounds to within TOL."""
    assert list(snap.pairs.keys()) == list(scalar.pairs.keys())
    for key, ref in scalar.pairs.items():
        got = snap.pairs[key]
        assert got.d_min == pytest.approx(ref.d_min, abs=TOL)
        assert got.d_max == pytest.approx(ref.d_max, abs=TOL)


class TestBundledCircuits:
    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_matches_scalar_on_bundled(self, name):
        circuit = generate_named(name)
        positions = random_positions(circuit, seed=hash(name) & 0xFFFF)
        scalar = SequentialTiming(circuit, positions, TECH)
        snap = VectorizedTiming(circuit, TECH).analyze(positions)
        assert_equivalent(scalar, snap)

    def test_matches_scalar_at_origin(self):
        circuit = generate_named("s9234")
        scalar = SequentialTiming(circuit, {}, TECH)
        snap = VectorizedTiming(circuit, TECH).analyze({})
        assert_equivalent(scalar, snap)


class TestSnapshotApi:
    def test_bounds_and_max_delay(self):
        circuit = generate_named("s5378")
        positions = random_positions(circuit, seed=1)
        scalar = SequentialTiming(circuit, positions, TECH)
        snap = VectorizedTiming(circuit, TECH).analyze(positions)
        key = next(iter(scalar.pairs))
        assert snap.bounds(*key).d_max == pytest.approx(
            scalar.bounds(*key).d_max, abs=TOL
        )
        assert snap.max_delay == pytest.approx(scalar.max_delay, abs=TOL)

    def test_missing_pair_raises_timing_error(self):
        circuit = generate_named("s5378")
        snap = VectorizedTiming(circuit, TECH).analyze({})
        with pytest.raises(TimingError, match="not sequentially adjacent"):
            snap.bounds("no_such_ff", "nor_this_one")


class TestDirtySetIncremental:
    def test_incremental_matches_fresh(self):
        """Moving a handful of cells must match a from-scratch analysis."""
        circuit = generate_named("s5378")
        engine = VectorizedTiming(circuit, TECH)
        positions = random_positions(circuit, seed=7)
        engine.analyze(positions)

        rng = random.Random(8)
        moved = dict(positions)
        for name in rng.sample(sorted(positions), 25):
            moved[name] = Point(rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0))
        incremental = engine.analyze(moved)
        fresh = VectorizedTiming(circuit, TECH).analyze(moved)
        scalar = SequentialTiming(circuit, moved, TECH)
        assert_equivalent(scalar, incremental)
        assert_equivalent(scalar, fresh)

    def test_single_axis_moves_mark_cells_dirty(self):
        """A cell that moves along one axis only must re-propagate too."""
        circuit = generate_named("s5378")
        engine = VectorizedTiming(circuit, TECH)
        positions = random_positions(circuit, seed=5)
        engine.analyze(positions)
        rng = random.Random(6)
        for axis in ("x", "y"):
            for name in rng.sample(sorted(positions), 10):
                p, v = positions[name], rng.uniform(0.0, 4000.0)
                positions[name] = Point(v, p.y) if axis == "x" else Point(p.x, v)
            snap = engine.analyze(positions)
            assert_equivalent(SequentialTiming(circuit, positions, TECH), snap)

    def test_no_movement_reuses_snapshot(self):
        circuit = generate_named("s5378")
        engine = VectorizedTiming(circuit, TECH)
        positions = random_positions(circuit, seed=3)
        first = engine.analyze(positions)
        second = engine.analyze(dict(positions))
        assert second is first

    def test_epsilon_zero_is_exact_over_many_passes(self):
        """Reference-position drift must not accumulate error at eps=0."""
        circuit = generate_named("s9234")
        engine = VectorizedTiming(circuit, TECH)
        positions = random_positions(circuit, seed=11)
        rng = random.Random(12)
        for _ in range(5):
            for name in rng.sample(sorted(positions), 10):
                positions[name] = Point(
                    rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0)
                )
            snap = engine.analyze(positions)
        scalar = SequentialTiming(circuit, positions, TECH)
        assert_equivalent(scalar, snap)


class TestStructureCache:
    def test_structure_shared_between_engines(self):
        circuit = generate_named("s9234")
        a = VectorizedTiming(circuit, TECH)
        b = VectorizedTiming(circuit, TECH)
        assert a.structure is b.structure
        assert get_structure(circuit, TECH) is a.structure

    def test_distinct_circuits_get_distinct_structures(self):
        a = generate_named("s9234")
        b = generate_named("s5378")
        assert get_structure(a, TECH) is not get_structure(b, TECH)


class TestErrorParity:
    def test_combinational_cycle_raises_like_scalar(self):
        c = Circuit("cyc")
        c.add_input("pi")
        c.add_gate("g1", CellKind.AND, ("pi", "g2"))
        c.add_gate("g2", CellKind.NOT, ("g1",))
        c.add_output("g2")
        c.validate()
        with pytest.raises(CombinationalCycleError):
            SequentialTiming(c, {}, TECH)
        with pytest.raises(CombinationalCycleError):
            VectorizedTiming(c, TECH)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_random_circuits_and_positions(seed):
    """Scalar/vectorized agreement on generated circuits at random spots."""
    circuit = generate_circuit(
        small_profile(num_cells=150, num_flipflops=20, seed=seed)
    )
    positions = random_positions(circuit, seed=seed ^ 0x5A5A)
    scalar = SequentialTiming(circuit, positions, TECH)
    snap = VectorizedTiming(circuit, TECH).analyze(positions)
    assert_equivalent(scalar, snap)
