"""Tests for tapping-cost matrices and the evaluation metrics."""

import numpy as np
import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import (
    Assignment,
    realize_assignment,
    signal_wirelength,
    tapping_cost_matrix,
    wirelength_capacitance_product,
)
from repro.geometry import BBox, Point
from repro.opt.mincostflow import FORBIDDEN_COST
from repro.rotary import RingArray, best_tapping

TECH = DEFAULT_TECHNOLOGY


@pytest.fixture(scope="module")
def setup():
    array = RingArray(BBox(0, 0, 400, 400), side=2, period=1000.0)
    positions = {
        "ff0": Point(100.0, 100.0),
        "ff1": Point(300.0, 120.0),
        "ff2": Point(150.0, 320.0),
    }
    targets = {"ff0": 150.0, "ff1": 600.0, "ff2": 900.0}
    return array, positions, targets


class TestCostMatrix:
    def test_shape_and_names(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=None)
        assert m.costs.shape == (3, 4)
        assert m.ff_names == ("ff0", "ff1", "ff2")
        assert m.num_flipflops == 3 and m.num_rings == 4

    def test_full_matrix_matches_best_tapping(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=None)
        for i, ff in enumerate(m.ff_names):
            for ring in array:
                sol = best_tapping(ring, positions[ff], targets[ff], TECH)
                assert m.costs[i, ring.ring_id] == pytest.approx(sol.wirelength)

    def test_pruning_marks_far_rings(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=1)
        finite_per_row = (m.costs < FORBIDDEN_COST).sum(axis=1)
        assert (finite_per_row == 1).all()

    def test_capacitance_matrix(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=2)
        cap = m.capacitance_matrix(TECH)
        finite = m.costs < FORBIDDEN_COST
        assert np.allclose(
            cap[finite],
            m.costs[finite] * TECH.unit_capacitance + TECH.flipflop_input_cap,
        )
        assert (cap[~finite] >= FORBIDDEN_COST).all()


class TestAssignment:
    def test_realize_assignment(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=None)
        assign = np.array([0, 1, 2])
        a = realize_assignment(assign, m, array, positions, targets, TECH)
        assert a.ring_of == {"ff0": 0, "ff1": 1, "ff2": 2}
        assert a.tapping_wirelength == pytest.approx(
            sum(s.wirelength for s in a.solutions.values())
        )
        assert a.average_flipflop_distance == pytest.approx(
            a.tapping_wirelength / 3.0
        )

    def test_ring_loads_and_max_cap(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=None)
        a = realize_assignment(np.array([0, 0, 1]), m, array, positions, targets, TECH)
        loads = a.ring_loads(array, TECH)
        assert loads.shape == (4,)
        assert loads[2] == 0.0 and loads[3] == 0.0
        assert loads[0] > loads[1] > 0.0  # two flip-flops vs one
        assert a.max_load_capacitance(array, TECH) == pytest.approx(loads[0])

    def test_ring_occupancy(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=None)
        a = realize_assignment(np.array([1, 1, 1]), m, array, positions, targets, TECH)
        assert list(a.ring_occupancy(array)) == [0, 3, 0, 0]

    def test_tapping_wirelength_is_a_sequential_fold(self):
        """Solution order, left to right, on every interpreter: the
        built-in ``sum`` is compensated from Python 3.12 on and would read
        1.0 here."""
        from types import SimpleNamespace

        wirelengths = {"a": 1e16, "b": 1.0, "c": -1e16}
        a = Assignment(
            ff_names=tuple(wirelengths),
            ring_of={name: 0 for name in wirelengths},
            solutions={
                name: SimpleNamespace(wirelength=w)
                for name, w in wirelengths.items()
            },
        )
        assert a.tapping_wirelength == 0.0

    def test_empty_assignment_afd(self):
        a = Assignment(ff_names=(), ring_of={}, solutions={})
        assert a.average_flipflop_distance == 0.0
        assert a.tapping_wirelength == 0.0


class TestMetrics:
    def test_signal_wirelength(self, s27):
        positions = {cell.name: Point(0.0, 0.0) for cell in s27}
        assert signal_wirelength(s27, positions) == 0.0
        positions["G14"] = Point(10.0, 5.0)
        assert signal_wirelength(s27, positions) > 0.0

    def test_wcp_units(self):
        # 1000 um * 500 fF = 1000 * 0.5 pF = 500 um*pF
        assert wirelength_capacitance_product(1000.0, 500.0) == pytest.approx(500.0)
