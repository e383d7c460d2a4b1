"""Tests for the Section V network-flow flip-flop assignment."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import assign_min_tapping_cost, network_flow_assignment, tapping_cost_matrix
from repro.core.cost import TappingCostMatrix
from repro.errors import AssignmentError, InfeasibleError
from repro.opt.mincostflow import FORBIDDEN_COST
from repro.rotary import RingArray

from oracles.assignment_ref import assign_via_ssp

TECH = DEFAULT_TECHNOLOGY


def matrix_from(costs: np.ndarray) -> TappingCostMatrix:
    names = tuple(f"ff{i}" for i in range(costs.shape[0]))
    return TappingCostMatrix(ff_names=names, costs=np.asarray(costs, dtype=float))


def brute_force_optimum(costs: np.ndarray, caps: list[int]) -> float:
    """Exhaustive minimum assignment cost for small instances."""
    n, r = costs.shape
    best = np.inf
    for combo in itertools.product(range(r), repeat=n):
        counts = [0] * r
        ok = True
        total = 0.0
        for i, j in enumerate(combo):
            counts[j] += 1
            if counts[j] > caps[j] or costs[i, j] >= FORBIDDEN_COST:
                ok = False
                break
            total += costs[i, j]
        if ok:
            best = min(best, total)
    return best


class TestAssignMinCost:
    def test_simple_optimal(self):
        costs = np.array([[1.0, 5.0], [4.0, 2.0]])
        assign = assign_min_tapping_cost(matrix_from(costs), [2, 2])
        assert list(assign) == [0, 1]

    def test_capacity_binds(self):
        costs = np.array([[1.0, 9.0], [1.0, 9.0], [1.0, 9.0]])
        assign = assign_min_tapping_cost(matrix_from(costs), [2, 2])
        assert sorted(assign) == [0, 0, 1]

    def test_capacity_length_mismatch(self):
        with pytest.raises(AssignmentError):
            assign_min_tapping_cost(matrix_from(np.ones((2, 2))), [1])

    def test_infeasible_capacity(self):
        with pytest.raises(InfeasibleError):
            assign_min_tapping_cost(matrix_from(np.ones((3, 1))), [2])

    def test_ssp_backend_matches_transportation(self):
        rng = np.random.default_rng(0)
        costs = rng.uniform(0, 100, size=(8, 3))
        caps = [3, 3, 3]
        a = assign_min_tapping_cost(matrix_from(costs), caps)
        b = assign_via_ssp(matrix_from(costs), caps)
        cost_a = costs[np.arange(8), a].sum()
        cost_b = costs[np.arange(8), b].sum()
        assert cost_a == pytest.approx(cost_b)

    def test_ssp_duplicate_candidates(self):
        # Regression: a repeated ring index in ``candidates`` used to add
        # parallel arcs whose ``arc_of`` entry was overwritten; the unit
        # of flow could then sit on the shadowed arc and the flip-flop
        # read back as unassigned (AssignmentError from a feasible
        # instance).  Duplicates must be ignored, and the result must
        # match the transportation engine on the same matrix.
        costs = np.array([[1.0, 5.0], [4.0, 2.0], [3.0, 3.0]])
        names = tuple(f"ff{i}" for i in range(3))
        dup = TappingCostMatrix(
            ff_names=names,
            costs=costs,
            candidates=(
                np.array([0, 0, 1], dtype=np.intp),
                np.array([1, 0, 1], dtype=np.intp),
                np.array([0, 1, 0, 1], dtype=np.intp),
            ),
        )
        caps = [2, 2]
        a = assign_via_ssp(dup, caps)
        b = assign_min_tapping_cost(matrix_from(costs), caps)
        cost_a = costs[np.arange(3), a].sum()
        cost_b = costs[np.arange(3), b].sum()
        assert cost_a == pytest.approx(cost_b)
        assert (a >= 0).all()

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_optimal_vs_brute_force(self, data):
        n = data.draw(st.integers(1, 5))
        r = data.draw(st.integers(1, 3))
        costs = np.array(
            [[data.draw(st.integers(0, 20)) for _ in range(r)] for _ in range(n)],
            dtype=float,
        )
        caps = [data.draw(st.integers(1, 3)) for _ in range(r)]
        if sum(caps) < n:
            caps[0] += n - sum(caps)
        assign = assign_min_tapping_cost(matrix_from(costs), caps)
        got = costs[np.arange(n), assign].sum()
        optimum = brute_force_optimum(costs, caps)
        assert got == pytest.approx(optimum)
        ssp = assign_via_ssp(matrix_from(costs), caps)
        assert costs[np.arange(n), ssp].sum() == pytest.approx(optimum)


class TestEndToEnd:
    def test_network_flow_assignment(self, tiny_placed, tiny_circuit):
        region, positions = tiny_placed
        array = RingArray(region.bbox, side=2, period=1000.0)
        ffs = [ff.name for ff in tiny_circuit.flip_flops]
        targets = {ff: (37.0 * k) % 1000.0 for k, ff in enumerate(ffs)}
        matrix = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=3)
        a = network_flow_assignment(matrix, array, positions, targets, TECH)
        assert set(a.ring_of) == set(ffs)
        occupancy = a.ring_occupancy(array)
        caps = array.default_capacities(len(ffs))
        assert (occupancy <= np.array(caps)).all()
        # Tapping solutions satisfy the delay targets (checked in rotary
        # tests); here: total cost equals the sum over chosen arcs.
        total = sum(
            matrix.costs[i, a.ring_of[ff]] for i, ff in enumerate(matrix.ff_names)
        )
        assert a.tapping_wirelength == pytest.approx(total, rel=1e-9)
