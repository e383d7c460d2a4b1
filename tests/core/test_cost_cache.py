"""Tests for the cross-iteration tapping-cost cache and matrix validation."""

import numpy as np
import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import (
    TappingCostCache,
    network_flow_assignment,
    realize_assignment,
    tapping_cost_matrix,
)
from repro.errors import CostMatrixError
from repro.geometry import BBox, Point
from repro.rotary import RingArray

from oracles import cost_ref

TECH = DEFAULT_TECHNOLOGY


@pytest.fixture(scope="module")
def setup():
    array = RingArray(BBox(0, 0, 400, 400), side=2, period=1000.0)
    positions = {
        "ff0": Point(100.0, 100.0),
        "ff1": Point(300.0, 120.0),
        "ff2": Point(150.0, 320.0),
        "ff3": Point(330.0, 300.0),
    }
    targets = {"ff0": 150.0, "ff1": 600.0, "ff2": 900.0, "ff3": 420.0}
    return array, positions, targets


class TestVectorizedBuilder:
    def test_matches_scalar_reference(self, setup):
        array, positions, targets = setup
        for k in (None, 1, 2, 4):
            vec = tapping_cost_matrix(array, positions, targets, TECH, k)
            ref = cost_ref.tapping_cost_matrix(array, positions, targets, TECH, k)
            assert vec.ff_names == ref.ff_names
            assert np.array_equal(vec.costs, ref.costs)

    def test_candidate_columns(self, setup):
        array, positions, targets = setup
        m = tapping_cost_matrix(array, positions, targets, TECH, candidate_rings=2)
        assert len(m.candidates) == m.num_flipflops
        for i, cols in enumerate(m.candidates):
            assert cols.size == 2
            assert np.array_equal(cols, np.flatnonzero(m.finite_mask[i]))


class TestValidation:
    def test_unknown_target_name_raises(self, setup):
        array, positions, targets = setup
        bad = dict(targets)
        bad["phantom_ff"] = 100.0
        with pytest.raises(CostMatrixError, match="phantom_ff"):
            tapping_cost_matrix(array, positions, bad, TECH)

    def test_unknown_target_name_raises_scalar_path(self, setup):
        array, positions, targets = setup
        with pytest.raises(CostMatrixError):
            cost_ref.tapping_cost_matrix(array, positions, {"nope": 1.0}, TECH)

    def test_cache_validates_too(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH)
        with pytest.raises(CostMatrixError):
            cache.matrix(positions, {**targets, "ghost": 0.0})


class TestCache:
    def test_identical_rebuild_is_all_hits(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH, candidate_rings=2)
        m1 = cache.matrix(positions, targets)
        assert (cache.hits, cache.misses) == (0, 4)
        m2 = cache.matrix(positions, targets)
        assert (cache.hits, cache.misses) == (4, 4)
        assert np.array_equal(m1.costs, m2.costs)

    def test_moved_flipflop_invalidates_only_its_row(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH, candidate_rings=2)
        cache.matrix(positions, targets)
        moved = dict(positions)
        moved["ff1"] = Point(301.0, 121.0)
        m = cache.matrix(moved, targets)
        assert cache.misses == 5  # 4 initial + 1 recompute
        assert cache.hits == 3
        fresh = tapping_cost_matrix(array, moved, targets, TECH, candidate_rings=2)
        assert np.array_equal(m.costs, fresh.costs)

    def test_retargeted_flipflop_invalidates_only_its_row(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH, candidate_rings=2)
        cache.matrix(positions, targets)
        retargeted = dict(targets)
        retargeted["ff2"] = 901.0
        m = cache.matrix(positions, retargeted)
        assert (cache.hits, cache.misses) == (3, 5)
        fresh = tapping_cost_matrix(
            array, positions, retargeted, TECH, candidate_rings=2
        )
        assert np.array_equal(m.costs, fresh.costs)

    def test_realize_serves_solutions_from_matrix_build(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH, candidate_rings=2)
        m = cache.matrix(positions, targets)
        ring_of = {name: int(cols[0]) for name, cols in zip(m.ff_names, m.candidates)}
        hits0 = cache.hits
        sols = cache.realize(ring_of, positions, targets)
        assert cache.hits == hits0 + 4  # every solve served from the build
        for i, name in enumerate(m.ff_names):
            assert sols[name].wirelength == pytest.approx(
                m.costs[i, ring_of[name]]
            )

    def test_realize_recomputes_on_changed_target(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH, candidate_rings=2)
        m = cache.matrix(positions, targets)
        ring_of = {name: int(cols[0]) for name, cols in zip(m.ff_names, m.candidates)}
        new_targets = {name: t + 5.0 for name, t in targets.items()}
        misses0 = cache.misses
        sols = cache.realize(ring_of, positions, new_targets)
        assert cache.misses == misses0 + 4
        reference = realize_assignment(
            np.array([ring_of[name] for name in m.ff_names]),
            m,
            array,
            positions,
            new_targets,
            TECH,
        )
        for name in m.ff_names:
            assert sols[name].wirelength == pytest.approx(
                reference.solutions[name].wirelength
            )

    def test_removed_flipflop_is_evicted(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH, candidate_rings=2)
        cache.matrix(positions, targets)
        smaller = {k: v for k, v in targets.items() if k != "ff3"}
        m = cache.matrix(positions, smaller)
        assert m.num_flipflops == 3
        assert "ff3" not in cache._key

    def test_assignment_through_cache_matches_uncached(self, setup):
        array, positions, targets = setup
        cache = TappingCostCache(array, TECH, candidate_rings=4)
        m = cache.matrix(positions, targets)
        capacities = [2] * array.num_rings
        cached = network_flow_assignment(
            m, array, positions, targets, TECH, capacities, cache=cache
        )
        plain = network_flow_assignment(
            m, array, positions, targets, TECH, capacities
        )
        assert cached.ring_of == plain.ring_of
        assert cached.tapping_wirelength == pytest.approx(plain.tapping_wirelength)
