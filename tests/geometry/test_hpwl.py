"""Tests for HPWL wirelength estimation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    Point,
    hpwl_by_net,
    hpwl_from_arrays,
    net_hpwl,
    pin_index,
    total_hpwl,
)

coords = st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False)


class TestNetHpwl:
    def test_two_pin(self):
        assert net_hpwl([Point(0, 0), Point(3, 4)]) == 7.0

    def test_single_pin_is_zero(self):
        assert net_hpwl([Point(5, 5)]) == 0.0

    def test_empty_is_zero(self):
        assert net_hpwl([]) == 0.0

    def test_multi_pin_is_bbox(self):
        pins = [Point(0, 0), Point(2, 7), Point(5, 3)]
        assert net_hpwl(pins) == 5 + 7

    @given(st.lists(st.tuples(coords, coords), min_size=2, max_size=12))
    def test_hpwl_lower_bounds_pairwise(self, raw):
        """HPWL of a net is at least the distance of its farthest pair / 1."""
        pins = [Point(x, y) for x, y in raw]
        value = net_hpwl(pins)
        worst = max(a.manhattan(b) for a in pins for b in pins)
        assert value >= worst - 1e-6  # bbox half-perimeter >= any pair's L1

    @given(st.lists(st.tuples(coords, coords), min_size=2, max_size=12))
    def test_translation_invariance(self, raw):
        pins = [Point(x, y) for x, y in raw]
        moved = [p.translated(13.5, -7.25) for p in pins]
        assert net_hpwl(moved) == pytest.approx(net_hpwl(pins), rel=1e-9, abs=1e-6)


class TestAggregates:
    def test_total_hpwl(self):
        nets = [[Point(0, 0), Point(1, 1)], [Point(0, 0), Point(2, 0)]]
        assert total_hpwl(nets) == 4.0

    def test_hpwl_from_arrays_matches_pointwise(self):
        x = np.array([0.0, 3.0, 1.0, 5.0])
        y = np.array([0.0, 4.0, 1.0, 0.0])
        members = [[0, 1], [2, 3], [0, 1, 2, 3]]
        expected = 7.0 + 5.0 + (5.0 + 4.0)
        assert hpwl_from_arrays(x, y, *pin_index(members)) == expected

    def test_hpwl_from_arrays_skips_singletons(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        assert hpwl_from_arrays(x, y, *pin_index([[0]])) == 0.0

    def test_hpwl_by_net_ignores_missing(self):
        positions = {"a": Point(0, 0), "b": Point(1, 2)}
        nets = {"n1": ["a", "b", "ghost"], "n2": ["ghost"]}
        out = hpwl_by_net(positions, nets)
        assert out["n1"] == 3.0
        assert out["n2"] == 0.0
