"""Per-net placer weights: default-path bit-identity and validation.

The timing-driven flow up-weights critical nets, but the default path —
no weights, or any mapping whose values are all exactly 1.0 — must emit
the same COO triplet stream as before the feature existed, so the
placements compare with exact ``Point`` equality (no tolerance), under
both the prefactored assembly and the triplet-rebuild oracle, and with
pseudo-nets/stability anchors in play.
Invalid weights (NaN, inf, negative, unknown net) must be rejected up
front with a :class:`PlacementError` naming the offender, never
silently folded into the Laplacian.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.errors import PlacementError
from repro.geometry import Point
from repro.netlist import generate_circuit, small_profile
from repro.placement import (
    PseudoNet,
    QuadraticPlacer,
    region_for_circuit,
)

from oracles.placer_ref import TripletsPlacer, placed

TECH = DEFAULT_TECHNOLOGY

CIRCUIT = generate_circuit(small_profile(num_cells=160, num_flipflops=20, seed=3))
REGION = region_for_circuit(CIRCUIT, TECH)
NET_NAMES = sorted(CIRCUIT.nets)


def assert_identical(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], name  # exact Point equality, no tolerance


#: The production placer and the triplet-rebuild oracle, by assembly.
PLACERS = {"prefactored": QuadraticPlacer, "triplets": TripletsPlacer}


def make_placer(assembly: str, net_weights=None) -> QuadraticPlacer:
    return PLACERS[assembly](CIRCUIT, REGION, net_weights=net_weights)


def anchor_kwargs(seed: int) -> dict:
    """Deterministic pseudo-nets + stability anchors like the flow uses."""
    rng = random.Random(seed)
    bbox = REGION.bbox

    def point() -> Point:
        return Point(
            rng.uniform(bbox.xlo, bbox.xhi), rng.uniform(bbox.ylo, bbox.yhi)
        )

    pseudo = [
        PseudoNet(cell=ff.name, anchor=point(), weight=0.5)
        for ff in CIRCUIT.flip_flops[:6]
    ]
    anchors = {c.name: point() for c in CIRCUIT.standard_cells}
    return dict(
        pseudo_nets=pseudo, stability_anchors=anchors, stability_weight=0.02
    )


class TestAllOnesIsUnweighted:
    """weights == 1.0 everywhere must be bit-identical to no weights."""

    @settings(max_examples=20, deadline=None)
    @given(
        subset=st.sets(st.sampled_from(NET_NAMES), max_size=len(NET_NAMES)),
        assembly=st.sampled_from(["prefactored", "triplets"]),
    )
    def test_all_ones_subset(self, subset, assembly):
        weights = {name: 1.0 for name in subset}
        assert_identical(
            placed(make_placer(assembly, weights)),
            placed(make_placer(assembly)),
        )

    @pytest.mark.parametrize("assembly", ["prefactored", "triplets"])
    def test_all_ones_with_anchors(self, assembly):
        weights = {name: 1.0 for name in NET_NAMES}
        kwargs = anchor_kwargs(seed=17)
        assert_identical(
            placed(make_placer(assembly, weights), **kwargs),
            placed(make_placer(assembly), **kwargs),
        )

    @pytest.mark.parametrize("assembly", ["prefactored", "triplets"])
    def test_set_to_ones_restores_default(self, assembly):
        placer = make_placer(assembly)
        baseline = placed(placer)
        placer.set_net_weights({NET_NAMES[0]: 4.0})
        assert placed(placer) != baseline  # the weight genuinely acts
        placer.set_net_weights({name: 1.0 for name in NET_NAMES})
        assert_identical(placed(placer), baseline)


class TestWeightedBitIdentity:
    """Weighted placements stay identical across assembly modes and
    between construction-time and ``set_net_weights`` paths."""

    WEIGHTS = {name: 3.0 for name in NET_NAMES[::7]}

    def test_prefactored_matches_triplets(self):
        kwargs = anchor_kwargs(seed=23)
        assert_identical(
            placed(make_placer("prefactored", self.WEIGHTS), **kwargs),
            placed(make_placer("triplets", self.WEIGHTS), **kwargs),
        )

    @pytest.mark.parametrize("assembly", ["prefactored", "triplets"])
    def test_set_net_weights_matches_fresh(self, assembly):
        updated = make_placer(assembly)
        updated.set_net_weights(self.WEIGHTS)
        assert updated.net_weights == self.WEIGHTS
        assert_identical(
            placed(updated), placed(make_placer(assembly, self.WEIGHTS))
        )


class TestValidation:
    """Bad weights raise PlacementError naming the offender."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_net_weight(self, bad):
        net = NET_NAMES[0]
        with pytest.raises(PlacementError, match=repr(net)):
            make_placer("prefactored", {net: bad})

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_set_net_weights_rejects(self, bad):
        placer = make_placer("prefactored")
        before = placed(placer)
        with pytest.raises(PlacementError, match=repr(NET_NAMES[1])):
            placer.set_net_weights({NET_NAMES[1]: bad})
        # a rejected update must not corrupt the placer
        assert_identical(placed(placer), before)

    def test_unknown_net(self):
        with pytest.raises(PlacementError, match="no_such_net"):
            make_placer("prefactored", {"no_such_net": 2.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bad_pseudo_net_weight(self, bad):
        # Non-finite weights slip past PseudoNet's own non-negativity
        # check (NaN compares false), so the placer must catch them.
        placer = make_placer("prefactored")
        ff = CIRCUIT.flip_flops[0].name
        pseudo = [PseudoNet(cell=ff, anchor=Point(1.0, 1.0), weight=bad)]
        with pytest.raises(PlacementError, match=repr(ff)):
            placed(placer, pseudo_nets=pseudo)

    def test_negative_pseudo_net_weight_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            PseudoNet(cell="x", anchor=Point(1.0, 1.0), weight=-2.0)

    @pytest.mark.parametrize("bad", [math.nan, -0.01])
    def test_bad_stability_weight(self, bad):
        placer = make_placer("prefactored")
        anchors = {c.name: Point(1.0, 1.0) for c in CIRCUIT.standard_cells}
        with pytest.raises(PlacementError, match="stability anchor weight"):
            placed(placer, stability_anchors=anchors, stability_weight=bad)
