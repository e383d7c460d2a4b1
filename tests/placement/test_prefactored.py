"""Bit-identity of the prefactored Laplacian assembly vs triplet rebuilds.

The placer caches the spring/star/epsilon base triplets at construction
and splices per-call anchors on top; because the final COO triplet
stream is element-for-element identical to what the per-call rebuild of
``oracles.placer_ref`` produces, scipy's duplicate folding and the CG
solve see bit-identical inputs and the placements must match *exactly*
(``Point`` equality, not approx).

The issue text names s27/s344 as exercise circuits; the repo bundles
only the Table II profiles (s9234..s35932), so these tests use the
synthetic ``small_profile`` generator at comparable sizes instead.
"""

import random

from repro.constants import DEFAULT_TECHNOLOGY
from repro.geometry import Point
from repro.netlist import generate_circuit, small_profile
from repro.placement import (
    IncrementalOptions,
    PseudoNet,
    QuadraticPlacer,
    incremental_place,
    region_for_circuit,
)

from oracles.placer_ref import TripletsPlacer, placed

TECH = DEFAULT_TECHNOLOGY


def make_placers(circuit):
    region = region_for_circuit(circuit, TECH)
    pre = QuadraticPlacer(circuit, region)
    tri = TripletsPlacer(circuit, region)
    return region, pre, tri


def assert_identical(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], name  # exact Point equality, no tolerance


class TestAssemblyBitIdentity:
    def test_plain_place(self):
        circuit = generate_circuit(
            small_profile(num_cells=160, num_flipflops=20, seed=2)
        )
        _, pre, tri = make_placers(circuit)
        assert_identical(placed(pre), placed(tri))

    def test_with_pseudo_nets_and_stability_anchors(self):
        circuit = generate_circuit(
            small_profile(num_cells=160, num_flipflops=20, seed=4)
        )
        region, pre, tri = make_placers(circuit)
        rng = random.Random(9)
        ffs = [ff.name for ff in circuit.flip_flops]
        pseudo = [
            PseudoNet(
                cell=name,
                anchor=Point(
                    rng.uniform(region.bbox.xlo, region.bbox.xhi),
                    rng.uniform(region.bbox.ylo, region.bbox.yhi),
                ),
                weight=0.5,
            )
            for name in ffs[:8]
        ]
        anchors = {
            c.name: Point(
                rng.uniform(region.bbox.xlo, region.bbox.xhi),
                rng.uniform(region.bbox.ylo, region.bbox.yhi),
            )
            for c in circuit.standard_cells
        }
        kwargs = dict(
            pseudo_nets=pseudo, stability_anchors=anchors, stability_weight=0.02
        )
        assert_identical(placed(pre, **kwargs), placed(tri, **kwargs))

    def test_repeated_calls_reuse_base(self):
        """Back-to-back place() calls (warm-started) stay identical too."""
        circuit = generate_circuit(
            small_profile(num_cells=160, num_flipflops=20, seed=6)
        )
        _, pre, tri = make_placers(circuit)
        first_pre, first_tri = placed(pre), placed(tri)
        assert_identical(first_pre, first_tri)
        ff0 = circuit.flip_flops[0].name
        pseudo = [PseudoNet(cell=ff0, anchor=Point(5.0, 5.0), weight=0.7)]
        assert_identical(
            placed(
                pre,
                pseudo_nets=pseudo,
                stability_anchors=first_pre,
                stability_weight=0.02,
            ),
            placed(
                tri,
                pseudo_nets=pseudo,
                stability_anchors=first_tri,
                stability_weight=0.02,
            ),
        )


class TestIncrementalPlacerReuse:
    def test_passing_placer_matches_fresh_construction(self):
        circuit = generate_circuit(
            small_profile(num_cells=160, num_flipflops=20, seed=8)
        )
        region = region_for_circuit(circuit, TECH)
        placer = QuadraticPlacer(circuit, region)
        previous = placer.place()
        pseudo = placer.pseudo_net_arrays(
            [
                PseudoNet(
                    cell=circuit.flip_flops[0].name,
                    anchor=Point(10.0, 10.0),
                    weight=0.5,
                )
            ]
        )
        opts = IncrementalOptions()
        reused = incremental_place(placer, previous, pseudo, opts)
        fresh = incremental_place(
            QuadraticPlacer(circuit, region), previous, pseudo, opts
        )
        assert_identical(reused.positions, fresh.positions)
