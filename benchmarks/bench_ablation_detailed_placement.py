"""Ablation: detailed-placement refinement.

Measures what the greedy relocate/swap pass buys on signal wirelength and
what it costs in CPU; the timed kernel is one refinement pass.
"""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import signal_wirelength
from repro.experiments import format_table
from repro.netlist import generate_circuit, small_profile
from repro.placement import (
    QuadraticPlacer,
    legalize,
    refine_placement,
    region_for_circuit,
)

from conftest import record_artifact

_CIRCUIT = generate_circuit(small_profile(num_cells=300, num_flipflops=40, seed=66))


@pytest.fixture(scope="module")
def placement_setup():
    region = region_for_circuit(_CIRCUIT, DEFAULT_TECHNOLOGY)
    placer = QuadraticPlacer(_CIRCUIT, region)
    legal = legalize(*placer.place(), placer.movable, region)
    positions = dict(placer.fixed_positions)
    positions.update(legal.positions)
    return region, positions


@pytest.fixture(scope="module")
def ablation_rows(placement_setup):
    region, positions = placement_setup
    result = refine_placement(_CIRCUIT, region, positions)
    rows = [
        {
            "stage": "legalized",
            "hpwl_um": result.hpwl_before,
            "moves": 0,
            "swaps": 0,
        },
        {
            "stage": "refined",
            "hpwl_um": result.hpwl_after,
            "moves": result.moves,
            "swaps": result.swaps,
        },
    ]
    record_artifact(
        "Ablation: detailed placement",
        format_table(rows, "Ablation - detailed-placement refinement"),
    )
    return rows


def test_bench_detailed_refinement(benchmark, placement_setup, ablation_rows):
    assert ablation_rows[1]["hpwl_um"] <= ablation_rows[0]["hpwl_um"]
    region, positions = placement_setup

    def refine():
        return refine_placement(_CIRCUIT, region, positions)

    result = benchmark.pedantic(refine, rounds=3, iterations=1)
    assert signal_wirelength(_CIRCUIT, result.positions) == pytest.approx(
        result.hpwl_after
    )
