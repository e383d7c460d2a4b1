"""Per-iteration hot-path guards: STA, placer assembly and legalization.

Times three kernels on the flow's critical path against the reference
implementations kept under ``tests/oracles/`` and fails on regression:

* the vectorized positional timing pass vs a full scalar
  :class:`SequentialTiming` rebuild (must be >= 3x on s5378 and s9234);
* the prefactored Laplacian assembly vs the per-call triplet rebuild of
  ``tests/oracles/placer_ref.py`` for repeated anchored ``place()``
  calls (>= 1.2x);
* the pruned row-walk legalizer vs the full-window scan kept in
  ``tests/oracles/legalize_ref.py`` on the stage-1 global placement
  (identical results, >= 2x faster on s5378 and s9234).

Every measurement is appended to ``BENCH_hotpaths.json`` in the working
directory (the perf-smoke CI job archives it next to ``BENCH_ci.json``),
including an end-to-end comparison with a flow run on the reference
engines (``tests/oracles/flow_ref.py``) that is recorded but not gated
here — the full-flow equivalence itself is pinned by
``tests/core/test_flow_regression.py``.
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import FlowOptions, IntegratedFlow
from repro.geometry import Point
from repro.netlist import PROFILES, generate_named
from repro.placement import (
    PseudoNet,
    QuadraticPlacer,
    legalize,
    region_for_circuit,
)
from repro.timing import SequentialTiming, VectorizedTiming

from oracles.flow_ref import reference_engines
from oracles.legalize_ref import legalize as legalize_ref
from oracles.placer_ref import TripletsPlacer

TECH = DEFAULT_TECHNOLOGY
CIRCUITS = ("s5378", "s9234")
RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def hotpaths_artifact():
    yield
    Path("BENCH_hotpaths.json").write_text(json.dumps(RESULTS, indent=2) + "\n")


def _positions(circuit, seed: int) -> dict[str, Point]:
    rng = random.Random(seed)
    return {
        cell.name: Point(rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0))
        for cell in circuit
    }


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("name", CIRCUITS)
def test_sta_positional_pass_speedup(name):
    """A positional re-analysis must beat a scalar rebuild by >= 3x."""
    circuit = generate_named(name)
    engine = VectorizedTiming(circuit, TECH)  # structural pass paid once here
    engine.analyze(_positions(circuit, seed=0))

    scenarios = [_positions(circuit, seed=s) for s in range(1, 4)]
    it = iter(scenarios * 4)

    scalar_s = _best_of(lambda: SequentialTiming(circuit, next(it), TECH), rounds=3)
    # Every cell moves between calls, so each analyze() is a full
    # positional pass — no dirty-set discount in this measurement.
    vector_s = _best_of(lambda: engine.analyze(next(it)), rounds=3)

    speedup = scalar_s / vector_s
    RESULTS.setdefault("sta_positional", {})[name] = {
        "scalar_rebuild_s": scalar_s,
        "vectorized_pass_s": vector_s,
        "speedup": speedup,
    }
    assert speedup >= 3.0, f"{name}: positional pass only {speedup:.1f}x vs scalar"


@pytest.mark.parametrize("name", CIRCUITS)
def test_prefactored_assembly_speedup(name):
    """Repeated anchored place() calls must profit from the cached base."""
    circuit = generate_named(name)
    region = region_for_circuit(circuit, TECH)
    anchors = _positions(circuit, seed=5)
    anchors = {c.name: anchors[c.name] for c in circuit.standard_cells}
    pseudo = [
        PseudoNet(ff.name, Point(100.0, 100.0), 0.5)
        for ff in circuit.flip_flops[:16]
    ]

    def run(placer_cls: type[QuadraticPlacer]) -> float:
        placer = placer_cls(circuit, region)
        placer.place()  # warm start
        return _best_of(
            lambda: placer.place(
                pseudo_nets=pseudo, stability_anchors=anchors, stability_weight=0.02
            ),
            rounds=3,
        )

    triplets_s = run(TripletsPlacer)
    prefactored_s = run(QuadraticPlacer)
    speedup = triplets_s / prefactored_s
    RESULTS.setdefault("placer_assembly", {})[name] = {
        "triplets_s": triplets_s,
        "prefactored_s": prefactored_s,
        "speedup": speedup,
    }
    assert speedup >= 1.2, f"{name}: prefactored assembly only {speedup:.2f}x"


@pytest.mark.parametrize("name", CIRCUITS)
def test_legalize_speedup(name):
    """The pruned row walk must decide what the full scan does, >= 2x faster."""
    circuit = generate_named(name)
    region = region_for_circuit(circuit, TECH)
    global_positions = QuadraticPlacer(circuit, region).place()

    expected = legalize_ref(global_positions, region)
    got = legalize(global_positions, region)
    assert list(got.positions.items()) == list(expected.positions.items())
    assert got.total_displacement == expected.total_displacement
    assert got.max_displacement == expected.max_displacement

    oracle_s = _best_of(lambda: legalize_ref(global_positions, region), rounds=5)
    walk_s = _best_of(lambda: legalize(global_positions, region), rounds=5)
    speedup = oracle_s / walk_s
    RESULTS.setdefault("legalize", {})[name] = {
        "oracle_scan_s": oracle_s,
        "row_walk_s": walk_s,
        "speedup": speedup,
    }
    assert speedup >= 2.0, f"{name}: row-walk legalizer only {speedup:.2f}x"


def test_flow_end_to_end_recorded():
    """Record (not gate) the whole-flow effect of both engines on s5378."""
    name = "s5378"
    options = FlowOptions(ring_grid_side=PROFILES[name].ring_grid_side)

    def run_flow():
        t0 = time.perf_counter()
        result = IntegratedFlow(generate_named(name), options=options).run()
        return time.perf_counter() - t0, result

    vec_s, vec = run_flow()
    with reference_engines():
        sca_s, sca = run_flow()
    RESULTS["flow_end_to_end"] = {
        name: {
            "scalar_s": sca_s,
            "vectorized_s": vec_s,
            "speedup": sca_s / vec_s,
            "iterations": len(vec.history),
        }
    }
    assert len(vec.history) == len(sca.history)
    assert vec.final.tapping_wirelength == sca.final.tapping_wirelength
