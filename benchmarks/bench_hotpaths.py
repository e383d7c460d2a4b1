"""Per-iteration hot-path guards: STA, placer assembly, legalization and
the array kernels of the Fig. 3 loop.

Times the kernels on the flow's critical path against the reference
implementations kept under ``tests/oracles/`` and fails on regression:

* the vectorized positional timing pass vs a full scalar
  :class:`SequentialTiming` rebuild (must be >= 3x on s5378 and s9234);
* the prefactored Laplacian assembly vs the per-call triplet rebuild of
  ``tests/oracles/placer_ref.py`` for repeated anchored ``place()``
  calls (>= 1.2x);
* the pruned row-walk legalizer vs the full-window scan kept in
  ``tests/oracles/legalize_ref.py`` on the stage-1 global placement
  (identical results, >= 2x faster on s5378 and s9234);
* the ring-attraction, signal-HPWL and worst-pair-slack array kernels
  vs the per-flip-flop and per-pair loops of
  ``tests/oracles/evaluation_ref.py`` and the per-net loop of
  ``repro.core.signal_wirelength``, on the state of a one-iteration
  flow (identical output, >= 5x faster on s5378 and s9234, with the
  inputs already in array form outside the timed region).

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
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import (
    FlowOptions,
    IntegratedFlow,
    ring_attractions,
    signal_wirelength,
)
from repro.geometry import (
    Point,
    hpwl_from_arrays,
    pin_index,
    position_arrays,
    position_dict,
)
from repro.netlist import PROFILES, generate_named
from repro.placement import (
    PseudoNet,
    QuadraticPlacer,
    legalize,
    region_for_circuit,
)
from repro.timing import SequentialTiming, VectorizedTiming, worst_pair_slack

from oracles import evaluation_ref
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
    names = engine.structure.cell_names
    engine.analyze(*position_arrays(names, _positions(circuit, seed=0)))

    scenarios = [_positions(circuit, seed=s) for s in range(1, 4)]
    it = iter(scenarios * 4)
    arrays = iter([position_arrays(names, p) for p in scenarios] * 4)

    scalar_s = _best_of(lambda: SequentialTiming(circuit, next(it), TECH), rounds=3)
    # Every cell moves between calls, so each analyze() is a full
    # positional pass — no dirty-set discount in this measurement.
    vector_s = _best_of(lambda: engine.analyze(*next(arrays)), rounds=3)

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
        pseudo_arrays = placer.pseudo_net_arrays(pseudo)
        anchor_arrays = position_arrays(placer.movable, anchors)
        return _best_of(
            lambda: placer.place(
                pseudo_nets=pseudo_arrays,
                stability_anchors=anchor_arrays,
                stability_weight=0.02,
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
    placer = QuadraticPlacer(circuit, region)
    gx, gy = placer.place()
    global_positions = position_dict(placer.movable, gx, gy)
    names = placer.movable

    expected = legalize_ref(global_positions, region)
    got = legalize(gx, gy, names, region)
    assert list(got.positions.items()) == list(expected.positions.items())
    assert got.total_displacement == expected.total_displacement
    assert got.max_displacement == expected.max_displacement

    oracle_s = _best_of(lambda: legalize_ref(global_positions, region), rounds=5)
    walk_s = _best_of(lambda: legalize(gx, gy, names, region), rounds=5)
    speedup = oracle_s / walk_s
    RESULTS.setdefault("legalize", {})[name] = {
        "oracle_scan_s": oracle_s,
        "row_walk_s": walk_s,
        "speedup": speedup,
    }
    assert speedup >= 2.0, f"{name}: row-walk legalizer only {speedup:.2f}x"


@lru_cache(maxsize=None)
def _flow_state(name: str):
    """Circuit, one-iteration flow result and its timing snapshot."""
    circuit = generate_named(name)
    options = FlowOptions(
        ring_grid_side=PROFILES[name].ring_grid_side, max_iterations=1
    )
    result = IntegratedFlow(circuit, options=options).run()
    names = tuple(cell.name for cell in circuit)
    timing = VectorizedTiming(circuit, TECH).analyze(
        *position_arrays(names, result.positions)
    )
    return circuit, result, timing


def _record_kernel(kernel: str, name: str, oracle, vectorized, rounds: int = 5) -> None:
    oracle_s = _best_of(oracle, rounds=rounds)
    vector_s = _best_of(vectorized, rounds=rounds)
    speedup = oracle_s / vector_s
    RESULTS.setdefault(kernel, {})[name] = {
        "oracle_loop_s": oracle_s,
        "array_kernel_s": vector_s,
        "speedup": speedup,
    }
    assert speedup >= 5.0, f"{name}: {kernel} kernel only {speedup:.1f}x vs its loop"


@pytest.mark.parametrize("name", CIRCUITS)
def test_ring_attractions_kernel(name):
    """Array ring attractions: the oracle loop's floats, >= 5x faster."""
    circuit, result, _ = _flow_state(name)
    ffs = [ff.name for ff in circuit.flip_flops]
    ring_of = {ff: result.assignment.ring_of[ff] for ff in ffs}
    positions = result.positions
    targets = result.schedule.targets
    rid = np.array([ring_of[ff] for ff in ffs])
    px, py = position_arrays(ffs, positions)
    tg = np.array([targets[ff] for ff in ffs])

    def vectorized():
        return ring_attractions(rid, px, py, tg, result.array, TECH)

    def oracle():
        return evaluation_ref.ring_attractions(
            ring_of, positions, targets, result.array, TECH
        )

    got, expected = vectorized(), oracle()
    assert got.distance.tolist() == [expected[ff].distance for ff in ffs]
    assert got.delay_at_point.tolist() == [expected[ff].delay_at_point for ff in ffs]
    assert got.stub_delay.tolist() == [expected[ff].stub_delay for ff in ffs]
    _record_kernel("ring_attractions", name, oracle, vectorized)


@pytest.mark.parametrize("name", CIRCUITS)
def test_signal_hpwl_kernel(name):
    """Array HPWL over the CSR pin index: the oracle's float, >= 5x faster."""
    circuit, result, _ = _flow_state(name)
    names = tuple(cell.name for cell in circuit)
    x, y = position_arrays(names, result.positions)
    index = {name: i for i, name in enumerate(names)}
    ptr, pins = pin_index(
        [index[m] for m in net.members] for net in circuit.nets.values()
    )

    def vectorized():
        return hpwl_from_arrays(x, y, ptr, pins)

    def oracle():
        return signal_wirelength(circuit, result.positions)

    assert vectorized() == oracle() == result.final.signal_wirelength
    _record_kernel("signal_hpwl", name, oracle, vectorized)


@pytest.mark.parametrize("name", CIRCUITS)
def test_worst_pair_slack_kernel(name):
    """Array worst pair slack: the oracle loop's float, >= 5x faster."""
    _, result, timing = _flow_state(name)
    period = result.array.period
    schedule = result.schedule.targets
    targets = timing.schedule_array(schedule)
    pairs = timing.pairs

    def vectorized():
        return worst_pair_slack(timing, targets, period, TECH)

    def oracle():
        return evaluation_ref.worst_pair_slack(pairs, schedule, period, TECH)

    assert vectorized() == oracle() == result.final.worst_slack
    _record_kernel("worst_pair_slack", name, oracle, vectorized)


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
