"""Fig. 3: the methodology flow's convergence behaviour.

Timed kernels: one stage-6 incremental placement (the loop's most
expensive stage, per the paper's Table IV CPU split) and the stage-3
cost-matrix build.  The cost-matrix benchmark compares the vectorized
builder against the scalar reference kept in
``tests/oracles/cost_ref.py`` at the scale of the largest bundled
circuit (s35932) and fails unless the vectorized path is at least 3x
faster; the convergence artifact additionally proves the cross-iteration
cache records hits from iteration 1 onwards.
"""

import time

import numpy as np
import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import FlowOptions, IntegratedFlow, tapping_cost_matrix
from repro.experiments import fig3_flow_convergence, format_table
from repro.geometry import BBox, Point
from repro.netlist import PROFILES, generate_named
from repro.obs import NULL_COLLECTOR
from repro.placement import (
    IncrementalOptions,
    PseudoNet,
    incremental_place,
    region_for_circuit,
)
from repro.rotary import RingArray

from conftest import record_artifact
from oracles import cost_ref


@pytest.fixture(scope="module")
def fig3_artifact(suite, s9234_experiment):
    rows = fig3_flow_convergence(s9234_experiment.flow)
    record_artifact(
        "Fig. 3",
        format_table(
            rows,
            f"Fig. 3 - flow convergence on {s9234_experiment.name} "
            "(iteration 0 = base case)",
        ),
    )
    return rows


def test_bench_incremental_placement(benchmark, fig3_artifact, suite, s9234_experiment):
    assert fig3_artifact[-1]["tapping_wl_um"] <= fig3_artifact[0]["tapping_wl_um"]
    exp = s9234_experiment
    region = region_for_circuit(exp.circuit, suite.tech, suite.options.utilization)
    pseudo = [
        PseudoNet(ff, sol.point, suite.options.pseudo_net_weight)
        for ff, sol in exp.flow.assignment.solutions.items()
    ]
    movable = {c.name for c in exp.circuit.standard_cells}
    previous = {n: p for n, p in exp.flow.positions.items() if n in movable}

    def replace_once():
        return incremental_place(
            exp.circuit,
            region,
            previous,
            pseudo,
            IncrementalOptions(
                stability_weight=suite.options.stability_weight,
                pseudo_net_weight=suite.options.pseudo_net_weight,
            ),
        )

    result = benchmark.pedantic(replace_once, rounds=3, iterations=1)
    assert len(result.positions) == len(movable)


def test_zero_error_findings_on_converged_run(fig3_artifact):
    """The suite flows run with check_invariants=True, so every iteration
    row carries the static checker's finding counts; a converged run must
    report zero error-severity findings on every iteration."""
    iterated = [row for row in fig3_artifact if row["iteration"] >= 1.0]
    assert iterated
    for row in iterated:
        assert row["error_findings"] == 0.0


def test_cost_cache_hits_after_first_iteration(fig3_artifact):
    """The cross-iteration cost cache must actually fire: every recorded
    iteration serves at least the assignment realization from cached
    solutions, so hits > 0 from iteration 1 onwards."""
    iterated = [row for row in fig3_artifact if row["iteration"] >= 1.0]
    assert iterated
    for row in iterated:
        assert row["cache_hits"] > 0.0
        assert row["cache_misses"] > 0.0


def test_bench_cost_matrix_phase_speedup(benchmark):
    """Stage-3 cost-matrix build at the scale of the largest bundled
    circuit (s35932: 1728 flip-flops, 7x7 ring grid).

    Perf guard for the tentpole: the vectorized builder must be at least
    3x faster than the scalar reference on identical inputs, and both
    must produce the same matrix bit-for-bit.
    """
    profile = PROFILES["s35932"]
    tech = DEFAULT_TECHNOLOGY
    rng = np.random.default_rng(profile.num_flipflops)
    die = BBox(0.0, 0.0, 4000.0, 4000.0)
    array = RingArray(die, profile.ring_grid_side, period=1000.0)
    positions = {
        f"ff{i:04d}": Point(float(x), float(y))
        for i, (x, y) in enumerate(
            zip(
                rng.uniform(0.0, 4000.0, profile.num_flipflops),
                rng.uniform(0.0, 4000.0, profile.num_flipflops),
            )
        )
    }
    targets = {
        name: float(t)
        for name, t in zip(positions, rng.uniform(0.0, 1000.0, len(positions)))
    }

    def build_vectorized():
        return tapping_cost_matrix(array, positions, targets, tech, 8)

    def build_scalar():
        return cost_ref.tapping_cost_matrix(array, positions, targets, tech, 8)

    build_vectorized()  # touch the kernel's working set before timing
    matrix = benchmark.pedantic(build_vectorized, rounds=3, iterations=1)
    assert np.array_equal(matrix.costs, build_scalar().costs)

    t_vec = min(_timed(build_vectorized) for _ in range(3))
    t_scalar = min(_timed(build_scalar) for _ in range(2))
    speedup = t_scalar / t_vec
    record_artifact(
        "Cost-matrix phase",
        format_table(
            [
                {
                    "flip_flops": float(profile.num_flipflops),
                    "rings": float(array.num_rings),
                    "scalar_ms": t_scalar * 1e3,
                    "vectorized_ms": t_vec * 1e3,
                    "speedup": speedup,
                }
            ],
            "Cost-matrix build, scalar vs vectorized (s35932 scale)",
        ),
    )
    assert speedup >= 3.0, (
        f"cost-matrix phase speedup {speedup:.2f}x below the 3x floor "
        f"({t_scalar * 1e3:.0f} ms scalar vs {t_vec * 1e3:.0f} ms vectorized)"
    )


def test_tracing_disabled_overhead_under_two_percent():
    """Observability guard: the instrumentation threaded through the flow
    must be free when tracing is off.

    The disabled path routes every span/counter/gauge call through the
    shared no-op ``NULL_COLLECTOR``, so its total cost is (events emitted
    by a traced run) x (per-call cost of the no-op collector).  Both
    factors are measured here — the projected overhead must stay under
    2% of the untraced flow's wall-clock.  This test runs s5378
    regardless of ``REPRO_BENCH_CIRCUITS`` so the guard is stable.
    """
    circuit = generate_named("s5378")
    options = FlowOptions(
        ring_grid_side=PROFILES["s5378"].ring_grid_side, max_iterations=2
    )

    def run(opts: FlowOptions):
        return IntegratedFlow(circuit, options=opts).run()

    run(options)  # warm caches before timing
    t_flow = min(_timed(lambda: run(options)) for _ in range(2))
    traced = run(options.replace(trace=True))
    num_events = traced.trace.num_events
    assert num_events > 0

    # Per-call cost of the disabled path: each loop pass issues one span
    # enter/exit pair plus one counter bump = 3 instrumentation events.
    loops = 200_000

    def hammer():
        for _ in range(loops):
            with NULL_COLLECTOR.span("stage", iteration=1):
                NULL_COLLECTOR.count("events")

    per_event = min(_timed(hammer) for _ in range(3)) / (3 * loops)

    projected = num_events * per_event
    overhead = projected / t_flow
    record_artifact(
        "No-op tracing overhead",
        format_table(
            [
                {
                    "flow_ms": t_flow * 1e3,
                    "events": float(num_events),
                    "ns_per_event": per_event * 1e9,
                    "projected_us": projected * 1e6,
                    "overhead_pct": overhead * 100.0,
                }
            ],
            "Tracing-disabled overhead projection (s5378, 2 iterations)",
        ),
    )
    assert overhead < 0.02, (
        f"no-op instrumentation projected at {overhead:.2%} of the "
        f"untraced flow ({num_events} events x {per_event * 1e9:.0f} ns "
        f"vs {t_flow * 1e3:.0f} ms flow)"
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
