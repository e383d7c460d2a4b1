"""Regression bands and determinism for the integrated flow on s9234.

These tests pin the *shape* of the headline results (the reproduction
target) without over-fitting exact floats: if a change pushes s9234's
tapping improvement out of the paper's band or breaks determinism, these
fail.
"""

import pytest

from repro import FlowOptions, IntegratedFlow
from repro.netlist import PROFILES, generate_named

from oracles.flow_ref import reference_engines


@pytest.fixture(scope="module")
def s9234_result():
    circuit = generate_named("s9234")
    options = FlowOptions(ring_grid_side=PROFILES["s9234"].ring_grid_side)
    return IntegratedFlow(circuit, options=options).run()


class TestS9234Bands:
    def test_timing_closes_at_1ghz(self, s9234_result):
        assert s9234_result.slack_available > 0.0

    def test_tapping_improvement_in_paper_band(self, s9234_result):
        """Paper: 34.5-52.3% across circuits; s9234 is the best at 52.3%."""
        assert 0.35 <= s9234_result.tapping_improvement <= 0.65

    def test_signal_penalty_small(self, s9234_result):
        assert abs(s9234_result.signal_penalty) < 0.05

    def test_total_wirelength_improves(self, s9234_result):
        assert s9234_result.total_improvement > 0.0

    def test_converges_within_five_iterations(self, s9234_result):
        assert len(s9234_result.history) <= 5

    def test_afd_below_clock_tree_path_length(self, s9234_result):
        """Table II/III comparison: AFD far below the conventional PL."""
        from repro.clocktree import path_length_stats, synthesize_clock_tree
        from repro.constants import DEFAULT_TECHNOLOGY

        circuit = generate_named("s9234")
        ffpos = {
            ff.name: s9234_result.positions[ff.name]
            for ff in circuit.flip_flops
        }
        stats = path_length_stats(synthesize_clock_tree(ffpos, DEFAULT_TECHNOLOGY))
        assert s9234_result.final.average_flipflop_distance < 0.25 * stats.average

    def test_runtime_split_reported(self, s9234_result):
        """As in the paper, the placer dominates or is comparable."""
        assert s9234_result.seconds_placer > 0.2 * s9234_result.seconds_algorithm


class TestDeterminism:
    def test_flow_is_deterministic(self):
        circuit = generate_named("s5378")
        options = FlowOptions(ring_grid_side=5, max_iterations=2)
        a = IntegratedFlow(circuit, options=options).run()
        b = IntegratedFlow(generate_named("s5378"), options=options).run()
        assert a.final.tapping_wirelength == pytest.approx(
            b.final.tapping_wirelength
        )
        assert a.final.signal_wirelength == pytest.approx(
            b.final.signal_wirelength
        )
        assert a.assignment.ring_of == b.assignment.ring_of


class TestEngineEquivalence:
    """The vectorized STA engine and prefactored placer assembly are
    drop-in replacements for the scalar STA and triplet rebuild kept in
    ``oracles``: the full flow must make *identical* decisions
    (iteration count, tapping cost, schedule, positions) either way."""

    def test_vectorized_matches_scalar_flow(self):
        options = FlowOptions(ring_grid_side=PROFILES["s9234"].ring_grid_side)
        fast = IntegratedFlow(generate_named("s9234"), options=options).run()
        with reference_engines():
            slow = IntegratedFlow(generate_named("s9234"), options=options).run()
        assert len(fast.history) == len(slow.history)
        assert fast.final.tapping_wirelength == slow.final.tapping_wirelength
        assert fast.final.signal_wirelength == slow.final.signal_wirelength
        assert fast.schedule.targets == slow.schedule.targets
        assert fast.positions == slow.positions
