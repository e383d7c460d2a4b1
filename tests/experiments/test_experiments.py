"""Tests for the experiment suite, table generators, and figure data."""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.experiments import (
    ExperimentSuite,
    fig1_array_equal_phase_points,
    fig1_ring_phases,
    fig2_tapping_curve,
    fig3_flow_convergence,
    fig4_network_structure,
    fig5_greedy_rounding,
    format_table,
    table1_integrality_gap,
    table2_test_cases,
    table3_base_case,
    table4_network_flow,
    table5_load_capacitance,
    table6_power,
    table7_wcp,
)
from repro.geometry import BBox, Point
from repro.rotary import RingArray, RotaryRing

TECH = DEFAULT_TECHNOLOGY


@pytest.fixture(scope="module")
def suite() -> ExperimentSuite:
    """A seconds-scale suite over two small synthetic circuits."""
    return ExperimentSuite(circuits=["tinyA", "tinyB"])


class TestSuite:
    def test_run_caches(self, suite):
        a = suite.run("tinyA")
        b = suite.run("tinyA")
        assert a is b

    def test_experiment_contents(self, suite):
        exp = suite.run("tinyA")
        assert exp.name == "tinyA"
        assert exp.flow.final.tapping_wirelength <= exp.flow.base.tapping_wirelength
        assert exp.ilp.ilp_stats is not None
        assert exp.clock_tree_paths.num_sinks == len(exp.circuit.flip_flops)
        assert exp.base_power.total == pytest.approx(
            exp.base_power.clock + exp.base_power.signal
        )

    def test_distinct_circuits(self, suite):
        a = suite.run("tinyA")
        b = suite.run("tinyB")
        assert a.circuit.name != b.circuit.name

    def test_run_generates_the_circuit_once(self, monkeypatch):
        from repro.core import FlowOptions
        from repro.experiments import runner

        generate = runner.generate_circuit
        calls = []

        def counting(profile):
            calls.append(profile.name)
            return generate(profile)

        monkeypatch.setattr(runner, "generate_circuit", counting)
        fresh = ExperimentSuite(
            circuits=["tinyA"], options=FlowOptions(max_iterations=1)
        )
        fresh.run("tinyA")
        assert calls == ["tinyA"]


class TestTables:
    def test_table1(self, suite):
        rows = table1_integrality_gap(suite, ilp_time_limit=5.0)
        assert len(rows) == 2
        for row in rows:
            assert row["greedy_ig"] >= 1.0 - 1e-9
            assert row["greedy_cpu_s"] >= 0.0

    def test_table2(self, suite):
        rows = table2_test_cases(suite)
        for row in rows:
            assert row["cells"] > 0
            assert row["pl_um"] > 0.0
            assert row["rings"] == 4

    def test_table3(self, suite):
        rows = table3_base_case(suite)
        for row in rows:
            assert row["total_wl_um"] == pytest.approx(
                row["tap_wl_um"] + row["signal_wl_um"]
            )
            assert row["total_power_mw"] == pytest.approx(
                row["clock_power_mw"] + row["signal_power_mw"]
            )

    def test_table4(self, suite):
        rows = table4_network_flow(suite)
        for row in rows:
            assert 0.0 <= row["tap_improvement"] <= 1.0
            assert row["iterations"] >= 1

    def test_table5(self, suite):
        rows = table5_load_capacitance(suite)
        for row in rows:
            assert row["ilp_cap_ff"] <= row["nf_cap_ff"] + 1e-6
            assert row["cap_improvement"] >= -1e-9

    def test_table6(self, suite):
        rows = table6_power(suite)
        for row in rows:
            assert row["nf_total_mw"] == pytest.approx(
                row["nf_clock_mw"] + row["nf_signal_mw"]
            )
            # Clock power must improve vs base (tapping WL shrank).
            assert row["nf_clock_imp"] >= -1e-9

    def test_table7(self, suite):
        rows = table7_wcp(suite)
        for row in rows:
            assert row["nf_wcp"] > 0 and row["ilp_wcp"] > 0

    def test_format_table(self, suite):
        text = format_table(table2_test_cases(suite), "Table II")
        assert "Table II" in text
        assert "tinyA" in text
        assert format_table([], "Empty") == "Empty\n(no rows)"


class TestClockTreeBaseline:
    def test_baseline_invariant_to_iteration_count(self):
        """Table II's PL column is a property of the *initial* placement.

        Regression: the DME baseline used to be synthesized from the
        final (iterated) flip-flop positions, so running more flow
        iterations silently changed the paper's reference column.  It
        must now come from ``FlowResult.initial_positions`` and be
        bit-identical regardless of how long the flow iterates.
        """
        from repro.core import FlowOptions

        one = ExperimentSuite(
            circuits=["tinyA"], options=FlowOptions(max_iterations=1)
        ).run("tinyA")
        three = ExperimentSuite(
            circuits=["tinyA"], options=FlowOptions(max_iterations=3)
        ).run("tinyA")
        assert one.clock_tree_paths == three.clock_tree_paths
        # Sanity: the flows really did diverge after stage 1.
        assert one.flow.initial_positions == three.flow.initial_positions
        assert len(one.flow.history) != len(three.flow.history)

    def test_initial_positions_captured(self, suite):
        exp = suite.run("tinyA")
        assert set(exp.flow.initial_positions) == set(exp.flow.positions)
        # Iterated placement moved at least one cell off its start.
        moved = [
            name
            for name, p in exp.flow.positions.items()
            if p != exp.flow.initial_positions[name]
        ]
        assert moved


class TestFigures:
    def test_fig1_phases_cover_circle(self):
        ring = RotaryRing(0, Point(0, 0), 50.0, 1000.0)
        rows = fig1_ring_phases(ring, samples=8)
        phases = [r["phase_deg"] for r in rows]
        assert phases == pytest.approx([45.0 * k for k in range(8)])

    def test_fig1_array_points(self):
        array = RingArray(BBox(0, 0, 100, 100), side=3, period=1000.0)
        rows = fig1_array_equal_phase_points(array)
        assert len(rows) == 9
        assert {r["reference_delay_ps"] for r in rows} == {0.0}

    def test_fig2_curve_shape(self):
        curve = fig2_tapping_curve(TECH)
        assert curve.min_delay_ps < curve.max_delay_ps
        # Joint is the minimum region of the stub-length term.
        targets = curve.case_targets()
        assert targets["case1_below_curve"] < curve.min_delay_ps
        assert targets["case4_above_curve"] > curve.max_delay_ps
        assert len(curve.x_um) == len(curve.delay_ps)

    def test_fig3_convergence(self, suite):
        exp = suite.run("tinyA")
        rows = fig3_flow_convergence(exp.flow)
        assert rows[0]["iteration"] == 0.0
        assert len(rows) == len(exp.flow.history) + 1
        assert min(r["overall_cost"] for r in rows) <= rows[0]["overall_cost"]

    def test_fig4_structure(self, suite):
        data = fig4_network_structure(suite, "tinyA")
        assert data["ff_ring_arcs"] <= data["flip_flop_nodes"] * data["ring_nodes"]
        assert data["source_arcs"] == data["flip_flop_nodes"]

    def test_fig5_rounding(self, suite):
        data = fig5_greedy_rounding(suite, "tinyA")
        assert data["integrality_gap"] >= 1.0 - 1e-9
        assert 0.0 <= data["integral_row_fraction"] <= 1.0
