"""Experiment harness reproducing every table and figure of the paper."""

from .figures import (
    TappingCurve,
    fig1_array_equal_phase_points,
    fig1_ring_phases,
    fig2_tapping_curve,
    fig3_flow_convergence,
    fig4_network_structure,
    fig5_greedy_rounding,
)
from .checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    experiment_key,
)
from .motivation import ZeroSkewComparison, zero_skew_comparison
from .parallel import SuiteRunReport, TaskFailure, run_parallel_suite
from .runner import (
    CircuitExperiment,
    ExperimentSuite,
    PowerBreakdown,
)
from .tables import (
    format_table,
    table1_integrality_gap,
    table2_test_cases,
    table3_base_case,
    table4_network_flow,
    table5_load_capacitance,
    table6_power,
    table7_wcp,
)

__all__ = [
    "ExperimentSuite",
    "CircuitExperiment",
    "PowerBreakdown",
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointStore",
    "experiment_key",
    "SuiteRunReport",
    "TaskFailure",
    "run_parallel_suite",
    "table1_integrality_gap",
    "table2_test_cases",
    "table3_base_case",
    "table4_network_flow",
    "table5_load_capacitance",
    "table6_power",
    "table7_wcp",
    "format_table",
    "TappingCurve",
    "fig1_ring_phases",
    "fig1_array_equal_phase_points",
    "fig2_tapping_curve",
    "fig3_flow_convergence",
    "fig4_network_structure",
    "fig5_greedy_rounding",
    "ZeroSkewComparison",
    "zero_skew_comparison",
]
