"""The paper's contribution: integrated placement and skew optimization."""

from .assignment_flow import (
    assign_min_tapping_cost,
    network_flow_assignment,
)
from .assignment_ilp import (
    GenericIlpResult,
    MinMaxCapResult,
    build_minmax_lp,
    generic_ilp_assignment,
    greedy_rounding,
    ilp_assignment,
    local_search_minmax,
    solve_minmax_cap,
    solve_minmax_cap_refined,
)
from .cost import (
    Assignment,
    TappingCostCache,
    TappingCostMatrix,
    realize_assignment,
    signal_wirelength,
    tapping_cost_matrix,
    wirelength_capacitance_product,
)
from .ring_sizing import (
    RingSweepPoint,
    RingSweepResult,
    sweep_ring_count,
)
from .flow import (
    EXECUTION_ONLY_OPTION_FIELDS,
    FlowOptions,
    FlowResult,
    IntegratedFlow,
    IterationRecord,
)
from .skew_cost_driven import (
    RingAttractions,
    cost_driven_schedule,
    ring_attractions,
)
from .skew_traditional import (
    SkewSchedule,
    max_slack_schedule,
    zero_skew_schedule,
)

__all__ = [
    "EXECUTION_ONLY_OPTION_FIELDS",
    "TappingCostMatrix",
    "TappingCostCache",
    "tapping_cost_matrix",
    "Assignment",
    "realize_assignment",
    "signal_wirelength",
    "wirelength_capacitance_product",
    "assign_min_tapping_cost",
    "network_flow_assignment",
    "MinMaxCapResult",
    "GenericIlpResult",
    "build_minmax_lp",
    "greedy_rounding",
    "solve_minmax_cap",
    "solve_minmax_cap_refined",
    "local_search_minmax",
    "generic_ilp_assignment",
    "ilp_assignment",
    "SkewSchedule",
    "max_slack_schedule",
    "zero_skew_schedule",
    "RingAttractions",
    "ring_attractions",
    "cost_driven_schedule",
    "FlowOptions",
    "FlowResult",
    "IntegratedFlow",
    "IterationRecord",
    "RingSweepPoint",
    "RingSweepResult",
    "sweep_ring_count",
]
