"""repro — Integrated Placement and Skew Optimization for Rotary Clocking.

A full reproduction of Venkataraman, Hu & Liu (DATE 2006 / TVLSI 2007):
rotary traveling-wave clock rings, flexible tapping, network-flow and
ILP flip-flop assignment, cost-driven skew scheduling, and the iterative
integrated flow — plus every substrate it stands on (netlist model and
generator, quadratic placer, static timing, LP/flow/ILP kernels,
zero-skew clock-tree baseline, power models).

Quickstart — the :mod:`repro.api` facade is the supported entry point;
each of its functions takes one typed request::

    from repro import FlowOptions, FlowRequest, run_flow

    response = run_flow(FlowRequest(circuit="s9234",
                                    options=FlowOptions(max_iterations=3)))
    result = response.result
    print(result.final.tapping_wirelength, result.tapping_improvement)

The class-based surface (``IntegratedFlow``, ``FlowOptions``) stays
available for callers that hold a live ``Circuit`` object or need custom
collectors::

    from repro import FlowOptions, IntegratedFlow

    result = IntegratedFlow(circuit, options=FlowOptions(ring_grid_side=2)).run()
"""

from .api import (
    API_VERSION,
    CheckRequest,
    FlowRequest,
    FlowResponse,
    JobError,
    JobState,
    JobStatus,
    TablesRequest,
    TablesRun,
    check_design,
    run_flow,
    run_tables,
)
from .constants import (
    DEFAULT_CLOCK_PERIOD_PS,
    DEFAULT_TECHNOLOGY,
    Technology,
    frequency_ghz,
    oscillation_period_ps,
    period_ps,
)
from .core import (
    Assignment,
    FlowOptions,
    FlowResult,
    IntegratedFlow,
    IterationRecord,
    SkewSchedule,
)
from .errors import ReproError

__version__ = "7.0.0"

__all__ = [
    "Technology",
    "DEFAULT_TECHNOLOGY",
    "DEFAULT_CLOCK_PERIOD_PS",
    "frequency_ghz",
    "period_ps",
    "oscillation_period_ps",
    "run_flow",
    "run_tables",
    "TablesRun",
    "check_design",
    "API_VERSION",
    "FlowRequest",
    "CheckRequest",
    "TablesRequest",
    "FlowResponse",
    "JobState",
    "JobStatus",
    "JobError",
    "IntegratedFlow",
    "FlowOptions",
    "FlowResult",
    "IterationRecord",
    "Assignment",
    "SkewSchedule",
    "ReproError",
    "__version__",
]
