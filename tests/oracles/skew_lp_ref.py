"""Reference skew-LP assembly: one ``add_constraint`` call per row.

These are the builders the production skew LPs
(``repro.core.skew_traditional._max_slack_lp`` and
``repro.core.skew_cost_driven._add_timing_constraints``) replaced with a
single COO block per LP.  They build a coefficient dict per timing row,
so they are slow on the 10^5-row scale profiles, and they are kept only
as the oracle the byte-identity tests compare against: the block
assembly must lower to exactly the arrays these rows do.
"""

from __future__ import annotations

from typing import Mapping

from repro.constants import Technology
from repro.opt import LinearProgram
from repro.timing import PathBounds


def skew_coeffs(plus: str, minus: str, extra: dict[str, float]) -> dict[str, float]:
    """Coefficients of ``t_plus - t_minus`` plus extra terms, summing
    collisions (so self-loop pairs cancel instead of clobbering)."""
    coeffs = dict(extra)
    for var, coef in ((f"t_{plus}", 1.0), (f"t_{minus}", -1.0)):
        coeffs[var] = coeffs.get(var, 0.0) + coef
    return {v: c for v, c in coeffs.items() if c != 0.0}


def max_slack_lp_loops(
    pairs: Mapping[tuple[str, str], PathBounds],
    flip_flops: list[str],
    period: float,
    tech: Technology,
) -> LinearProgram:
    """The max-slack LP, assembled row by row."""
    lp = LinearProgram("max_slack_skew")
    for ff in flip_flops:
        lp.add_var(f"t_{ff}", lb=float("-inf"))
    lp.add_var("M", lb=float("-inf"), ub=period)
    for (i, j), b in pairs.items():
        lp.add_constraint(
            skew_coeffs(i, j, {"M": 1.0}),
            "<=",
            period - b.d_max - tech.setup_time,
        )
        lp.add_constraint(
            skew_coeffs(j, i, {"M": 1.0}),
            "<=",
            b.d_min - tech.hold_time,
        )
    lp.add_constraint({f"t_{flip_flops[0]}": 1.0}, "==", 0.0)
    lp.set_objective({"M": -1.0})
    return lp


def add_timing_constraints_loops(
    lp: LinearProgram,
    pairs: Mapping[tuple[str, str], PathBounds],
    period: float,
    tech: Technology,
    slack: float,
) -> None:
    """The cost-driven LP's timing rows at fixed slack, added row by row."""
    for (i, j), b in pairs.items():
        lp.add_constraint(
            skew_coeffs(i, j, {}),
            "<=",
            period - b.d_max - tech.setup_time - slack,
        )
        lp.add_constraint(
            skew_coeffs(j, i, {}),
            "<=",
            b.d_min - tech.hold_time - slack,
        )
