"""Solver-mode equivalence for the sparse preconditioned placement path.

``solver="cg"`` is the historical bit-identical path; ``"pcg"`` (Jacobi-
preconditioned CG, auto-selected past 20k movables), ``"direct"``
(sparse LU) and ``"dense"`` (LAPACK factorization, the bench_scale
baseline) must land on the same minimizer of the same quadratic — the
positions may differ only by solver tolerance, far below anything the
downstream flow quantizes on.  The flow-level test then pins the actual
decisions: running the integrated flow with the preconditioned solver
(auto-selected by lowering its threshold) must reproduce the default
flow's ring assignment and schedule.
"""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.geometry import position_dict
from repro.netlist import PROFILE_ORDER, generate_named
from repro.placement import PlacerOptions, QuadraticPlacer, region_for_circuit
import repro.placement.quadratic as quadratic_mod
from repro.api import FlowRequest, run_flow
from repro.errors import PlacementError

TECH = DEFAULT_TECHNOLOGY

#: Solver-tolerance headroom in um: measured cross-mode deviations on the
#: bundled circuits are ~2e-5 um on 300-500 um regions, so 1e-3 gives
#: ~50x margin while still catching any real solver divergence.
POSITION_TOL_UM = 1e-3


def _place(circuit, mode, **opts):
    region = region_for_circuit(circuit, TECH)
    placer = QuadraticPlacer(circuit, region, PlacerOptions(solver=mode, **opts))
    return position_dict(placer.movable, *placer.place())


def assert_close(a: dict, b: dict, tol: float = POSITION_TOL_UM) -> None:
    assert set(a) == set(b)
    worst = max(max(abs(a[k].x - b[k].x), abs(a[k].y - b[k].y)) for k in a)
    assert worst <= tol, f"positions diverge by {worst:.3e} um"


def assert_identical(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name], name  # exact Point equality


class TestSolverModeEquivalence:
    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_auto_is_cg_below_threshold(self, name):
        """All bundled circuits sit under the pcg auto-threshold, so the
        default solver stays bit-identical to the historical CG path."""
        circuit = generate_named(name)
        assert_identical(
            _place(circuit, "auto", max_levels=1),
            _place(circuit, "cg", max_levels=1),
        )

    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_pcg_matches_cg(self, name):
        circuit = generate_named(name)
        assert_close(
            _place(circuit, "pcg", max_levels=1),
            _place(circuit, "cg", max_levels=1),
        )

    @pytest.mark.parametrize("name", ["s9234", "s5378"])
    def test_factorizations_match_cg(self, name):
        """Sparse LU and dense LAPACK solve the same system exactly; they
        must agree with each other to machine precision and with CG to
        solver tolerance.  (Kept to the two smallest circuits: LU fill-in
        on star/clique Laplacians makes factorization quadratic-ish.)"""
        circuit = generate_named(name)
        cg = _place(circuit, "cg", max_levels=1)
        direct = _place(circuit, "direct", max_levels=1)
        dense = _place(circuit, "dense", max_levels=1)
        assert_close(direct, cg)
        assert_close(dense, cg)
        assert_close(dense, direct, tol=1e-6)

    def test_auto_selects_pcg_above_threshold(self, monkeypatch):
        monkeypatch.setattr(quadratic_mod, "_PCG_AUTO_THRESHOLD", 10)
        circuit = generate_named("s5378")
        region = region_for_circuit(circuit, TECH)
        placer = QuadraticPlacer(circuit, region, PlacerOptions(solver="auto"))
        assert placer._solver_mode == "pcg"

    def test_unknown_solver_rejected(self):
        circuit = generate_named("s5378")
        region = region_for_circuit(circuit, TECH)
        with pytest.raises(PlacementError, match="unknown placer solver"):
            QuadraticPlacer(circuit, region, PlacerOptions(solver="cholesky"))

    def test_multilevel_pcg_matches_cg(self):
        """The full multilevel schedule (clustered coarse levels plus
        refinement) also agrees across solvers, not just one flat pass."""
        circuit = generate_named("s9234")
        assert_close(_place(circuit, "pcg"), _place(circuit, "cg"))


class TestFlowDecisionsUnchanged:
    def test_pcg_flow_reproduces_default_decisions(self, monkeypatch):
        """The §V flow's discrete decisions — ring assignment, iteration
        count, schedule — are invariant to the cg->pcg solver swap."""
        request = FlowRequest(circuit="s5378")
        default = run_flow(request).result
        monkeypatch.setattr(quadratic_mod, "_PCG_AUTO_THRESHOLD", 0)
        pcg = run_flow(request).result
        assert pcg.assignment.ring_of == default.assignment.ring_of
        assert len(pcg.history) == len(default.history)
        assert set(pcg.schedule.targets) == set(default.schedule.targets)
        for ff, t in default.schedule.targets.items():
            assert pcg.schedule.targets[ff] == pytest.approx(t, abs=1e-6)
        assert pcg.final.total_wirelength == pytest.approx(
            default.final.total_wirelength, rel=1e-6
        )
