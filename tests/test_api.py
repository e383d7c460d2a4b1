"""Tests for the repro.api facade and the options dict round-trips."""

import math

import pytest

import repro
from repro import (
    CheckRequest,
    FlowOptions,
    FlowRequest,
    ReproError,
    check_design,
    run_flow,
    run_tables,
)
from repro.analysis import CheckConfig, CheckReport, Severity
from repro.errors import CheckError
from repro.netlist import PROFILES, S27_BENCH, parse_bench_text
from repro.obs import TraceCollector

#: One-iteration options on a 2x2 ring grid: the fastest full flow.
FAST = FlowOptions(ring_grid_side=2, max_iterations=1)


class TestRequestNormalization:
    """Requests fill in the named profile's ring grid; an explicit one wins."""

    @pytest.mark.parametrize("request_type", [FlowRequest, CheckRequest])
    def test_profile_ring_grid_injected(self, request_type):
        norm = request_type(circuit="s5378").normalized()
        assert norm.options.ring_grid_side == PROFILES["s5378"].ring_grid_side

    @pytest.mark.parametrize("request_type", [FlowRequest, CheckRequest])
    def test_explicit_ring_grid_wins(self, request_type):
        request = request_type(
            circuit="s5378", options=FlowOptions(ring_grid_side=2)
        )
        assert request.normalized().options.ring_grid_side == 2


class TestFacadeTakesOnlyRequests:
    def test_non_request_rejected(self):
        """Each facade function names the request type it takes; a live
        Circuit is pointed at the class-based IntegratedFlow surface."""
        s27 = parse_bench_text(S27_BENCH, "s27")
        with pytest.raises(ReproError, match="FlowRequest.*IntegratedFlow"):
            run_flow(s27)
        with pytest.raises(ReproError, match="takes a FlowRequest, got str"):
            run_flow("s27")
        with pytest.raises(ReproError, match="CheckRequest.*IntegratedFlow"):
            check_design(s27)
        with pytest.raises(ReproError, match="takes a CheckRequest"):
            check_design(FlowRequest(circuit="s27"))
        with pytest.raises(ReproError, match="takes a TablesRequest, got list"):
            run_tables(["s27"])


class TestRunFlow:
    def test_run_flow_on_circuit(self):
        result = run_flow(FlowRequest(circuit="s27", options=FAST)).result
        assert result.circuit_name == "s27"
        assert result.trace is None
        assert len(result.history) == 1

    def test_run_flow_traced(self):
        options = FAST.replace(trace=True)
        result = run_flow(FlowRequest(circuit="s27", options=options)).result
        assert result.trace is not None
        assert result.trace.counter("flow.iterations") == 1

    def test_run_flow_explicit_collector(self):
        obs = TraceCollector()
        request = FlowRequest(circuit="s27", options=FAST)
        result = run_flow(request, collector=obs).result
        assert result.trace is not None
        assert result.trace.by_name("stage1.initial-placement")

    def test_exported_from_package_root(self):
        assert repro.run_flow is run_flow
        assert repro.check_design is check_design
        assert "run_flow" in repro.__all__ and "check_design" in repro.__all__


class TestCheckDesign:
    def test_netlist_only(self):
        report = check_design(CheckRequest(circuit="s27", netlist_only=True))
        assert isinstance(report, CheckReport)
        assert report.design == "s27"
        assert report.rules_run  # netlist rules apply without a flow

    def test_full_flow_check(self):
        report = check_design(CheckRequest(circuit="s27", options=FAST))
        # Flow-level rules now apply too, so strictly more rules run.
        netlist_only = check_design(
            CheckRequest(circuit="s27", netlist_only=True)
        )
        assert set(netlist_only.rules_run) < set(report.rules_run)

    def test_config_respected(self):
        config = CheckConfig(enabled=("RCK101",))
        report = check_design(
            CheckRequest(circuit="s27", netlist_only=True, config=config)
        )
        assert set(report.rules_run) <= {"RCK101"}


class TestFlowOptionsRoundTrip:
    def test_to_from_dict(self):
        opts = FlowOptions(ring_grid_side=3, max_iterations=2, trace=True)
        data = opts.to_dict()
        assert data["ring_grid_side"] == 3 and data["trace"] is True
        assert FlowOptions.from_dict(data) == opts

    def test_from_dict_rejects_unknown(self):
        # Besides a made-up name, the five fields API v2 removed.
        for name in (
            "bogus",
            "sta_engine",
            "sta_dirty_epsilon",
            "placer_assembly",
            "placer_solver",
            "assignment_warm_start",
        ):
            with pytest.raises(ReproError, match=f"unknown FlowOptions field.*{name}"):
                FlowOptions.from_dict({"ring_grid_side": 2, name: 1})

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("assignment", "Flow"),
            ("assignment", "mcf"),
            ("skew_mode", "max"),
            ("net_weighting", "typo"),
            ("max_iterations", 0),
            ("max_iterations", -1),
            ("period", 0.0),
            ("period", -1000.0),
            ("period", math.nan),
            ("period", math.inf),
            ("ring_grid_side", 0),
            ("ring_grid_side", -2),
            ("candidate_rings", -1),
            ("critical_pairs_k", -1),
            ("pseudo_net_weight", -1.0),
            ("stability_weight", math.nan),
            ("critical_weight", -0.5),
            ("tapping_weight", math.nan),
            ("convergence_tol", math.nan),
            ("capacity_headroom", 0.0),
            ("capacity_headroom", math.nan),
            ("slack_fraction", math.nan),
            ("slack_fraction", 1.5),
            ("utilization", 0.0),
            ("utilization", 1.75),
            ("jobs", 0),
        ],
    )
    def test_invalid_value_rejected(self, field, value):
        """Bad values fail when the options are built, naming the field."""
        with pytest.raises(ReproError, match=rf"FlowOptions\.{field}.*{value!r}"):
            FlowOptions(**{field: value})
        with pytest.raises(ReproError, match=rf"FlowOptions\.{field}"):
            FlowOptions().replace(**{field: value})

    def test_replace(self):
        opts = FlowOptions()
        assert opts.replace(max_iterations=9).max_iterations == 9
        assert opts.max_iterations != 9  # original untouched

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            FlowOptions(3)  # positional construction is not part of the API


class TestCheckConfigRoundTrip:
    def test_to_from_dict(self):
        cfg = CheckConfig(
            disabled=("RCK101",),
            severity_overrides={"RCK103": Severity.ERROR},
            fail_on=Severity.WARNING,
        )
        data = cfg.to_dict()
        assert data == {
            "enabled": [],
            "disabled": ["RCK101"],
            "severity_overrides": {"RCK103": "error"},
            "fail_on": "warning",
        }
        assert CheckConfig.from_dict(data) == cfg

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(CheckError, match="unknown CheckConfig field"):
            CheckConfig.from_dict({"enable": ["RCK101"]})

    def test_replace_revalidates(self):
        cfg = CheckConfig()
        with pytest.raises(CheckError):
            cfg.replace(enabled=("NOT_A_RULE",))

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            CheckConfig(("RCK101",))
