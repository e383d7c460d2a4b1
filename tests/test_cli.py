"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "s9234"])
        assert args.engine == "flow"
        assert args.iterations == 5
        assert args.period == 1000.0

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "s000"])

    def test_engine_choice(self):
        args = build_parser().parse_args(["run", "s5378", "--engine", "ilp"])
        assert args.engine == "ilp"


class TestCommands:
    def test_bench_info(self, capsys):
        assert main(["bench-info", "s9234"]) == 0
        out = capsys.readouterr().out
        assert "1510 cells" in out
        assert "16 rings" in out

    def test_run_small(self, capsys):
        # s5378 is the fastest paper circuit; 1 iteration keeps this quick.
        assert main(["run", "s5378", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "final" in out
        assert "tap WL" in out

    def test_sweep_rings_small(self, capsys):
        assert main(
            ["sweep-rings", "s5378", "--sides", "2,3", "--iterations", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "best" in out


class TestFlowErrors:
    """A rejected flag value is a usage error (2); a run that raises is a
    failed run (1).  Either way: one line on stderr, no traceback."""

    @pytest.mark.parametrize(
        "flags", [["--period", "0"], ["--period", "nan"], ["--iterations", "0"]]
    )
    def test_bad_option_is_usage_error(self, flags, capsys):
        assert main(["run", "s5378", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: FlowOptions.")
        assert "Traceback" not in err

    def test_failed_run_exits_one(self, monkeypatch, capsys):
        from repro import cli
        from repro.errors import InfeasibleError

        def infeasible(*args, **kwargs):
            raise InfeasibleError("LP cost_driven_skew_weighted is infeasible")

        monkeypatch.setattr(cli, "run_flow", infeasible)
        assert main(["run", "s5378", "--iterations", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "repro run: LP cost_driven_skew_weighted is infeasible\n"

    def test_check_netlist_only_rejects_bad_period(self, capsys):
        assert main(["check", "s5378", "--netlist-only", "--period", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro check: FlowOptions.period")
        assert "Traceback" not in err

    def test_check_bench_rejects_bad_period(self, tmp_path, capsys):
        from repro.netlist import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        assert main(["check", "--bench", str(path), "--period", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro check: FlowOptions.period")
        assert "Traceback" not in err


#: The flags every flow command must carry into its FlowOptions, and the
#: values they must arrive as.
WEIGHTING_FLAGS = [
    "--net-weighting", "critical", "--critical-k", "3",
    "--critical-weight", "5", "--jobs", "2",
]
WEIGHTING_OPTIONS = {
    "net_weighting": "critical",
    "critical_pairs_k": 3,
    "critical_weight": 5.0,
    "jobs": 2,
}


class TestOptionsFromFlags:
    """Every flow command builds its options from all the common flags."""

    @pytest.mark.parametrize("kind", ["flow", "check"])
    def test_submit_request_carries_every_flag(self, kind):
        from repro.cli import _request_from_args

        args = build_parser().parse_args(
            ["submit", "s9234", "--kind", kind, *WEIGHTING_FLAGS]
        )
        options = _request_from_args(args).options
        for field, value in WEIGHTING_OPTIONS.items():
            assert getattr(options, field) == value, field

    def test_sweep_rings_receives_every_flag(self, monkeypatch):
        from repro import cli

        seen = {}

        def fake_sweep(circuit, tech, options, sides):
            seen["options"], seen["sides"] = options, sides
            raise cli.ReproError("stop after capturing the options")

        monkeypatch.setattr(cli, "sweep_ring_count", fake_sweep)
        rc = main(["sweep-rings", "s5378", "--sides", "2", *WEIGHTING_FLAGS])
        assert rc == 1
        assert seen["sides"] == [2]
        for field, value in WEIGHTING_OPTIONS.items():
            assert getattr(seen["options"], field) == value, field


CLEAN_BENCH = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
BROKEN_BENCH = "INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n"


class TestCheckCommand:
    """The ``repro check`` exit-code contract: 0 clean, 1 findings at or
    above --fail-on, 2 usage/configuration errors."""

    def _bench(self, tmp_path, text, name="c.bench"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_clean_bench_exits_zero(self, tmp_path, capsys):
        rc = main(["check", "--bench", self._bench(tmp_path, CLEAN_BENCH)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_seeded_violation_exits_one(self, tmp_path, capsys):
        rc = main(["check", "--bench", self._bench(tmp_path, BROKEN_BENCH)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RCK101" in out

    def test_fail_on_warning_catches_warnings(self, tmp_path):
        dead = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ndead = NOT(a)\n"
        path = self._bench(tmp_path, dead)
        assert main(["check", "--bench", path]) == 0  # warning only
        assert main(["check", "--bench", path, "--fail-on", "warning"]) == 1

    def test_severity_demotion_turns_error_into_warning(self, tmp_path):
        path = self._bench(tmp_path, BROKEN_BENCH)
        rc = main(["check", "--bench", path, "--severity", "RCK101=warning"])
        assert rc == 0

    def test_disable_suppresses_the_finding(self, tmp_path):
        path = self._bench(tmp_path, BROKEN_BENCH)
        assert main(["check", "--bench", path, "--disable", "RCK101"]) == 0

    def test_missing_input_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "provide a bundled circuit" in capsys.readouterr().err

    def test_unknown_rule_code_is_usage_error(self, tmp_path, capsys):
        path = self._bench(tmp_path, CLEAN_BENCH)
        rc = main(["check", "--bench", path, "--disable", "RCK999"])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_bad_severity_spec_is_usage_error(self, tmp_path, capsys):
        path = self._bench(tmp_path, CLEAN_BENCH)
        assert main(["check", "--bench", path, "--severity", "RCK101"]) == 2
        assert main(["check", "--bench", path, "--severity", "RCK101=fatal"]) == 2

    def test_unreadable_bench_is_usage_error(self, capsys):
        assert main(["check", "--bench", "/nonexistent/x.bench"]) == 2

    def test_json_format(self, tmp_path, capsys):
        import json

        path = self._bench(tmp_path, BROKEN_BENCH)
        assert main(["check", "--bench", path, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts_by_code"] == {"RCK101": 1}

    def test_sarif_sidecar_written(self, tmp_path, capsys):
        import json

        path = self._bench(tmp_path, BROKEN_BENCH)
        sarif = tmp_path / "out.sarif"
        rc = main(["check", "--bench", path, "--sarif", str(sarif)])
        assert rc == 1
        doc = json.loads(sarif.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "RCK101"

    def test_output_file(self, tmp_path, capsys):
        path = self._bench(tmp_path, CLEAN_BENCH)
        out = tmp_path / "report.txt"
        assert main(["check", "--bench", path, "-o", str(out)]) == 0
        assert "0 finding(s)" in out.read_text()

    def test_netlist_only_profile(self, capsys):
        # Skips the flow: only the RCK1xx rules run, so this is fast.
        rc = main(["check", "s9234", "--netlist-only", "--format", "json"])
        assert rc == 0  # dead-logic warnings stay below the error gate
        import json

        doc = json.loads(capsys.readouterr().out)
        assert set(doc["rules_run"]) == {"RCK101", "RCK102", "RCK103"}


class TestTablesCommand:
    """``repro tables`` exit codes: 0 complete, 1 partial, 2 usage error."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.parallel == 0
        assert args.timeout == 0.0
        assert args.max_retries == 2
        assert args.checkpoint_dir == ""
        assert not args.resume

    def test_resume_without_checkpoint_dir_is_usage_error(self, capsys):
        assert main(["tables", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_parallel_run_with_checkpoints(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        rc = main(
            ["tables", "--circuits", "tinyA", "--parallel", "2",
             "--checkpoint-dir", str(ckpt), "--ilp-time-limit", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "Table VII" in out
        assert "parallel run: 1 computed" in out
        assert len(list(ckpt.glob("tinyA-*.json"))) == 1
        # Resume: served from the checkpoint, nothing recomputed.
        rc = main(
            ["tables", "--circuits", "tinyA", "--parallel", "2",
             "--checkpoint-dir", str(ckpt), "--resume",
             "--ilp-time-limit", "1"]
        )
        assert rc == 0
        assert "1 resumed from checkpoints" in capsys.readouterr().out

    def test_injected_failure_exits_one_with_partial_tables(
        self, monkeypatch, capsys
    ):
        from repro.server.worker import FAULT_ENV

        monkeypatch.setenv(FAULT_ENV, "tinyB:*:error")
        rc = main(
            ["tables", "--circuits", "tinyA,tinyB", "--parallel", "2",
             "--max-retries", "0", "--ilp-time-limit", "1"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "error" in captured.out  # annotated partial rows
        assert "tinyB failed" in captured.err


class TestRunJson:
    def test_run_json_is_machine_readable(self, capsys):
        import json

        assert main(["run", "s5378", "--iterations", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["circuit"] == "s5378"
        assert doc["trace"] is None  # run does not trace
        assert len(doc["history"]) == 1
        assert set(doc["improvements"]) == {"tapping", "signal_penalty", "total"}
        assert "finding_counts" in doc["base"]


class TestProfileCommand:
    """``repro profile`` exit codes: 0 success, 2 unwritable output."""

    def test_profile_writes_trace_and_summary(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.trace.json"
        summary = tmp_path / "t.summary.json"
        rc = main(
            ["profile", "s5378", "--iterations", "1",
             "--trace", str(trace), "--summary", str(summary)]
        )
        assert rc == 0
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events
        assert {e["ph"] for e in events} == {"B", "E"}
        doc = json.loads(summary.read_text())
        assert "stage1.initial-placement" in doc["spans"]
        out = capsys.readouterr().out
        assert "stage2.max-slack-skew" in out
        assert "Perfetto" in out or "perfetto" in out

    def test_default_output_paths(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "s5378", "--iterations", "1"]) == 0
        assert (tmp_path / "s5378.trace.json").exists()
        assert (tmp_path / "s5378.summary.json").exists()

    def test_unwritable_path_is_usage_error(self, tmp_path, capsys):
        rc = main(
            ["profile", "s5378", "--iterations", "1",
             "--trace", str(tmp_path / "no-such-dir" / "t.json")]
        )
        assert rc == 2
        assert "repro profile:" in capsys.readouterr().err

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "s000"])
