"""Tests for the parallel, fault-tolerant experiment runner.

Determinism contract (also asserted by the CI ``tables-smoke`` job):
Tables II, VI, and VII are byte-identical between serial, parallel, and
resumed runs; Tables III-V carry measured CPU-seconds columns (wall
clock of the original run) and are compared with those columns removed.
Table I embeds a *time-limited* generic ILP solve and is excluded.
"""

import json
import os

import pytest

from repro.core import FlowOptions
from repro.experiments import (
    CheckpointStore,
    ExperimentSuite,
    ParallelOptions,
    ParallelSuiteRunner,
    parallel_options_from_flags,
    run_parallel_suite,
    table2_test_cases,
    table3_base_case,
    table4_network_flow,
    table5_load_capacitance,
    table6_power,
    table7_wcp,
)
from repro.server.worker import FAULT_ENV, _maybe_inject_fault

OPTS = FlowOptions(max_iterations=2)
CIRCUITS = ["tinyA", "tinyB"]

#: Wall-clock columns: facts of the measuring run, not of the design.
CPU_KEYS = {"cpu_s", "cpu_stages_s", "cpu_placer_s", "ilp_cpu_s"}

DETERMINISTIC_TABLES = (table2_test_cases, table6_power, table7_wcp)
TIMED_TABLES = (table3_base_case, table4_network_flow, table5_load_capacitance)


def canon(rows, drop=()):
    kept = [{k: v for k, v in r.items() if k not in drop} for r in rows]
    return json.dumps(kept, sort_keys=True, default=str)


def strip_timing(doc):
    """A FlowResult document minus its measured wall-clock fields."""
    doc = dict(doc)
    doc.pop("seconds", None)
    for key in ("base", "final"):
        doc[key] = {k: v for k, v in doc[key].items() if k != "seconds"}
    doc["history"] = [
        {k: v for k, v in rec.items() if k != "seconds"}
        for rec in doc["history"]
    ]
    if doc.get("ilp_stats"):
        doc["ilp_stats"] = {
            k: v for k, v in doc["ilp_stats"].items() if k != "solve_seconds"
        }
    return doc


@pytest.fixture(scope="module")
def serial_suite():
    suite = ExperimentSuite(circuits=CIRCUITS, options=OPTS)
    suite.run_all()
    return suite


@pytest.fixture(scope="module")
def parallel_suite():
    suite = ExperimentSuite(circuits=CIRCUITS, options=OPTS)
    report = run_parallel_suite(suite, ParallelOptions(workers=2))
    assert report.ok, report
    return suite, report


class TestDeterminism:
    def test_report_shape(self, parallel_suite):
        _, report = parallel_suite
        assert set(report.completed) == set(CIRCUITS)
        assert report.resumed == () and report.failed == ()
        assert report.retries == report.timeouts == report.crashes == 0

    def test_untimed_tables_byte_identical(self, serial_suite, parallel_suite):
        par, _ = parallel_suite
        for table in DETERMINISTIC_TABLES:
            assert canon(table(serial_suite)) == canon(table(par)), table.__name__

    def test_timed_tables_identical_minus_cpu(self, serial_suite, parallel_suite):
        par, _ = parallel_suite
        for table in TIMED_TABLES:
            assert canon(table(serial_suite), drop=CPU_KEYS) == canon(
                table(par), drop=CPU_KEYS
            ), table.__name__

    def test_flow_results_bit_identical(self, serial_suite, parallel_suite):
        # Everything except measured wall-clock is bit-identical: the
        # worker's result crossed a to_dict/from_dict round trip.
        par, _ = parallel_suite
        for name in CIRCUITS:
            assert strip_timing(serial_suite.run(name).flow.to_dict()) == strip_timing(
                par.run(name).flow.to_dict()
            )
            assert strip_timing(serial_suite.run(name).ilp.to_dict()) == strip_timing(
                par.run(name).ilp.to_dict()
            )


class TestFaultTolerance:
    def test_crash_once_is_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "tinyA:ilp:crash:1")
        suite = ExperimentSuite(circuits=["tinyA"], options=OPTS)
        report = run_parallel_suite(
            suite,
            ParallelOptions(workers=2, max_retries=2, backoff_seconds=0.05),
        )
        assert report.ok, report
        assert report.crashes >= 1
        assert report.retries >= 1
        assert suite.is_cached("tinyA") and not suite.failures

    def test_persistent_error_degrades_to_partial_row(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "tinyB:*:error")
        suite = ExperimentSuite(circuits=CIRCUITS, options=OPTS)
        report = run_parallel_suite(
            suite, ParallelOptions(workers=2, max_retries=0)
        )
        assert not report.ok
        assert {f.circuit for f in report.failed} == {"tinyB"}
        assert all(f.kind == "error" for f in report.failed)
        assert "tinyB" in suite.failures
        # The table degrades: tinyA full row, tinyB annotated error row.
        rows = table4_network_flow(suite)
        by_name = {r["circuit"]: r for r in rows}
        assert "error" not in by_name["tinyA"]
        assert "injected fault" in str(by_name["tinyB"]["error"])

    def test_hang_hits_timeout(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "tinyA:flow:hang")
        suite = ExperimentSuite(circuits=["tinyA"], options=OPTS)
        report = run_parallel_suite(
            suite, ParallelOptions(workers=2, timeout=3.0, max_retries=0)
        )
        assert not report.ok
        assert report.timeouts >= 1
        assert any(f.kind == "timeout" for f in report.failed)
        assert "tinyA" in suite.failures

    def test_resume_completes_after_failure(self, monkeypatch, tmp_path):
        store = CheckpointStore(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "tinyB:*:error")
        first = ExperimentSuite(
            circuits=CIRCUITS, options=OPTS, checkpoints=store, resume=True
        )
        report1 = run_parallel_suite(first, ParallelOptions(workers=2, max_retries=0))
        assert not report1.ok and first.is_cached("tinyA")
        assert len(store.entries()) == 1  # tinyA checkpointed, tinyB not

        monkeypatch.delenv(FAULT_ENV)
        second = ExperimentSuite(
            circuits=CIRCUITS, options=OPTS, checkpoints=store, resume=True
        )
        report2 = run_parallel_suite(second, ParallelOptions(workers=2))
        assert report2.ok
        assert report2.resumed == ("tinyA",)
        assert report2.completed == ("tinyB",)
        assert not second.failures
        # The resumed circuit is bit-identical to the first run's.
        assert (
            second.run("tinyA").flow.to_dict()
            == first.run("tinyA").flow.to_dict()
        )


class TestFaultInjectionHook:
    def test_no_env_is_noop(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        _maybe_inject_fault("tinyA", "flow", 1)

    def test_error_mode_raises_only_on_match(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "tinyA:flow:error")
        _maybe_inject_fault("tinyB", "flow", 1)  # circuit mismatch
        _maybe_inject_fault("tinyA", "ilp", 1)  # engine mismatch
        with pytest.raises(RuntimeError, match="injected fault"):
            _maybe_inject_fault("tinyA", "flow", 1)

    def test_wildcards_and_attempt_limit(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "*:*:error:2")
        with pytest.raises(RuntimeError):
            _maybe_inject_fault("anything", "flow", 1)
        with pytest.raises(RuntimeError):
            _maybe_inject_fault("anything", "ilp", 2)
        _maybe_inject_fault("anything", "flow", 3)  # past the limit

    def test_malformed_specs_are_ignored(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "garbage, tinyA:flow , ,")
        _maybe_inject_fault("tinyA", "flow", 1)


class TestOptions:
    def test_flags_helper(self):
        opts = parallel_options_from_flags(4, timeout=0.0, max_retries=1, backoff=0.1)
        assert opts.workers == 4
        assert opts.timeout is None  # 0 = no deadline
        assert opts.max_retries == 1
        assert parallel_options_from_flags(0).workers == 1
        assert parallel_options_from_flags(2, timeout=5.0).timeout == 5.0

    def test_bad_worker_count_rejected(self):
        suite = ExperimentSuite(circuits=["tinyA"], options=OPTS)
        with pytest.raises(ValueError):
            ParallelSuiteRunner(suite, ParallelOptions(workers=0))
