"""End-to-end tests of the in-process FlowService (no HTTP).

The contract under test: a job submitted to the service produces a
result document byte-identical to the in-process ``run_flow`` call
(modulo wall-clock ``seconds*`` fields and the trace), identical
resubmits are served from the digest-keyed cache without re-running,
and the load-shedding knobs (queue depth, per-request deadline) fail
jobs with ``SaturatedError`` / ``kind="timeout"`` instead of running
them late.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

import pytest

from repro.api import CheckRequest, FlowRequest, FlowResponse, JobState, run_flow
from repro.core import FlowOptions
from repro.errors import SaturatedError, ServerError
from repro.server.worker import FAULT_ENV
from repro.obs import TraceCollector
from repro.server import FlowService, ServerOptions

FAST = FlowOptions(max_iterations=2, ring_grid_side=2)
REQUEST = FlowRequest(circuit="s27", options=FAST)


def strip_timing(doc: Any) -> Any:
    """Drop wall-clock fields: what byte-identity is defined over."""
    if isinstance(doc, dict):
        return {
            k: strip_timing(v)
            for k, v in doc.items()
            if not k.startswith("seconds") and k != "trace"
        }
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


@pytest.fixture(scope="module")
def inline_run():
    """One service lifetime shared by the read-only inline-mode tests."""
    collector = TraceCollector()
    options = ServerOptions(workers=1, execution="inline")
    with FlowService(options, collector=collector) as service:
        first = service.wait(service.submit(REQUEST).job_id)
        second = service.wait(service.submit(REQUEST).job_id)
        events = service.jobs.wait_events(first.job_id, 0, timeout=0.0)[0]
        yield service, collector, first, second, events


class TestInlineExecution:
    def test_job_completes(self, inline_run):
        _, _, first, _, _ = inline_run
        assert first.state is JobState.DONE
        assert first.result_doc is not None
        assert first.result_doc["kind"] == "flow"
        assert not first.result_doc["cached"]

    def test_result_byte_identical_to_in_process_run(self, inline_run):
        _, _, first, _, _ = inline_run
        direct = run_flow(REQUEST)
        served = strip_timing(first.result_doc)
        expected = strip_timing(direct.to_dict())
        assert json.dumps(served, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        via_schema = FlowResponse.from_dict(first.result_doc)
        assert via_schema.decision_digest() == direct.decision_digest()

    def test_identical_resubmit_served_from_cache(self, inline_run):
        service, collector, first, second, _ = inline_run
        assert second.cached and not first.cached
        trace = collector.trace()
        assert trace.counter("server.cache-hits") >= 1
        # No re-run: exactly one job ever executed.
        assert trace.counter("server.jobs-completed") == 1
        assert service.cache.hits >= 1

    def test_cached_response_bytes_untouched(self, inline_run):
        _, _, first, second, _ = inline_run
        a = dict(first.result_doc)
        b = dict(second.result_doc)
        assert b.pop("cached") is True and a.pop("cached") is False
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_live_iteration_events_streamed(self, inline_run):
        _, _, first, _, events = inline_run
        iterations = [e for e in events if e.get("event") == "iteration"]
        states = [e for e in events if e.get("event") == "state"]
        assert len(iterations) == len(first.result_doc["result"]["history"])
        assert [e["state"] for e in states] == ["running", "done"]
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_cached_job_reports_zero_latency(self, inline_run):
        service, _, _, second, _ = inline_run
        status = service.jobs.status(second.job_id)
        assert status.cached
        assert status.run_seconds == pytest.approx(0.0, abs=0.05)

    def test_flow_job_runs_under_the_worker_budget(self, monkeypatch):
        """Inline flow jobs get the service's intra-run budget, as check
        jobs and process-mode jobs do, and stream each iteration once."""
        import repro.api

        seen_jobs = []

        class RecordingFlow(repro.api.IntegratedFlow):
            def run(self):
                seen_jobs.append(self.options.jobs)
                return super().run()

        monkeypatch.setattr(repro.api, "IntegratedFlow", RecordingFlow)
        options = ServerOptions(workers=1, execution="inline", intra_jobs=2)
        with FlowService(options) as service:
            job = service.wait(service.submit(REQUEST).job_id)
            events = service.jobs.wait_events(job.job_id, 0, timeout=0.0)[0]
        assert job.state is JobState.DONE
        assert seen_jobs == [2]
        assert service.stats()["intra_jobs"] == 2
        iterations = [e for e in events if e.get("event") == "iteration"]
        assert len(iterations) == len(job.result_doc["result"]["history"])


class TestProcessExecution:
    def test_process_wave_matches_inline(self, inline_run):
        _, _, first, _, inline_events = inline_run
        with FlowService(ServerOptions(workers=1)) as service:
            job = service.wait(service.submit(REQUEST).job_id)
            events = service.jobs.wait_events(job.job_id, 0, timeout=0.0)[0]
        assert job.state is JobState.DONE
        assert strip_timing(job.result_doc) == strip_timing(first.result_doc)
        # Post-hoc events carry the same iteration records as the live
        # inline stream (records embed per-iteration CPU seconds, so
        # compare the timing-stripped content).
        assert strip_timing(
            [e for e in events if e.get("event") == "iteration"]
        ) == strip_timing(
            [e for e in inline_events if e.get("event") == "iteration"]
        )

    def test_worker_crash_fails_job_with_crash_kind(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "s27:flow:crash")
        with FlowService(ServerOptions(workers=1)) as service:
            job = service.wait(service.submit(REQUEST).job_id)
        assert job.state is JobState.FAILED
        assert job.error is not None
        assert job.error.kind == "crash"
        assert job.error.attempts == 1
        assert (service.crashes, service.retries) == (1, 0)

    def test_crash_once_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "s27:flow:crash:1")
        options = ServerOptions(
            workers=1, max_retries=1, retry_backoff_seconds=0.01
        )
        with FlowService(options) as service:
            job = service.wait(service.submit(REQUEST).job_id)
        assert job.state is JobState.DONE
        assert job.attempts == 2
        stats = service.stats()
        assert stats["failures"] == {"crash": 1, "error": 0, "timeout": 0}
        assert stats["retries"] == 1

    def test_crash_is_charged_only_to_the_job_that_crashed(self, monkeypatch):
        """Only the §VI job's process dies: its §V wave-mate, submitted
        first into the same wave, completes on its first attempt."""
        monkeypatch.setenv(FAULT_ENV, "tinyB:ilp:crash")
        sec5 = FlowRequest(circuit="tinyB", options=FlowOptions(max_iterations=2))
        sec6 = sec5.replace(options=sec5.options.replace(assignment="ilp"))
        service = FlowService(ServerOptions(workers=2, max_retries=0))
        # Both queued before the dispatcher starts: one wave.
        ids = [service.submit(request).job_id for request in (sec5, sec6)]
        with service:
            done, crashed = (service.wait(job_id) for job_id in ids)
        assert (done.state, done.attempts) == (JobState.DONE, 1)
        assert crashed.state is JobState.FAILED and crashed.error is not None
        assert (crashed.error.kind, crashed.error.attempts) == ("crash", 1)
        assert service.stats()["failures"] == {"crash": 1, "error": 0, "timeout": 0}

    def test_timeout_is_charged_only_to_the_job_whose_deadline_passed(
        self, monkeypatch
    ):
        """A hung job with a short deadline is killed alone: the flow
        beside it has no deadline, outlasts the hung job's several times
        over, and completes on its first attempt."""
        monkeypatch.setenv(FAULT_ENV, "tinyB:flow:hang")
        flow = FlowRequest(circuit="s15850", options=FlowOptions(max_iterations=2))
        hung = FlowRequest(
            circuit="tinyB",
            options=FlowOptions(max_iterations=2),
            deadline_seconds=0.25,
        )
        service = FlowService(ServerOptions(workers=2, max_retries=0))
        ids = [service.submit(request).job_id for request in (flow, hung)]
        with service:
            done, killed = (service.wait(job_id) for job_id in ids)
        assert (done.state, done.attempts) == (JobState.DONE, 1)
        assert killed.state is JobState.FAILED and killed.error is not None
        assert killed.error.kind == "timeout"
        assert service.stats()["failures"] == {"crash": 0, "error": 0, "timeout": 1}

    def test_far_deadline_job_completes(self):
        """A deadline weeks away is waited out in bounded pauses: the
        dispatcher survives and the job runs to completion."""
        request = REQUEST.replace(deadline_seconds=1e9)
        with FlowService(ServerOptions(workers=1)) as service:
            job = service.wait(service.submit(request).job_id, timeout=120.0)
            assert (job.state, job.attempts) == (JobState.DONE, 1)

    def test_check_request_runs_in_worker(self):
        request = CheckRequest(circuit="s27", options=FAST, netlist_only=True)
        with FlowService(ServerOptions(workers=1)) as service:
            job = service.wait(service.submit(request).job_id)
        assert job.state is JobState.DONE
        assert job.result_doc["kind"] == "check"
        assert job.result_doc["report"]["design"] == "s27"
        assert "exit_code" in job.result_doc


class TestOptionsValidation:
    """Settings no scheduler honours fail at construction, naming field
    and value, instead of shedding or timing out every job later."""

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("workers", 0),
            ("workers", True),
            ("max_queue_depth", 0),
            ("cache_capacity", 0),
            ("default_deadline_seconds", -1.0),
            ("default_deadline_seconds", 0.0),
            ("task_timeout_seconds", -1.0),
            ("task_timeout_seconds", float("inf")),
            ("max_retries", -1),
            ("retry_backoff_seconds", -0.1),
            ("retry_after_seconds", float("nan")),
            ("poll_seconds", 0.0),
            ("execution", "thread"),
            ("intra_jobs", 0),
            ("intra_jobs", "all"),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ServerError, match=f"ServerOptions.{field} must be"):
            ServerOptions(**{field: value})

    def test_defaults_and_limits_accepted(self):
        ServerOptions()
        ServerOptions(
            workers=1,
            max_queue_depth=1,
            cache_capacity=1,
            default_deadline_seconds=1e-6,
            task_timeout_seconds=3,
            max_retries=0,
            retry_backoff_seconds=0,
            retry_after_seconds=0.0,
            intra_jobs=1,
        )


class TestClose:
    def test_close_runs_no_queued_job(self, monkeypatch):
        """close() waits for the running job only: a job still queued is
        never started, since nobody would collect its result (the HTTP
        socket is already closed, or the table suite was interrupted)."""
        import repro.server.service as service_module

        service = FlowService(ServerOptions(workers=1, execution="inline"))
        started = threading.Event()
        ran = []

        def blocking(payload, on_iteration=None):
            ran.append(payload["request"]["circuit"])
            started.set()
            # Finish only once close() has been called.
            service._stop.wait(10.0)
            raise RuntimeError("interrupted")

        monkeypatch.setattr(service_module, "execute_request_payload", blocking)
        first = service.submit(REQUEST)
        second = service.submit(REQUEST.replace(circuit="s344"))
        service.start()
        assert started.wait(10.0)
        service.close()
        assert ran == ["s27"]
        assert service.jobs.get(first.job_id).state is JobState.FAILED
        assert service.jobs.get(second.job_id).state is JobState.QUEUED


class TestLoadShedding:
    def test_queue_full_sheds_with_saturated_error(self):
        service = FlowService(ServerOptions(max_queue_depth=1))
        # Not started: jobs stay queued, so the second submit must shed.
        service.submit(REQUEST)
        with pytest.raises(SaturatedError) as exc_info:
            service.submit(REQUEST.replace(circuit="s344"))
        assert exc_info.value.retry_after_seconds > 0
        assert service.shed_queue_full == 1
        assert service.stats()["shed"]["queue_full"] == 1

    def test_job_queued_past_deadline_is_shed_not_run(self):
        service = FlowService(ServerOptions(workers=1))
        job = service.submit(REQUEST.replace(deadline_seconds=1e-6))
        with service:  # dispatcher starts only now, past the deadline
            done = service.wait(job.job_id)
        assert done.state is JobState.FAILED
        assert done.error is not None and done.error.kind == "timeout"
        assert service.shed_deadline == 1

    def test_default_deadline_applies_when_request_has_none(self):
        options = ServerOptions(workers=1, default_deadline_seconds=1e-6)
        service = FlowService(options)
        job = service.submit(REQUEST)
        with service:
            done = service.wait(job.job_id)
        assert done.state is JobState.FAILED
        assert done.error is not None and done.error.kind == "timeout"

    def test_result_doc_raises_for_failed_job(self):
        service = FlowService(ServerOptions(workers=1))
        job = service.submit(REQUEST.replace(deadline_seconds=1e-6))
        with service:
            service.wait(job.job_id)
        with pytest.raises(ServerError, match="has no result"):
            service.result_doc(job.job_id)


#: Runs in a fresh interpreter: makes the imports ``repro serve`` makes,
#: then executes one flow and one check payload the way a forked worker
#: would, and prints every ``repro`` module the two jobs imported.
_WORKER_IMPORTS_DRIVER = """
import json
import sys

import repro.cli
from repro.obs import TraceCollector
from repro.server import ServerOptions, serve
from repro.api import CheckRequest, FlowRequest
from repro.core import FlowOptions
from repro.server.worker import execute_request_payload

def loaded():
    return {m for m in sys.modules if m == "repro" or m.startswith("repro.")}

before = loaded()
options = FlowOptions(max_iterations=1, ring_grid_side=2)
for kind, request in (
    ("flow", FlowRequest(circuit="s27", options=options)),
    ("check", CheckRequest(circuit="s27", options=options)),
):
    execute_request_payload(
        {"kind": kind, "attempt": 1, "request": request.to_dict()}
    )
print(json.dumps(sorted(loaded() - before)))
"""


def test_forked_worker_imports_nothing_per_job():
    """A worker forked from ``repro serve`` already holds every module a
    flow or check job needs, so no job pays for imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORTS_DRIVER],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
