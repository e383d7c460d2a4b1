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

    def test_crash_once_retried_to_success(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "s27:flow:crash:1")
        options = ServerOptions(
            workers=1, max_retries=1, retry_backoff_seconds=0.01
        )
        with FlowService(options) as service:
            job = service.wait(service.submit(REQUEST).job_id)
        assert job.state is JobState.DONE
        assert job.attempts == 2

    def test_check_request_runs_in_worker(self):
        request = CheckRequest(circuit="s27", options=FAST, netlist_only=True)
        with FlowService(ServerOptions(workers=1)) as service:
            job = service.wait(service.submit(request).job_id)
        assert job.state is JobState.DONE
        assert job.result_doc["kind"] == "check"
        assert job.result_doc["report"]["design"] == "s27"
        assert "exit_code" in job.result_doc


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
