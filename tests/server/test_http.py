"""End-to-end tests over the HTTP transport (real sockets, stdlib client).

A module-scoped server on an ephemeral port serves every read-only
test; load-shedding tests boot their own narrow servers so queue and
deadline state never leak between tests.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.api import (
    API_VERSION,
    CheckRequest,
    FlowRequest,
    JobState,
    JobStatus,
)
from repro.core import FlowOptions
from repro.errors import SaturatedError, ServerError
from repro.obs import TraceCollector
from repro.server import ReproHTTPServer, ServerClient, ServerOptions, make_server

FAST = FlowOptions(max_iterations=2, ring_grid_side=2)
REQUEST = FlowRequest(circuit="s27", options=FAST)


@pytest.fixture(scope="module")
def server():
    collector = TraceCollector()
    srv = make_server(
        options=ServerOptions(workers=1, execution="inline"),
        collector=collector,
    )
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.service.close()
    thread.join()


@pytest.fixture(scope="module")
def client(server: ReproHTTPServer) -> ServerClient:
    return ServerClient(server.url, timeout=120.0)


@pytest.fixture(scope="module")
def first_doc(client: ServerClient) -> dict:
    return client.submit_and_wait(REQUEST)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.health() == {"status": "ok"}

    def test_submit_poll_result(self, client, first_doc):
        status = client.submit(REQUEST.replace(circuit="s344"))
        assert isinstance(status, JobStatus)
        final = client.wait(status.job_id)
        assert final.state is JobState.DONE
        doc = client.result(status.job_id)
        assert doc["kind"] == "flow"
        assert doc["result"]["circuit"] == "s344"

    def test_wait_returns_result_document(self, first_doc):
        assert first_doc["kind"] == "flow"
        assert first_doc["cached"] is False
        assert len(first_doc["request_digest"]) == 64
        assert first_doc["result"]["circuit"] == "s27"

    def test_identical_resubmit_is_cache_hit(self, client, first_doc):
        before = client.stats()["cache"]
        doc = client.submit_and_wait(REQUEST)
        after = client.stats()["cache"]
        assert doc["cached"] is True
        assert after["hits"] == before["hits"] + 1
        assert after["hit_rate"] > 0
        # Byte-identical result payload, modulo the cached flag.
        a, b = dict(first_doc), dict(doc)
        a.pop("cached"), b.pop("cached")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_event_stream_replays_iterations(self, client, first_doc):
        status = client.submit(REQUEST)  # cache-served, already terminal
        events = list(client.events(status.job_id))
        assert events and events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        # since=N resumes after the Nth event.
        tail = list(client.events(status.job_id, since=len(events) - 1))
        assert tail == events[-1:]

    @pytest.mark.parametrize(
        "since", ["abc", "-2", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_bad_event_cursor_is_400(self, server, client, first_doc, since):
        """A cursor that is not an integer >= 0 is refused before any
        header goes out: not a dropped connection, not a replayed tail."""
        job_id = client.submit(REQUEST).job_id
        url = f"{server.url}/v1/jobs/{job_id}/events?since={since}"
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(url, timeout=10.0)
        assert exc_info.value.code == 400
        assert "since must be an integer >= 0" in json.load(exc_info.value)["error"]

    def test_status_endpoint_round_trips_schema(self, client, first_doc):
        status = client.submit(REQUEST)
        fetched = client.status(status.job_id)
        assert fetched == JobStatus.from_dict(fetched.to_dict())
        assert fetched.cached and fetched.state is JobState.DONE

    def test_stats_document_shape(self, client, first_doc):
        stats = client.stats()
        assert stats["workers"] == 1 and stats["execution"] == "inline"
        assert set(stats["shed"]) == {"deadline", "queue_full"}
        assert stats["failures"] == {"crash": 0, "error": 0, "timeout": 0}
        assert stats["retries"] == 0
        assert stats["jobs"]["done"] >= 1

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServerError, match="404"):
            client.status("job-99999999")
        with pytest.raises(ServerError, match="404"):
            client.result("job-99999999")
        with pytest.raises(ServerError, match="404"):
            list(client.events("job-99999999"))

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServerError, match="404"):
            client._check(*client._call("GET", "/v1/nope"))
        with pytest.raises(ServerError, match="404"):
            client._check(*client._call("POST", "/v1/nope", {}))

    def _post_doc(self, server, doc: dict, endpoint: str = "flows") -> int:
        """POST ``doc`` to a submit endpoint; the HTTP error status."""
        request = urllib.request.Request(
            server.url + f"/v1/{endpoint}",
            data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10.0)
        return exc_info.value.code

    def test_malformed_document_is_400(self, server):
        doc = {"api_version": API_VERSION, "kind": "flow"}  # missing circuit
        assert self._post_doc(server, doc) == 400

    def test_invalid_options_are_400(self, server):
        doc = REQUEST.to_dict()
        doc["options"]["assignment"] = "Flow"
        assert self._post_doc(server, doc) == 400

    @pytest.mark.parametrize(
        ("field", "value"), [("ring_grid_side", 0), ("candidate_rings", -1)]
    )
    def test_out_of_range_options_are_400(self, server, field, value):
        doc = REQUEST.to_dict()
        doc["options"][field] = value
        assert self._post_doc(server, doc) == 400

    @pytest.mark.parametrize(
        ("endpoint", "field", "value"),
        [
            ("flows", "deadline_seconds", float("nan")),
            ("flows", "deadline_seconds", -5),
            ("flows", "circuit", 27),
            ("checks", "deadline_seconds", float("nan")),
            ("checks", "netlist_only", "false"),
        ],
    )
    def test_bad_request_fields_are_400(self, server, endpoint, field, value):
        request = REQUEST if endpoint == "flows" else CheckRequest(circuit="s27")
        doc = request.to_dict()
        doc[field] = value
        assert self._post_doc(server, doc, endpoint=endpoint) == 400

    def test_tables_endpoint_is_gone(self, server, tmp_path):
        """The tables suite runs in-process only: a client cannot make
        the server run it or create a checkpoint directory."""
        probe = tmp_path / "ckpt_probe"
        doc = {
            "api_version": API_VERSION,
            "kind": "tables",
            "circuits": ["tinyA"],
            "checkpoint_dir": str(probe),
        }
        assert self._post_doc(server, doc, endpoint="tables?wait=1") == 404
        assert not probe.exists()

    def test_result_before_terminal_is_409(self, server, client):
        # Submit directly to the store, bypassing the dispatcher, so the
        # job is observably non-terminal.
        job = server.service.jobs.create("flow", REQUEST, "0" * 64, "s27")
        status, doc = client._call("GET", f"/v1/jobs/{job.job_id}/result")
        assert status == 409
        assert doc["state"] == "queued"


class TestSheddingOverHTTP:
    def test_deadline_exceeded_is_503_with_retry_after(self):
        # Tiny deadline + an unstarted-dispatcher window is not possible
        # over HTTP (make_server starts the service), so rely on the
        # admit-time shed: the deadline passes while the job waits for
        # the dispatcher's first poll.
        srv = make_server(
            options=ServerOptions(
                workers=1, execution="inline", retry_after_seconds=2.5
            )
        )
        thread = threading.Thread(
            target=srv.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            client = ServerClient(srv.url, timeout=30.0)
            with pytest.raises(SaturatedError) as exc_info:
                client.submit_and_wait(
                    REQUEST.replace(deadline_seconds=1e-6)
                )
            assert exc_info.value.retry_after_seconds == pytest.approx(2.5)
            # The 503 races the dispatcher's admit-time shed; the job
            # must still end FAILED("timeout"), never run late.
            deadline = time.monotonic() + 10.0
            while (
                srv.service.stats()["shed"]["deadline"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert srv.service.stats()["shed"]["deadline"] == 1
            assert srv.service.stats()["jobs"]["failed"] == 1
        finally:
            srv.shutdown()
            srv.server_close()
            srv.service.close()
            thread.join()
