"""Stdlib HTTP/JSON transport for :class:`~repro.server.service.FlowService`.

Endpoints (all under ``/v1``, all JSON):

* ``POST /v1/flows`` / ``/v1/checks`` — submit a request document
  (:class:`repro.api.FlowRequest` / :class:`repro.api.CheckRequest`).
  Returns ``202`` with the :class:`~repro.api.JobStatus` document; with
  ``?wait=1`` blocks until the job is terminal and returns ``200`` with
  the result document (or ``503 + Retry-After`` when the request's
  deadline passes first, ``500`` with the status document on failure).
  A full queue is ``503 + Retry-After``; a malformed document is ``400``.
* ``GET /v1/jobs/<id>`` — the job's status document.
* ``GET /v1/jobs/<id>/result`` — the result document (``409`` while the
  job is still running, ``500`` with the status document when FAILED).
* ``GET /v1/jobs/<id>/events?since=N`` — newline-delimited JSON event
  stream (iteration records + state transitions), closed when the job
  reaches a terminal state.  HTTP/1.0 close-delimited: no chunked
  encoding needed.  ``since`` must be an integer >= 0 (``400``
  otherwise).
* ``GET /v1/healthz`` and ``GET /v1/stats``.

Built on ``ThreadingHTTPServer``: one thread per connection, so waiters
and streamers never block the dispatcher or each other.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import parse_qs, urlparse

from ..api import CheckRequest, FlowRequest, JobState
from ..errors import ReproError, SaturatedError, UnknownJobError
from ..obs import NULL_COLLECTOR, Collector
from .jobs import Request
from .service import FlowService, ServerOptions

_REQUEST_TYPES: dict[str, type[Request]] = {
    "flows": FlowRequest,
    "checks": CheckRequest,
}


class ReproHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a :class:`FlowService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: FlowService,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = str(self.server_address[0])
        return f"http://{host}:{self.port}"


class _Handler(BaseHTTPRequestHandler):
    # Close-delimited responses make the event stream trivial: write
    # lines, close the socket when the job is terminal.
    protocol_version = "HTTP/1.0"

    @property
    def service(self) -> FlowService:
        assert isinstance(self.server, ReproHTTPServer)
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:
        if isinstance(self.server, ReproHTTPServer) and self.server.quiet:
            return
        super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        doc: Mapping[str, Any],
        headers: Mapping[str, str] | None = None,
    ) -> None:
        body = json.dumps(doc, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name in sorted(headers or {}):
            self.send_header(name, (headers or {})[name])
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_saturated(self, exc: SaturatedError) -> None:
        self._send_json(
            503,
            {"error": str(exc)},
            headers={"Retry-After": f"{exc.retry_after_seconds:g}"},
        )

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "v1" or parts[1] not in _REQUEST_TYPES:
            self._send_error_json(404, f"unknown endpoint {url.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b"{}"
            doc = json.loads(raw)
            request = _REQUEST_TYPES[parts[1]].from_dict(doc)
        except (json.JSONDecodeError, ReproError, KeyError, TypeError, ValueError) as exc:
            self._send_error_json(400, f"bad request document: {exc}")
            return
        try:
            job = self.service.submit(request)
        except SaturatedError as exc:
            self._send_saturated(exc)
            return
        query = parse_qs(url.query)
        if query.get("wait", ["0"])[0] in ("1", "true", "yes"):
            self._wait_and_reply(job.job_id, request)
            return
        self._send_json(202, self.service.jobs.status(job.job_id).to_dict())

    def _wait_and_reply(self, job_id: str, request: Request) -> None:
        timeout = request.deadline_seconds
        if timeout is None:
            timeout = self.service.options.default_deadline_seconds
        job = self.service.wait(job_id, timeout)
        if not job.state.terminal:
            self._send_saturated(
                SaturatedError(
                    f"deadline exceeded waiting for {job_id}",
                    retry_after_seconds=self.service.options.retry_after_seconds,
                )
            )
            return
        if job.state is JobState.DONE and job.result_doc is not None:
            self._send_json(200, job.result_doc)
            return
        if job.error is not None and job.error.kind == "timeout":
            # The service shed the job at its deadline: overload, not a
            # computation failure — tell the client to come back.
            self._send_saturated(
                SaturatedError(
                    f"job {job_id} shed: {job.error.message}",
                    retry_after_seconds=self.service.options.retry_after_seconds,
                )
            )
            return
        self._send_json(500, self.service.jobs.status(job_id).to_dict())

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "healthz"]:
                self._send_json(200, {"status": "ok"})
            elif parts == ["v1", "stats"]:
                self._send_json(200, self.service.stats())
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send_json(
                    200, self.service.jobs.status(parts[2]).to_dict()
                )
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
                self._send_result(parts[2])
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "events":
                self._stream_events(parts[2], parse_qs(url.query))
            else:
                self._send_error_json(404, f"unknown endpoint {url.path}")
        except UnknownJobError as exc:
            self._send_error_json(404, str(exc))

    def _send_result(self, job_id: str) -> None:
        job = self.service.jobs.get(job_id)
        if job.state is JobState.DONE and job.result_doc is not None:
            self._send_json(200, job.result_doc)
        elif job.state is JobState.FAILED:
            self._send_json(500, self.service.jobs.status(job_id).to_dict())
        else:
            self._send_json(409, self.service.jobs.status(job_id).to_dict())

    def _stream_events(
        self, job_id: str, query: Mapping[str, list[str]]
    ) -> None:
        self.service.jobs.get(job_id)  # 404 before headers go out
        raw = query.get("since", ["0"])[0]
        try:
            since = int(raw)
        except ValueError:
            since = -1
        if since < 0:
            self._send_error_json(400, f"since must be an integer >= 0, got {raw!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        while True:
            events, terminal = self.service.jobs.wait_events(
                job_id, since, timeout=1.0
            )
            for event in events:
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode()
                )
            if events:
                self.wfile.flush()
            since += len(events)
            if terminal and not events:
                break


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    options: ServerOptions | None = None,
    collector: Collector = NULL_COLLECTOR,
    quiet: bool = True,
) -> ReproHTTPServer:
    """A ready-to-run server (service started, HTTP socket bound).

    ``port=0`` binds an ephemeral port (see ``server.port``).  Callers
    own the loop: ``serve_forever()`` to block, or drive it from a
    thread and ``shutdown()`` + ``close()`` when done.
    """
    service = FlowService(options, collector=collector).start()
    return ReproHTTPServer((host, port), service, quiet=quiet)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    options: ServerOptions | None = None,
    collector: Collector = NULL_COLLECTOR,
    quiet: bool = False,
    ready: "threading.Event | None" = None,
) -> None:
    """Run the service until interrupted (the ``repro serve`` command)."""
    server = make_server(
        host, port, options=options, collector=collector, quiet=quiet
    )
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.service.close()


__all__ = ["ReproHTTPServer", "make_server", "serve"]
