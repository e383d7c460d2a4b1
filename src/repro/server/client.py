"""Stdlib urllib client for the repro flow service.

Typed wrapper over the ``/v1`` endpoints — the ``repro submit`` /
``repro status`` commands and the e2e tests both drive the server
through it.  HTTP 503 responses become
:class:`~repro.errors.SaturatedError` (with the server's ``Retry-After``
hint); other non-2xx responses become :class:`~repro.errors.ServerError`
carrying the server's JSON error message.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Mapping
from urllib.error import HTTPError
from urllib.request import Request as UrlRequest
from urllib.request import urlopen

from ..api import JobStatus
from ..errors import SaturatedError, ServerError
from .jobs import Request

_PATHS = {"flow": "flows", "check": "checks"}


class ServerClient:
    """Client for one server base URL (e.g. ``http://127.0.0.1:8765``)."""

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        request = UrlRequest(
            self.base_url + path,
            data=(
                None
                if body is None
                else json.dumps(body, sort_keys=True).encode()
            ),
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(response.read() or b"{}")
        except HTTPError as exc:
            raw = exc.read()
            try:
                doc = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                doc = {"error": raw.decode(errors="replace")}
            if exc.code == 503:
                retry_after = float(exc.headers.get("Retry-After", "1"))
                raise SaturatedError(
                    str(doc.get("error", "server saturated")),
                    retry_after_seconds=retry_after,
                ) from exc
            return exc.code, doc

    def _check(self, status: int, doc: dict[str, Any]) -> dict[str, Any]:
        if status >= 400:
            raise ServerError(
                f"server returned {status}: {doc.get('error', doc)}"
            )
        return doc

    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self._check(*self._call("GET", "/v1/healthz"))

    def stats(self) -> dict[str, Any]:
        return self._check(*self._call("GET", "/v1/stats"))

    def submit(self, request: Request) -> JobStatus:
        """Submit asynchronously; returns the initial job status."""
        path = f"/v1/{_PATHS[type(request).kind]}"
        status, doc = self._call("POST", path, request.to_dict())
        return JobStatus.from_dict(self._check(status, doc))

    def submit_and_wait(self, request: Request) -> dict[str, Any]:
        """Submit with ``?wait=1``; returns the result document.

        Raises :class:`SaturatedError` when the server sheds the request
        (queue full or deadline exceeded) and :class:`ServerError` when
        the job fails.
        """
        path = f"/v1/{_PATHS[type(request).kind]}?wait=1"
        return self._check(*self._call("POST", path, request.to_dict()))

    def status(self, job_id: str) -> JobStatus:
        return JobStatus.from_dict(
            self._check(*self._call("GET", f"/v1/jobs/{job_id}"))
        )

    def result(self, job_id: str) -> dict[str, Any]:
        return self._check(*self._call("GET", f"/v1/jobs/{job_id}/result"))

    def wait(self, job_id: str, timeout: float | None = None) -> JobStatus:
        """Follow the event stream until the job is terminal.

        The server holds the ``/events`` connection open and closes it on
        completion, so this needs no polling loop.
        """
        for _ in self.events(job_id):
            pass
        del timeout  # server-side close bounds the wait
        return self.status(job_id)

    def events(self, job_id: str, since: int = 0) -> Iterator[dict[str, Any]]:
        """Yield progress events (ndjson lines) until the job is terminal."""
        request = UrlRequest(
            f"{self.base_url}/v1/jobs/{job_id}/events?since={since}",
            method="GET",
        )
        try:
            with urlopen(request, timeout=self.timeout) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line)
        except HTTPError as exc:
            raise ServerError(
                f"server returned {exc.code} for events of {job_id}"
            ) from exc


__all__ = ["ServerClient"]
