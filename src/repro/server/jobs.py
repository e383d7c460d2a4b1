"""In-memory job store: queue, lifecycle, and event log of every job.

One lock + condition guards everything; waiters (HTTP handlers blocking
on ``?wait=1`` or streaming ``/events``) and the dispatcher thread all
synchronize here.  Job ids are sequential (``job-00000001``), timing is
monotonic-clock durations only, and the queue has a hard depth bound —
exceeding it raises :class:`~repro.errors.SaturatedError`, which HTTP
maps to ``503 + Retry-After``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Union

from ..api import CheckRequest, FlowRequest, JobError, JobState, JobStatus
from ..errors import SaturatedError, UnknownJobError

Request = Union[FlowRequest, CheckRequest]


@dataclass(slots=True)
class Job:
    """Mutable server-side state of one submitted request."""

    job_id: str
    kind: str
    request: Request
    digest: str
    circuit: str
    state: JobState = JobState.QUEUED
    cached: bool = False
    attempts: int = 0
    #: Monotonic timestamps (durations only ever leave the process).
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Monotonic instant after which the job is shed instead of run.
    deadline_at: float | None = None
    result_doc: dict[str, Any] | None = None
    error: JobError | None = None
    events: list[dict[str, Any]] = field(default_factory=list)

    def status(self, now: float) -> JobStatus:
        """The wire-visible snapshot at monotonic instant ``now``."""
        started = self.started_at
        finished = self.finished_at
        if started is None:
            queued = (finished if finished is not None else now) - self.submitted_at
            run = 0.0
        else:
            queued = started - self.submitted_at
            run = (finished if finished is not None else now) - started
        return JobStatus(
            job_id=self.job_id,
            kind=self.kind,
            state=self.state,
            request_digest=self.digest,
            circuit=self.circuit,
            cached=self.cached,
            attempts=self.attempts,
            queued_seconds=max(0.0, queued),
            run_seconds=max(0.0, run),
            num_events=len(self.events),
            error=self.error,
        )


class JobStore:
    """Bounded queue plus the full job table and per-job event logs."""

    def __init__(self, max_queue_depth: int = 64) -> None:
        if max_queue_depth < 1:
            raise ValueError("JobStore max_queue_depth must be >= 1")
        self.max_queue_depth = max_queue_depth
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._queue: deque[str] = deque()
        self._next_id = 1
        self._stopping = False

    # ------------------------------------------------------------------
    # Creation and queueing.
    # ------------------------------------------------------------------
    def create(
        self,
        kind: str,
        request: Request,
        digest: str,
        circuit: str,
        deadline_seconds: float | None = None,
    ) -> Job:
        """Register a new job (not yet queued)."""
        now = time.monotonic()
        with self._lock:
            job_id = f"job-{self._next_id:08d}"
            self._next_id += 1
            job = Job(
                job_id=job_id,
                kind=kind,
                request=request,
                digest=digest,
                circuit=circuit,
                submitted_at=now,
                deadline_at=(
                    None if deadline_seconds is None else now + deadline_seconds
                ),
            )
            self._jobs[job_id] = job
            return job

    def enqueue(self, job: Job, retry_after_seconds: float = 1.0) -> None:
        """Queue a job for the dispatcher; sheds when the queue is full."""
        with self._changed:
            if len(self._queue) >= self.max_queue_depth:
                del self._jobs[job.job_id]
                raise SaturatedError(
                    f"queue full ({self.max_queue_depth} jobs waiting)",
                    retry_after_seconds=retry_after_seconds,
                )
            self._queue.append(job.job_id)
            self._changed.notify_all()

    def claim(self, max_jobs: int, timeout: float) -> list[Job]:
        """Pop up to ``max_jobs`` queued jobs, waiting up to ``timeout``.

        Returns an empty list on timeout or when the store is stopping.
        Claimed jobs stay :attr:`JobState.QUEUED` until the dispatcher
        marks them running — claiming is a scheduling step, not a state
        transition.
        """
        with self._changed:
            if not self._queue and not self._stopping and timeout > 0.0:
                self._changed.wait(timeout)
            claimed: list[Job] = []
            while self._queue and len(claimed) < max_jobs and not self._stopping:
                claimed.append(self._jobs[self._queue.popleft()])
            return claimed

    def stop(self) -> None:
        """Wake every waiter; subsequent claims return immediately."""
        with self._changed:
            self._stopping = True
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle transitions (dispatcher side).
    # ------------------------------------------------------------------
    def mark_running(self, job_id: str, attempt: int) -> None:
        with self._changed:
            job = self._get(job_id)
            job.attempts = attempt
            if job.state is JobState.QUEUED:
                job.state = JobState.RUNNING
                job.started_at = time.monotonic()
                self._append_event(job, {"event": "state", "state": "running"})
            self._changed.notify_all()

    def finish(self, job_id: str, result_doc: dict[str, Any]) -> None:
        with self._changed:
            job = self._get(job_id)
            job.result_doc = result_doc
            job.state = JobState.DONE
            job.finished_at = time.monotonic()
            self._append_event(job, {"event": "state", "state": "done"})
            self._changed.notify_all()

    def finish_cached(self, job_id: str, result_doc: dict[str, Any]) -> None:
        """Complete a job straight from the result cache (never queued)."""
        with self._changed:
            job = self._get(job_id)
            job.result_doc = result_doc
            job.cached = True
            job.state = JobState.DONE
            job.started_at = job.submitted_at
            job.finished_at = time.monotonic()
            self._append_event(
                job, {"event": "state", "state": "done", "cached": True}
            )
            self._changed.notify_all()

    def fail(self, job_id: str, error: JobError) -> None:
        with self._changed:
            job = self._get(job_id)
            job.error = error
            job.attempts = max(job.attempts, error.attempts)
            job.state = JobState.FAILED
            job.finished_at = time.monotonic()
            self._append_event(
                job,
                {"event": "state", "state": "failed", "kind": error.kind},
            )
            self._changed.notify_all()

    def add_event(self, job_id: str, event: dict[str, Any]) -> None:
        """Append one progress event (e.g. an iteration record)."""
        with self._changed:
            self._append_event(self._get(job_id), event)
            self._changed.notify_all()

    # ------------------------------------------------------------------
    # Readers (HTTP side).
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._get(job_id)

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            return self._get(job_id).status(time.monotonic())

    def wait_terminal(self, job_id: str, timeout: float | None) -> Job:
        """Block until the job is DONE/FAILED or ``timeout`` elapses.

        Returns the job either way; callers check ``job.state.terminal``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._changed:
            job = self._get(job_id)
            while not job.state.terminal:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0.0:
                    break
                self._changed.wait(
                    1.0 if remaining is None else min(1.0, remaining)
                )
            return job

    def wait_events(
        self, job_id: str, since: int, timeout: float
    ) -> tuple[list[dict[str, Any]], bool]:
        """Events after index ``since`` plus whether the job is terminal.

        Blocks up to ``timeout`` for new events; an empty list with
        ``terminal=True`` tells streamers to close.
        """
        deadline = time.monotonic() + timeout
        with self._changed:
            job = self._get(job_id)
            while len(job.events) <= since and not job.state.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                self._changed.wait(min(1.0, remaining))
            return list(job.events[since:]), job.state.terminal

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def counts(self) -> dict[str, int]:
        """Jobs per state (stable key order for JSON output)."""
        with self._lock:
            counts = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            return counts

    # ------------------------------------------------------------------
    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        return job

    def _append_event(self, job: Job, event: dict[str, Any]) -> None:
        job.events.append({"seq": len(job.events), **event})


__all__ = ["Job", "JobStore", "Request"]
