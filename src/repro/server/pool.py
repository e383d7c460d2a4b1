"""One process per task for the flow service.

The process-mode dispatcher of :class:`~repro.server.service.FlowService`
runs its jobs through :func:`run_wave`, which starts one
``multiprocessing.Process`` per task, each with its own one-way pipe,
and gives process fan-out three guarantees:

* **exact attribution** — a child that dies is a crash of its own task,
  and a passed deadline kills that task's child alone: no task is
  killed, charged or re-run because of a wave-mate;
* **honest deadlines** — a wave never exceeds the worker count, so every
  task starts executing immediately and its deadline measures the task,
  not queue time;
* **bounded exponential backoff** — :func:`backoff_delay` is the one
  formula between retries.

Task functions must be module-level picklable (the platform's default
start method may be ``spawn``) and receive the task's ``payload`` dict.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Hashable, Mapping, Sequence

from ..obs import NULL_COLLECTOR, Collector

#: One failed attempt: ``(task, kind, message)``, where ``kind`` is
#: ``"timeout"``, ``"crash"`` or ``"error"``.
WaveFailure = tuple["WaveTask", str, str]


@dataclass(slots=True)
class WaveTask:
    """Mutable scheduling state of one pool task."""

    key: Hashable
    payload: dict[str, Any]
    attempt: int = 1
    #: Monotonic timestamp before which the task must not run (backoff).
    not_before: float = 0.0
    #: Monotonic instant the job's deadline passes (None = no deadline).
    deadline_at: float | None = None


def backoff_delay(backoff_seconds: float, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (exponential, base 2).

    ``attempt`` is the attempt about to run (2 for the first retry), so
    the first retry waits ``backoff_seconds`` and each later one doubles.
    """
    return backoff_seconds * 2.0 ** (attempt - 2)


def _child(
    fn: Callable[[Mapping[str, Any]], dict[str, Any]],
    payload: Mapping[str, Any],
    conn: Connection,
) -> None:
    """Body of one task's process: one ``(status, value)`` reply."""
    try:
        reply: tuple[str, Any] = ("ok", fn(payload))
    except Exception as exc:  # repro: lint-disable=API002 -- fault boundary: a task exception of any type must become a failure record
        reply = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send(reply)
    except Exception as exc:  # repro: lint-disable=API002 -- a result that cannot be pickled is the task's error, not a crash
        conn.send(("error", f"{type(exc).__name__}: {exc}"))


#: Longest single wait (s): ``wait`` polls in int milliseconds and
#: overflows past about 24.8 days, so a far limit takes several waits.
_MAX_PAUSE = 3600.0


def _limit(start: float, timeout: float | None, deadline_at: float | None) -> float:
    """A task's kill instant: its own timeout, or its job's deadline (at
    least 0.1 s after start), whichever passes first (inf = never)."""
    limit = math.inf if timeout is None else start + timeout
    if deadline_at is not None:
        limit = min(limit, max(start + 0.1, deadline_at))
    return limit


def run_wave(
    fn: Callable[[Mapping[str, Any]], dict[str, Any]],
    wave: Sequence[WaveTask],
    *,
    timeout: float | None,
    collector: Collector = NULL_COLLECTOR,
) -> tuple[dict[Hashable, dict[str, Any]], list[WaveFailure]]:
    """Run ``fn(task.payload)`` for every task, each in its own process.

    ``timeout`` is the per-task limit in seconds of wall clock (None =
    unlimited); a task's job deadline can only shorten it.  Returns the
    completed payloads keyed by task key plus the failed attempts: an
    exception in ``fn`` (or an unpicklable result) is ``"error"``, EOF
    on the task's pipe is ``"crash"``, and a passed limit kills that one
    process and is ``"timeout"``.  Every child is joined.
    """
    ok: dict[Hashable, dict[str, Any]] = {}
    failed: list[WaveFailure] = []
    running: dict[Connection, tuple[WaveTask, BaseProcess, float, float]] = {}
    try:
        with collector.span("server.wave", tasks=len(wave)):
            for task in wave:
                reader, writer = multiprocessing.Pipe(duplex=False)
                # A daemon child is killed, not waited on, by an
                # interpreter that exits mid-wave.
                proc = multiprocessing.Process(
                    target=_child, args=(fn, task.payload, writer), daemon=True
                )
                proc.start()
                # Before the next fork: only the child holds the write end,
                # so its death is EOF here.
                writer.close()
                start = time.monotonic()
                limit = _limit(start, timeout, task.deadline_at)
                running[reader] = (task, proc, start, limit)
            while running:
                now = time.monotonic()
                nearest = min(entry[3] for entry in running.values())
                pause = min(max(0.0, nearest - now), _MAX_PAUSE)
                # Every ready pipe is drained before a limit that passed
                # by `now` is enforced, so an arrived result is never killed.
                ready = wait(list(running), pause)
                for conn in [c for c in running if c in ready]:
                    task, proc, _, _ = running.pop(conn)
                    try:
                        status, value = conn.recv()
                    except (EOFError, OSError):
                        failed.append((task, "crash", "worker process died"))
                    else:
                        if status == "ok":
                            ok[task.key] = value
                        else:
                            failed.append((task, "error", value))
                    _reap(conn, proc)
                for conn, (task, proc, start, limit) in list(running.items()):
                    if limit <= now:
                        del running[conn]
                        proc.kill()
                        _reap(conn, proc)
                        message = f"exceeded {limit - start:.1f}s deadline"
                        failed.append((task, "timeout", message))
    finally:
        for conn, (_, proc, _, _) in running.items():
            proc.kill()
            _reap(conn, proc)
    return ok, failed


def _reap(conn: Connection, proc: BaseProcess) -> None:
    """Close a finished task's pipe and join its process."""
    conn.close()
    proc.join()


__all__ = [
    "WaveFailure",
    "WaveTask",
    "backoff_delay",
    "run_wave",
]
