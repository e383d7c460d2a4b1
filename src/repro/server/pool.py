"""Long-lived job processes for the flow service.

The process-mode dispatcher of :class:`~repro.server.service.FlowService`
runs its jobs through :func:`run_wave` on a :class:`WorkerPool`.  A
worker is one ``multiprocessing.Process`` that answers ``(fn, payload)``
messages on its own duplex pipe, one job at a time, and outlives the
job.  The pool starts a worker only when a wave finds none idle, and
replaces one only after its job crashed or was killed at its limit, so
after the first wave a job pays no fork, no copy-on-write faults of the
server's heap and no imports its first LP would make.  ``run_wave``
gives process fan-out four guarantees:

* **exact attribution** — a worker runs one task at a time, so a worker
  that dies is a crash of its own task, and a passed deadline kills
  that task's worker alone: no task is killed, charged or re-run because
  of a wave-mate;
* **honest deadlines** — a wave never exceeds the worker count, so every
  task starts executing immediately and its deadline measures the task,
  not queue time;
* **clean ownership** — :meth:`WorkerPool.close` stops and joins every
  worker, and a worker whose parent dies reads EOF and exits;
* **bounded exponential backoff** — :func:`backoff_delay` is the one
  formula between retries.

Task functions and payloads are pickled into the worker with each
message, so functions must be module-level.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
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


def _child(conn: Connection, inherited: Sequence[Connection]) -> None:
    """Body of one worker: answer each ``(fn, payload)`` message with one
    ``(status, value)`` reply, until the stop message (``None``) or EOF."""
    # Parent ends copied at fork (this worker's own and every older
    # worker's): closed, so that the parent alone holds them and its
    # death is EOF in every worker.
    for end in inherited:
        end.close()
    # Ctrl-C reaches the whole process group: outside its task a worker
    # leaves it to the server, which stops its workers itself.  The task
    # alone runs with the inherited handler, so a worker the parent has
    # seen reply is already deaf to it.
    on_interrupt = signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The server's SIGTERM handler, copied at fork, is the server's: a
    # worker dies of SIGTERM as a process does by default.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        fn, payload = message
        signal.signal(signal.SIGINT, on_interrupt)
        try:
            reply: tuple[str, Any] = ("ok", fn(payload))
        except Exception as exc:  # repro: lint-disable=API002 -- fault boundary: a task exception of any type must become a failure record
            reply = ("error", f"{type(exc).__name__}: {exc}")
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            conn.send(reply)
        except Exception as exc:  # repro: lint-disable=API002 -- a result that cannot be pickled is the task's error, not a crash
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


@dataclass(slots=True, eq=False)
class _Worker:
    proc: BaseProcess
    #: The parent's end of the worker's duplex pipe.
    conn: Connection


class WorkerPool:
    """The job processes of one service: started on demand, reused
    across waves, replaced after a crash or kill, stopped by :meth:`close`.

    Only the thread that runs the waves may use it; :meth:`close` runs
    after that thread's last wave.
    """

    def __init__(self, collector: Collector = NULL_COLLECTOR) -> None:
        self.collector = collector
        #: Processes started over the pool's life.
        self.starts = 0
        self._live: list[_Worker] = []
        self._idle: list[_Worker] = []

    def take(self) -> _Worker:
        """An idle worker that is still alive, else a new one."""
        while self._idle:
            worker = self._idle.pop()
            if worker.proc.is_alive():
                return worker
            # Died while idle (killed from outside): not a task's fault.
            self.discard(worker)
        parent_end, child_end = multiprocessing.Pipe()
        inherited = [parent_end, *(w.conn for w in self._live)]
        # A daemon worker is killed, not waited on, by an interpreter
        # that exits without close().
        proc = multiprocessing.Process(
            target=_child, args=(child_end, inherited), daemon=True
        )
        proc.start()
        # Only the worker holds its end, so its death is EOF here.
        child_end.close()
        worker = _Worker(proc, parent_end)
        self._live.append(worker)
        self.starts += 1
        self.collector.count("server.worker-starts")
        return worker

    def release(self, worker: _Worker) -> None:
        """Return a worker whose task replied to the idle set."""
        self._idle.append(worker)

    def discard(self, worker: _Worker) -> None:
        """Kill a worker (crashed, or past its task's limit) and join it."""
        self._live.remove(worker)
        worker.proc.kill()
        worker.conn.close()
        worker.proc.join()

    def close(self) -> None:
        """Stop and join every worker."""
        for worker in self._live:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead: the join below reaps it
        for worker in self._live:
            worker.proc.join()
            worker.conn.close()
        self._live.clear()
        self._idle.clear()


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
    workers: WorkerPool,
    collector: Collector = NULL_COLLECTOR,
) -> tuple[dict[Hashable, dict[str, Any]], list[WaveFailure]]:
    """Run ``fn(task.payload)`` for every task, each on its own worker.

    ``timeout`` is the per-task limit in seconds of wall clock (None =
    unlimited); a task's job deadline can only shorten it.  Returns the
    completed payloads keyed by task key plus the failed attempts: an
    exception in ``fn`` (or an unpicklable result) is ``"error"`` and
    keeps the worker, EOF on the worker's pipe is ``"crash"``, and a
    passed limit kills that one worker and is ``"timeout"``.  A crashed
    or killed worker is joined and leaves ``workers``.
    """
    ok: dict[Hashable, dict[str, Any]] = {}
    failed: list[WaveFailure] = []
    running: dict[Connection, tuple[WaveTask, _Worker, float, float]] = {}
    try:
        with collector.span("server.wave", tasks=len(wave)):
            for task in wave:
                worker = workers.take()
                try:
                    worker.conn.send((fn, task.payload))
                except OSError:
                    workers.discard(worker)
                    failed.append((task, "crash", "worker process died"))
                    continue
                start = time.monotonic()
                limit = _limit(start, timeout, task.deadline_at)
                running[worker.conn] = (task, worker, start, limit)
            while running:
                now = time.monotonic()
                nearest = min(entry[3] for entry in running.values())
                pause = min(max(0.0, nearest - now), _MAX_PAUSE)
                # Every ready pipe is drained before a limit that passed
                # by `now` is enforced, so an arrived result is never killed.
                ready = wait(list(running), pause)
                for conn in [c for c in running if c in ready]:
                    task, worker, _, _ = running.pop(conn)
                    try:
                        status, value = conn.recv()
                    except (EOFError, OSError):
                        workers.discard(worker)
                        failed.append((task, "crash", "worker process died"))
                        continue
                    workers.release(worker)
                    if status == "ok":
                        ok[task.key] = value
                    else:
                        failed.append((task, "error", value))
                for conn, (task, worker, start, limit) in list(running.items()):
                    if limit <= now:
                        del running[conn]
                        workers.discard(worker)
                        message = f"exceeded {limit - start:.1f}s deadline"
                        failed.append((task, "timeout", message))
    finally:
        for _, worker, _, _ in running.values():
            workers.discard(worker)
    return ok, failed


__all__ = [
    "WaveFailure",
    "WaveTask",
    "WorkerPool",
    "backoff_delay",
    "run_wave",
]
