"""Unit tests of the flow service's wave runner and its worker pool.

Every task runs on its own worker with its own pipe and its own limit,
so each failure is charged to the task that caused it and to no
wave-mate.  Workers outlive their tasks: a task that raised keeps its
worker, a crash or a kill at the limit replaces it, and ``close()``
joins every one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import closing

import pytest

from repro.server import pool
from repro.server.pool import WaveTask, WorkerPool, run_wave


def behave(payload):
    """Task body whose outcome the payload chooses."""
    mode = payload["mode"]
    if mode == "crash":
        os._exit(3)
    if mode == "hang":
        time.sleep(3600.0)
    if mode == "error":
        raise ValueError("bad payload")
    if mode == "unpicklable":
        return {"lock": threading.Lock()}
    if mode == "pid":
        return {"pid": os.getpid()}
    return {"seconds": 0.0, "key": payload["key"]}


def wave(*modes, deadline_at=None):
    return [
        WaveTask(key=key, payload={"mode": mode, "key": key}, deadline_at=deadline_at)
        for key, mode in enumerate(modes)
    ]


def outcomes(failed):
    return sorted((task.key, kind, message) for task, kind, message in failed)


def run_alone(tasks, timeout):
    """One wave on a pool of its own, closed before returning."""
    with closing(WorkerPool()) as workers:
        return run_wave(behave, tasks, timeout=timeout, workers=workers)


@pytest.fixture
def workers():
    with closing(WorkerPool()) as workers:
        yield workers
    assert multiprocessing.active_children() == []


def worker_pid(workers):
    """Pid of the worker that runs a one-task wave."""
    ok, failed = run_wave(behave, wave("pid"), timeout=10.0, workers=workers)
    assert failed == []
    return ok[0]["pid"]


def test_each_failure_is_charged_to_its_own_task():
    ok, failed = run_alone(wave("ok", "crash", "error", "ok"), timeout=None)
    assert ok == {0: {"seconds": 0.0, "key": 0}, 3: {"seconds": 0.0, "key": 3}}
    assert outcomes(failed) == [
        (1, "crash", "worker process died"),
        (2, "error", "ValueError: bad payload"),
    ]
    assert multiprocessing.active_children() == []


def test_unpicklable_result_is_an_error_not_a_crash():
    ok, failed = run_alone(wave("unpicklable"), timeout=None)
    assert ok == {}
    [(key, kind, message)] = outcomes(failed)
    assert (key, kind) == (0, "error")
    assert "pickle" in message


def test_timeout_kills_only_the_task_it_limits():
    ok, failed = run_alone(wave("hang", "ok"), timeout=1.0)
    assert ok == {1: {"seconds": 0.0, "key": 1}}
    assert outcomes(failed) == [(0, "timeout", "exceeded 1.0s deadline")]
    assert multiprocessing.active_children() == []


def test_job_deadline_shortens_the_limit():
    tasks = wave("hang", deadline_at=time.monotonic() + 0.3)
    start = time.monotonic()
    _, failed = run_alone(tasks, timeout=60.0)
    assert [kind for _, kind, _ in failed] == ["timeout"]
    assert time.monotonic() - start < 10.0


def test_far_limit_is_waited_out_in_bounded_pauses():
    """A limit beyond what one poll() can wait (about 24.8 days) still
    lets the task run and report."""
    far = time.monotonic() + 1e9
    for timeout, deadline_at in ((1e9, None), (None, far)):
        ok, failed = run_alone(wave("ok", deadline_at=deadline_at), timeout=timeout)
        assert ok == {0: {"seconds": 0.0, "key": 0}} and failed == []


def test_arrived_result_is_drained_before_its_limit_is_enforced(monkeypatch):
    """The first wait oversleeps the limit while the result arrives: the
    next round must collect the result, not kill the finished task."""
    real_wait = pool.wait
    pauses = []

    def late_wait(conns, timeout):
        pauses.append(timeout)
        if len(pauses) == 1:
            time.sleep(1.0)
            return []
        return real_wait(conns, timeout)

    monkeypatch.setattr(pool, "wait", late_wait)
    ok, failed = run_alone(wave("ok"), timeout=0.1)
    assert ok == {0: {"seconds": 0.0, "key": 0}} and failed == []
    assert pauses[1] == 0.0


def test_consecutive_waves_run_on_one_worker(workers):
    first = worker_pid(workers)
    assert worker_pid(workers) == first != os.getpid()
    assert workers.starts == 1


def test_error_keeps_its_worker(workers):
    first = worker_pid(workers)
    _, failed = run_wave(behave, wave("error"), timeout=10.0, workers=workers)
    assert outcomes(failed) == [(0, "error", "ValueError: bad payload")]
    assert worker_pid(workers) == first
    assert workers.starts == 1


@pytest.mark.parametrize(("mode", "kind"), [("crash", "crash"), ("hang", "timeout")])
def test_crash_or_kill_replaces_the_worker(workers, mode, kind):
    first = worker_pid(workers)
    _, failed = run_wave(behave, wave(mode), timeout=0.5, workers=workers)
    assert [k for _, k, _ in failed] == [kind]
    assert first not in {p.pid for p in multiprocessing.active_children()}
    assert worker_pid(workers) != first
    assert workers.starts == 2


def test_worker_killed_while_idle_is_not_charged_to_the_next_task(workers):
    first = worker_pid(workers)
    os.kill(first, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while first in {p.pid for p in multiprocessing.active_children()}:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert worker_pid(workers) != first
    assert workers.starts == 2


def test_idle_worker_ignores_sigint(workers, capfd):
    """Ctrl-C reaches every process of the group: an idle worker lives
    on silently, and the server decides when it stops."""
    first = worker_pid(workers)
    os.kill(first, signal.SIGINT)
    time.sleep(0.2)
    assert worker_pid(workers) == first
    assert capfd.readouterr().err == ""


def test_close_joins_every_worker():
    workers = WorkerPool()
    ok, failed = run_wave(behave, wave("pid", "pid"), timeout=10.0, workers=workers)
    assert failed == [] and len({doc["pid"] for doc in ok.values()}) == 2
    workers.close()
    assert multiprocessing.active_children() == []
