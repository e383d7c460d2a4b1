"""Unit tests of the flow service's one-process-per-task wave runner.

Every task runs in its own process with its own pipe and its own limit,
so each failure is charged to the task that caused it and to no
wave-mate, and every child is joined before ``run_wave`` returns.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

from repro.server import pool
from repro.server.pool import WaveTask, run_wave


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
    return {"seconds": 0.0, "key": payload["key"]}


def wave(*modes, deadline_at=None):
    return [
        WaveTask(key=key, payload={"mode": mode, "key": key}, deadline_at=deadline_at)
        for key, mode in enumerate(modes)
    ]


def outcomes(failed):
    return sorted((task.key, kind, message) for task, kind, message in failed)


def test_each_failure_is_charged_to_its_own_task():
    ok, failed = run_wave(behave, wave("ok", "crash", "error", "ok"), timeout=None)
    assert ok == {0: {"seconds": 0.0, "key": 0}, 3: {"seconds": 0.0, "key": 3}}
    assert outcomes(failed) == [
        (1, "crash", "worker process died"),
        (2, "error", "ValueError: bad payload"),
    ]
    assert multiprocessing.active_children() == []


def test_unpicklable_result_is_an_error_not_a_crash():
    ok, failed = run_wave(behave, wave("unpicklable"), timeout=None)
    assert ok == {}
    [(key, kind, message)] = outcomes(failed)
    assert (key, kind) == (0, "error")
    assert "pickle" in message


def test_timeout_kills_only_the_task_it_limits():
    ok, failed = run_wave(behave, wave("hang", "ok"), timeout=1.0)
    assert ok == {1: {"seconds": 0.0, "key": 1}}
    assert outcomes(failed) == [(0, "timeout", "exceeded 1.0s deadline")]
    assert multiprocessing.active_children() == []


def test_job_deadline_shortens_the_limit():
    tasks = wave("hang", deadline_at=time.monotonic() + 0.3)
    start = time.monotonic()
    _, failed = run_wave(behave, tasks, timeout=60.0)
    assert [kind for _, kind, _ in failed] == ["timeout"]
    assert time.monotonic() - start < 10.0


def test_far_limit_is_waited_out_in_bounded_pauses():
    """A limit beyond what one poll() can wait (about 24.8 days) still
    lets the task run and report."""
    far = time.monotonic() + 1e9
    for timeout, deadline_at in ((1e9, None), (None, far)):
        ok, failed = run_wave(
            behave, wave("ok", deadline_at=deadline_at), timeout=timeout
        )
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
    ok, failed = run_wave(behave, wave("ok"), timeout=0.1)
    assert ok == {0: {"seconds": 0.0, "key": 0}} and failed == []
    assert pauses[1] == 0.0
