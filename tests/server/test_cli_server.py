"""Tests for the ``repro serve`` / ``submit`` / ``status`` commands.

One threaded server on an ephemeral port backs the happy-path tests;
the unified :class:`~repro.cli.ExitCode` contract is checked at the
``main()`` boundary (0 = success, 1 = failed/shed job, 2 = unreachable
server or usage error).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.request import urlopen

import pytest

from repro.cli import ExitCode, main
from repro.server import ServerOptions, make_server


@pytest.fixture(scope="module")
def server_url():
    srv = make_server(options=ServerOptions(workers=1, execution="inline"))
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield srv.url
    srv.shutdown()
    srv.server_close()
    srv.service.close()
    thread.join()


class TestSubmit:
    def test_wait_prints_summary_and_exits_zero(self, server_url, capsys):
        rc = main([
            "submit", "s27", "--wait", "--server", server_url,
            "--iterations", "2",
        ])
        out = capsys.readouterr().out
        assert rc == ExitCode.OK
        assert "flow s27: done" in out and "digest" in out

    def test_resubmit_is_cached(self, server_url, capsys):
        rc = main([
            "submit", "s27", "--wait", "--server", server_url,
            "--iterations", "2",
        ])
        assert rc == ExitCode.OK
        assert "(cached)" in capsys.readouterr().out

    def test_wait_json_emits_result_document(self, server_url, capsys):
        rc = main([
            "submit", "s27", "--wait", "--json", "--server", server_url,
            "--iterations", "2",
        ])
        assert rc == ExitCode.OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "flow" and "result" in doc

    def test_async_submit_then_status(self, server_url, capsys):
        rc = main([
            "submit", "s27", "--server", server_url, "--iterations", "2",
        ])
        assert rc == ExitCode.OK
        job_id = capsys.readouterr().out.split()[0]
        assert job_id.startswith("job-")
        rc = main(["status", job_id, "--server", server_url])
        assert rc == ExitCode.OK
        assert job_id in capsys.readouterr().out

    def test_status_events_streams_ndjson(self, server_url, capsys):
        main(["submit", "s27", "--server", server_url, "--iterations", "2"])
        job_id = capsys.readouterr().out.split()[0]
        rc = main([
            "status", job_id, "--events", "--server", server_url,
        ])
        assert rc == ExitCode.OK
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert lines and lines[-1]["event"] == "state"

    def test_check_kind_submits(self, server_url, capsys):
        rc = main([
            "submit", "s27", "--kind", "check", "--wait",
            "--server", server_url, "--iterations", "2",
        ])
        assert rc == ExitCode.OK
        assert "check s27: done" in capsys.readouterr().out


class TestErrorMapping:
    def test_unreachable_server_is_usage_error(self, capsys):
        rc = main(["status", "job-00000001", "--server", "http://127.0.0.1:1"])
        assert rc == ExitCode.USAGE
        assert "cannot reach" in capsys.readouterr().err

    def test_unknown_job_is_findings(self, server_url, capsys):
        rc = main(["status", "job-99999999", "--server", server_url])
        assert rc == ExitCode.FINDINGS
        assert "404" in capsys.readouterr().err

    def test_exit_code_aliases(self):
        assert ExitCode.OK == 0
        assert ExitCode.FINDINGS == 1 == ExitCode.PARTIAL
        assert ExitCode.USAGE == 2


def _stat(pid: int) -> list[str] | None:
    """The ``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def _children(pid: int) -> list[int]:
    """Pids of the running processes whose parent is ``pid``."""
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit()
        and (fields := _stat(int(entry))) is not None
        and fields[0] != "Z"
        and int(fields[1]) == pid
    ]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
def test_sigterm_shuts_serve_down_like_ctrl_c():
    """SIGTERM (``kill``, CI's trap, process managers) closes the server
    and its flow service: exit 0, no traceback, no worker left."""
    from repro.api import FlowRequest
    from repro.core import FlowOptions
    from repro.server import ServerClient

    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        url = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 60.0
        while True:
            try:
                with urlopen(f"{url}/v1/healthz", timeout=1.0):
                    break
            except OSError:
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "server never came up"
                time.sleep(0.1)
        # A cold job starts the service's worker process.
        doc = ServerClient(url, timeout=120.0).submit_and_wait(
            FlowRequest(circuit="s27", options=FlowOptions(max_iterations=1))
        )
        assert doc["kind"] == "flow" and "result" in doc
        workers = _children(proc.pid)
        assert workers
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "Traceback" not in err, err
    deadline = time.monotonic() + 30.0
    while any(_running(pid) for pid in workers):
        assert time.monotonic() < deadline, "a worker outlived its server"
        time.sleep(0.05)
