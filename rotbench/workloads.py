"""The benchmark's three workloads, each a closed loop over the program.

A closed loop starts the next operation only when the previous one has
returned, with one caller.  README.md records why each workload exists
and which layers it stresses.

* ``table2-flow`` - whole passes over the five Table II circuits, the
  Section V network-flow engine with weighted cost-driven skew (Tables
  III/IV), ``jobs=1``.
* ``scale10k-ilp`` - flows on the 10k-cell ``scale10k`` circuit, the
  Section VI LP-relaxation engine with min-max skew (Table V), ``jobs=2``.
* ``serve-mix`` - Section V/VI flow and check requests to a ``repro
  serve --workers 1 --intra-jobs 1`` process over loopback: one untimed
  block on the bundled circuits, then whole timed blocks of the same
  make-up on seed-named designs.

Each operation's decisions are hashed and compared with the first
operation on the same input; each distinct input then gets the full RCK
rule set, outside the timed loop.  A mismatch, an RCK error, or a failed
or refused operation counts as a failed operation.  End-to-end timings
are scaled to the reference machine speed (``reference.py``).
"""

from __future__ import annotations

import json
import random
import resource
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator
from urllib.error import URLError
from urllib.request import urlopen

from decisions import (
    check_report_errors,
    decision_hash,
    rck_errors,
    report_hash,
)
from layers import (
    LAYER_METRICS,
    TABLE2,
    install_flow_layers,
    layer_values,
)
from spans import Span, Tracer
from summary import OP, median, uncovered_share

HERE = Path(__file__).resolve().parent

#: The end-to-end metrics every untraced run reports (BENCHMARK.json).
END_TO_END = (
    "setup_s", "cells_per_s", "req_per_s", "latency_s_p50",
    "cold_latency_s_p50", "peak_rss_mb", "tapping_wl_um", "signal_wl_um",
    "max_load_ff",
)

#: scale10k-ilp's intra-run workers (the measurement host's core count).
SCALE_JOBS = 2
#: serve-mix: one block is 24 requests - 8 new distinct requests (every
#: third request) and 16 repeats, so two thirds are cache hits.  New
#: requests cycle through the Section V and VI flow and check kinds.
BLOCK_REQUESTS = 24
SERVE_KINDS = ("flow", "ilp", "check", "check-ilp")
BUNDLED = ("s5378", "s9234")
#: The bundled circuit whose served flows give serve-mix's quality guards.
QUALITY_CIRCUIT = BUNDLED[0]
#: What the flow workloads' result files say about their inputs.
FLOW_INPUTS_NOTE = (
    "bundled circuits at generator seed 0; --seed does not change this "
    "workload's inputs (rotbench/README.md, Known program defects 1)"
)
#: Set-ups measured per run for setup_s (serve-mix: server starts, the
#: last of which serves the run).
SETUP_SAMPLES = 5


@dataclass
class Outcome:
    """What one run measured and how many operations failed."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    #: Calls each per-layer metric's entry point recorded (traced runs).
    layer_calls: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(reason)


def peak_rss_mb(who: int) -> float:
    """Peak resident set (MB) of this process or of its reaped children."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _steal_and_total() -> tuple[int, int]:
    """Stolen and total CPU jiffies of the machine, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class MachineWatch:
    """Steal share and this process's CPU/wall ratio over a timed loop,
    recorded beside the results to tell machine drift from program
    change."""

    def __init__(self) -> None:
        self.wall = time.monotonic()
        self.cpu = time.process_time()
        self.steal, self.total = _steal_and_total()

    def report(self) -> dict[str, float]:
        wall = time.monotonic() - self.wall
        steal, total = _steal_and_total()
        return {
            "cpu_per_wall": (time.process_time() - self.cpu) / wall if wall else 0.0,
            "steal_share": (steal - self.steal) / (total - self.total)
            if total > self.total else 0.0,
        }


# ----------------------------------------------------------------------
# Flow workloads (in-process).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowInput:
    key: str
    profile: Any
    options: Any


def flow_inputs(workload: str) -> list[FlowInput]:
    """One pass of a flow workload: the bundled circuits, whatever the
    seed (:data:`FLOW_INPUTS_NOTE`).  Re-drawn instances of these profiles
    hit a program defect (README.md, "Known program defects")."""
    from repro.core import FlowOptions
    from repro.netlist import PROFILE_ORDER, PROFILES, SCALE_PROFILES

    if workload == TABLE2:
        return [
            FlowInput(name, PROFILES[name], FlowOptions(
                ring_grid_side=PROFILES[name].ring_grid_side, assignment="flow",
            ))
            for name in PROFILE_ORDER
        ]
    profile = SCALE_PROFILES["scale10k"]
    return [FlowInput("scale10k", profile, FlowOptions(
        ring_grid_side=profile.ring_grid_side,
        assignment="ilp",
        skew_mode="minmax",
        jobs=SCALE_JOBS,
    ))]


@dataclass(frozen=True)
class FirstResult:
    """What the checks keep of an input's first flow: its decision hash,
    its final quality figures and its result document as JSON text (the
    RCK pass rebuilds the result and regenerates the circuit), so no
    circuit or flow result stays alive between operations."""

    digest: str
    final: Any
    doc_json: str


class FlowRunner:
    """Runs flow operations, timing each and checking its decisions."""

    def __init__(self, inputs: list[FlowInput], outcome: Outcome) -> None:
        self.inputs = inputs
        self.outcome = outcome
        self.first: dict[str, FirstResult] = {}
        self.ops_on: dict[str, int] = {}
        self.next_op = 0
        #: Wall seconds of every completed flow, per input.
        self.latencies: dict[str, list[float]] = {}

    def run_op(self, inp: FlowInput, tracer: Tracer | None = None) -> tuple[int, float] | None:
        """One flow on a freshly generated circuit: ``(cells, seconds)``."""
        from repro.core import IntegratedFlow
        from repro.netlist import generate_circuit

        circuit = generate_circuit(inp.profile)
        cells = circuit.stats().num_cells
        op, self.next_op = self.next_op, self.next_op + 1
        self.outcome.attempted += 1
        self.ops_on[inp.key] = self.ops_on.get(inp.key, 0) + 1
        if tracer is not None:
            tracer.op = op
        start = time.monotonic()
        try:
            result = IntegratedFlow(circuit, options=inp.options).run()
        except Exception as exc:  # a failing flow is a counted failure
            self.outcome.fail(f"{inp.key}: {type(exc).__name__}: {exc}")
            return None
        finally:
            end = time.monotonic()
            if tracer is not None:
                tracer.add(OP, start, end, input=inp.key)
                tracer.op = None
        doc = result.to_dict()
        digest = decision_hash(doc)
        if inp.key not in self.first:
            self.first[inp.key] = FirstResult(digest, result.final, json.dumps(doc))
        elif digest != self.first[inp.key].digest:
            self.outcome.fail(f"{inp.key}: decisions differ from the first run")
        self.latencies.setdefault(inp.key, []).append(end - start)
        return cells, end - start

    def run_passes(
        self, seconds: float, passes: int | None = None, tracer: Tracer | None = None,
        between: Callable[[], None] | None = None,
    ) -> tuple[int, int, float]:
        """Whole passes until ``seconds`` have elapsed (or ``passes`` of
        them): ``(passes, cells, seconds)`` over the completed flows.
        ``between`` runs after every flow, outside its timing."""
        done = cells = 0
        op_seconds = 0.0
        start = time.monotonic()
        while (done < passes) if passes is not None else (
            done == 0 or time.monotonic() - start < seconds
        ):
            for inp in self.inputs:
                measured = self.run_op(inp, tracer)
                if measured is not None:
                    cells += measured[0]
                    op_seconds += measured[1]
                if between is not None:
                    between()
            done += 1
        return done, cells, op_seconds

    def check_rules(self) -> None:
        """Full RCK rule set once per distinct input (outside timing)."""
        from repro.core import FlowResult
        from repro.netlist import generate_circuit

        for inp in self.inputs:
            if inp.key not in self.first:
                continue
            result = FlowResult.from_dict(json.loads(self.first[inp.key].doc_json))
            errors = rck_errors(generate_circuit(inp.profile), result, inp.options.assignment)
            if errors:
                self.outcome.fail(
                    f"{inp.key}: RCK errors {sorted(set(errors))}", self.ops_on[inp.key]
                )

    def quality(self) -> dict[str, tuple[float, str]]:
        """The pass's quality guards (they repeat exactly run to run)."""
        finals = [self.first[i.key].final for i in self.inputs if i.key in self.first]
        return quality_guards(finals) if len(finals) == len(self.inputs) else {}


def quality_guards(finals: list[Any]) -> dict[str, tuple[float, str]]:
    """Sums of final tapping and signal wirelength, mean max ring load."""
    loads = [f.max_load_capacitance for f in finals]
    return {
        "tapping_wl_um": (sum(f.tapping_wirelength for f in finals), "um"),
        "signal_wl_um": (sum(f.signal_wirelength for f in finals), "um"),
        "max_load_ff": (sum(loads) / len(loads), "fF"),
    }


def flow_setup_probe(workload: str) -> float:
    """Everything a flow run does before its first timed operation."""
    from repro.netlist import generate_circuit

    generate_circuit(flow_inputs(workload)[0].profile)
    return time.monotonic()


def flow_setup_seconds(workload: str) -> float:
    """Set-up seconds of a fresh interpreter, from exec to ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.split()[-1]) - start


def run_flow_workload(workload: str, seconds: float) -> Outcome:
    from reference import Reference

    outcome = Outcome()
    setups = [flow_setup_seconds(workload) for _ in range(SETUP_SAMPLES)]
    reference = Reference()
    setup_s, setup_refs = reference.setup_s(setups)
    runner = FlowRunner(flow_inputs(workload), outcome)
    reference.sample()
    watch = MachineWatch()
    passes, cells, op_seconds = runner.run_passes(seconds, between=reference.between)
    machine = watch.report()
    # Before the RCK pass, so the peak is the flows' own.
    peak_mb = peak_rss_mb(resource.RUSAGE_SELF)
    reference.sample()
    runner.check_rules()
    # The latency of a pass: each circuit's median flow latency, summed
    # (every flow is computed, so it is also the cold latency).
    pass_p50 = sum(median(lat) for lat in runner.latencies.values())
    flows = sum(len(lat) for lat in runner.latencies.values())
    raw = {
        "setup_s": (median(setups), "s"),
        "cells_per_s": (cells / op_seconds if op_seconds else 0.0, "cells/s"),
        "req_per_s": (flows / op_seconds if op_seconds else 0.0, "1/s"),
        "latency_s_p50": (pass_p50, "s"),
        "cold_latency_s_p50": (pass_p50, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        **runner.quality(),
    }
    outcome.metrics = reference.scale(raw)
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.details = {
        "inputs": FLOW_INPUTS_NOTE,
        "passes": passes,
        "cells": cells,
        "op_seconds": op_seconds,
        "setup_samples_s": setups,
        "setup_reference_samples_s": setup_refs,
        "reference_samples_s": reference.samples,
        "unscaled_metrics": {name: value for name, (value, _) in raw.items()},
        **machine,
    }
    return outcome


def trace_flow_workload(workload: str, seconds: float) -> Outcome:
    """Untraced, traced, untraced again over the same passes; the traced
    phase gives the per-layer numbers, the outer two its overhead."""
    from reference import Reference

    outcome = Outcome()
    reference = Reference()
    reference.sample()
    runner = FlowRunner(flow_inputs(workload), outcome)
    # The first pass in a process runs slower (first-touch page faults
    # while the heap grows), so it is run untimed before the phases.
    runner.run_passes(0.0)
    passes, _, before_s = runner.run_passes(seconds / 3)
    tracer = Tracer()
    install_flow_layers(tracer)
    try:
        _, _, traced_s = runner.run_passes(seconds, passes=passes, tracer=tracer)
    finally:
        tracer.restore()
    _, _, after_s = runner.run_passes(seconds, passes=passes)
    reference.sample()
    runner.check_rules()
    plain_s = (before_s + after_s) / 2
    unmeasured = _per_layer(outcome, tracer.spans, tracer.seen, traced_s / plain_s - 1.0)
    outcome.details = {
        "inputs": FLOW_INPUTS_NOTE,
        "unmeasured": unmeasured,
        "passes_per_phase": passes,
        "untraced_s": [before_s, after_s],
        "traced_s": traced_s,
        "slowdown": reference.slowdown(),
    }
    return outcome


def _per_layer(
    outcome: Outcome, spans: list[Span], seen: dict[str, int], overhead: float,
    extras: dict[str, tuple[float | None, int]] | None = None,
) -> list[str]:
    """Fill in the per-layer metrics; returns the unmeasured layers.

    The result line carries a number for every metric, so an unmeasured
    layer reads 0 there; the returned names go into the result file.
    """
    values = layer_values(spans, seen, extras)
    outcome.spans = spans
    outcome.layer_calls = {name: calls for name, (_, calls) in values.items()}
    outcome.metrics = {}
    for m in LAYER_METRICS:
        value = values[m.name][0]
        outcome.metrics[m.name] = (0.0 if value is None else value, m.unit)
    outcome.metrics["trace.uncovered_share"] = (uncovered_share(spans), "ratio")
    outcome.metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return [name for name, (value, _) in values.items() if value is None]


# ----------------------------------------------------------------------
# serve-mix (a server process, one closed-loop client).
# ----------------------------------------------------------------------
def _serve_request(kind: str, circuit: str) -> Any:
    from repro.analysis.checker import CheckConfig
    from repro.api import CheckRequest, FlowRequest
    from repro.core import FlowOptions

    section6 = FlowOptions(assignment="ilp", skew_mode="minmax")
    if kind == "flow":
        return FlowRequest(circuit=circuit, options=FlowOptions())
    if kind == "ilp":
        return FlowRequest(circuit=circuit, options=section6)
    if kind == "check":
        return CheckRequest(circuit=circuit, options=FlowOptions())
    # Ring capacity (RCK301) is a Section V contract; see decisions.py.
    return CheckRequest(circuit=circuit, options=section6,
                        config=CheckConfig(disabled=("RCK301",)))


def bundled_block() -> list[Any]:
    """The first block, served before the timed ones and kept out of
    every timing and rate: each kind on each bundled circuit, three times
    in a row (computed once, then served from the cache twice).  Its
    Section V and VI s5378 flows give the quality guards."""
    return [
        request
        for kind in SERVE_KINDS
        for circuit in BUNDLED
        for request in [_serve_request(kind, circuit)] * 3
    ]


def serve_blocks(seed: int) -> Iterator[list[Any]]:
    """The timed request sequence, one block at a time (seeded, endless).

    Every block has the same make-up, so a run that gets through more
    blocks measures more of the same work.  Every third request is new -
    a seed-named ~120-cell design, the kinds cycling so each block holds
    two of each - and the two requests after a new one repeat a request
    of the same kind, drawn uniformly from those issued so far.
    """
    rng = random.Random(f"serve-mix/{seed}")
    issued: dict[str, list[Any]] = {kind: [] for kind in SERVE_KINDS}
    new = 0
    while True:
        requests = []
        for i in range(BLOCK_REQUESTS):
            kind = SERVE_KINDS[(i // 3) % len(SERVE_KINDS)]
            if i % 3:
                requests.append(rng.choice(issued[kind]))
                continue
            request = _serve_request(kind, f"rb{seed}-{new}")
            issued[kind].append(request)
            requests.append(request)
            new += 1
        yield requests


class Server:
    """A ``repro serve --workers 1 --intra-jobs 1`` child process."""

    def __init__(self, log: Path, spans_out: Path | None = None) -> None:
        self.log = log
        self.spans_out = spans_out
        self.proc: subprocess.Popen[bytes] | None = None
        self.url = ""

    def start(self) -> float:
        """Start the server; returns seconds until it answers."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        serve_args = ["serve", "--host", "127.0.0.1", "--port", str(port),
                      "--workers", "1", "--intra-jobs", "1"]
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   str(self.spans_out), *serve_args]
        self.url = f"http://127.0.0.1:{port}"
        start = time.monotonic()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log)
        while True:
            try:
                with urlopen(self.url + "/v1/healthz", timeout=5.0) as response:
                    response.read()
                return time.monotonic() - start
            except (URLError, ConnectionError):
                if self.proc.poll() is not None or time.monotonic() - start > 60.0:
                    self.stop()
                    raise RuntimeError(f"server did not start; see {self.log}")
                time.sleep(0.005)

    def stop(self) -> None:
        """Interrupt the server (as Ctrl-C would) and wait for it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


@dataclass
class Reply:
    request: Any
    latency: float
    doc: dict[str, Any] | None


def _submit(client: Any, request: Any) -> tuple[Reply, float]:
    """One closed-loop request: its reply and the time it was sent."""
    from repro.errors import ReproError

    start = time.monotonic()
    try:
        doc: dict[str, Any] | None = client.submit_and_wait(request)
    except (ReproError, OSError):
        doc = None
    return Reply(request, time.monotonic() - start, doc), start


def serve_bundled(url: str) -> list[Reply]:
    """Serve :func:`bundled_block` (untimed)."""
    from repro.server import ServerClient

    client = ServerClient(url, timeout=120.0)
    return [_submit(client, request)[0] for request in bundled_block()]


def serve_loop(
    url: str, seed: int, seconds: float, blocks: int | None = None,
    tracer: Tracer | None = None, between: Callable[[], None] | None = None,
) -> tuple[list[Reply], int, float]:
    """Whole timed blocks until ``seconds`` have elapsed (or exactly
    ``blocks`` of them): ``(replies, blocks, seconds)``.  ``between`` runs
    after every request, outside the loop's timing."""
    from repro.server import ServerClient

    client = ServerClient(url, timeout=120.0)
    replies: list[Reply] = []
    done = 0
    sequence = serve_blocks(seed)
    start = time.monotonic()
    while (done < blocks) if blocks is not None else (
        done == 0 or time.monotonic() - start < seconds
    ):
        for request in next(sequence):
            if tracer is not None:
                tracer.op = len(replies)
            reply, sent = _submit(client, request)
            if tracer is not None:
                tracer.add(OP, sent, sent + reply.latency)
            replies.append(reply)
            if between is not None:
                paused = time.monotonic()
                between()
                start += time.monotonic() - paused
        done += 1
    return replies, done, time.monotonic() - start


def check_replies(replies: list[Reply], outcome: Outcome) -> None:
    """Decision hashes per distinct request, then RCK per flow result."""
    from repro.core import FlowResult
    from repro.netlist import generate_circuit, profile_for

    first: dict[str, tuple[str, Reply]] = {}
    for reply in replies:
        outcome.attempted += 1
        request = reply.request
        key = json.dumps(request.to_dict(), sort_keys=True)
        if reply.doc is None:
            outcome.fail(f"{request.circuit}: request failed or was refused")
            continue
        if type(request).kind == "check":
            errors = check_report_errors(reply.doc)
            if errors:
                outcome.fail(f"{request.circuit}: check errors {sorted(set(errors))}")
                continue
            digest = report_hash(reply.doc["report"])
        else:
            digest = decision_hash(reply.doc["result"])
        if key not in first:
            first[key] = (digest, reply)
        elif digest != first[key][0]:
            outcome.fail(f"{request.circuit}: decisions differ from the first reply")
    for _, reply in first.values():
        request = reply.request
        if type(request).kind != "flow" or reply.doc is None:
            continue
        circuit = generate_circuit(profile_for(request.circuit))
        result = FlowResult.from_dict(reply.doc["result"])
        errors = rck_errors(circuit, result, request.options.assignment)
        if errors:
            repeats = sum(1 for r in replies if r.request == request)
            outcome.fail(f"{request.circuit}: RCK errors {sorted(set(errors))}", repeats)


def _server_log(out_dir: Path, seed: int) -> Path:
    """A fresh log file for the servers of one run (their stderr)."""
    log = out_dir / f"serve-mix-seed{seed}.server.log"
    log.unlink(missing_ok=True)
    return log


def served_quality(replies: list[Reply]) -> dict[str, tuple[float, str]]:
    """Quality guards of the Section V and VI s5378 flows, which every
    run requests in its bundled block (same results at every seed)."""
    from repro.core import FlowResult

    finals: dict[str, Any] = {}
    for reply in replies:
        request = reply.request
        if (reply.doc is not None and type(request).kind == "flow"
                and request.circuit == QUALITY_CIRCUIT):
            finals.setdefault(request.options.assignment,
                              FlowResult.from_dict(reply.doc["result"]).final)
    return quality_guards([finals[k] for k in sorted(finals)]) if len(finals) == 2 else {}


def run_serve_workload(seed: int, seconds: float, out_dir: Path) -> Outcome:
    outcome = Outcome()
    log = _server_log(out_dir, seed)
    # The servers start before this process imports NumPy or SciPy: a
    # child's peak RSS counts its parent's RSS at the time of the spawn.
    setups = []
    for i in range(SETUP_SAMPLES):
        server = Server(log)
        setups.append(server.start())
        if i < SETUP_SAMPLES - 1:
            server.stop()
    try:
        from reference import Reference
        from repro.netlist import profile_for

        reference = Reference()
        setup_s, setup_refs = reference.setup_s(setups)
        bundled_start = time.monotonic()
        bundled = serve_bundled(server.url)
        bundled_s = time.monotonic() - bundled_start
        reference.sample()
        watch = MachineWatch()
        replies, blocks, wall = serve_loop(
            server.url, seed, seconds, between=reference.between
        )
        machine = watch.report()
        reference.sample()
    finally:
        server.stop()
    check_replies(bundled + replies, outcome)
    done = [r for r in replies if r.doc is not None]
    colds = [r for r in done if not r.doc.get("cached")]
    cold_cells = sum(profile_for(r.request.circuit).num_cells for r in colds)
    raw = {
        "setup_s": (median(setups), "s"),
        "cells_per_s": (cold_cells / wall, "cells/s"),
        "req_per_s": (len(done) / wall, "1/s"),
        "latency_s_p50": (median([r.latency for r in done]) if done else 0.0, "s"),
        "cold_latency_s_p50": (median([r.latency for r in colds]) if colds else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        **served_quality(bundled),
    }
    outcome.metrics = reference.scale(raw)
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.details = {
        "bundled_s": bundled_s,
        "blocks": blocks,
        "requests": len(replies),
        "hits": len(done) - len(colds),
        "cold": len(colds),
        "loop_s": wall,
        "setup_samples_s": setups,
        "setup_reference_samples_s": setup_refs,
        "reference_samples_s": reference.samples,
        "unscaled_metrics": {name: value for name, (value, _) in raw.items()},
        "steal_share": machine["steal_share"],
    }
    return outcome


def trace_serve_workload(seed: int, seconds: float, out_dir: Path) -> Outcome:
    """The same requests on an untraced, a traced and another untraced
    server; the traced one's timed blocks give the per-layer numbers, the
    outer two its overhead."""
    from reference import Reference
    from repro.server import ServerClient

    outcome = Outcome()
    reference = Reference()
    reference.sample()
    log = _server_log(out_dir, seed)
    spans_out = out_dir / f"serve-mix-seed{seed}.server-spans.json"
    replies: list[Reply] = []
    plain_walls: list[float] = []
    blocks: int | None = None
    for phase in ("untraced", "traced", "untraced"):
        server = Server(log, spans_out=spans_out if phase == "traced" else None)
        server.start()
        tracer = Tracer() if phase == "traced" else None
        try:
            bundled = serve_bundled(server.url)
            before = ServerClient(server.url).stats()["cache"]
            done, count, wall = serve_loop(
                server.url, seed, seconds / 3, blocks=blocks, tracer=tracer
            )
            after = ServerClient(server.url).stats()["cache"]
        finally:
            server.stop()
        replies += bundled + done
        blocks = count
        if tracer is None:
            plain_walls.append(wall)
        else:
            client_spans, traced_wall = tracer.spans, wall
            hits = after["hits"] - before["hits"]
            lookups = int(hits + after["misses"] - before["misses"])
    reference.sample()
    check_replies(replies, outcome)
    server_side = json.loads(spans_out.read_text())
    spans = client_spans + [Span.from_dict(raw) for raw in server_side["spans"]]
    extras = {"server.cache_hit_ratio": (hits / lookups if lookups else None, lookups)}
    overhead = traced_wall / (sum(plain_walls) / len(plain_walls)) - 1.0
    unmeasured = _per_layer(outcome, spans, server_side["seen"], overhead, extras)
    outcome.details = {
        "unmeasured": unmeasured,
        "blocks_per_phase": blocks,
        "untraced_s": plain_walls,
        "traced_s": traced_wall,
        "slowdown": reference.slowdown(),
    }
    return outcome
