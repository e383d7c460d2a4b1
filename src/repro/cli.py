"""Command-line interface.

Usage (also via ``python -m repro``)::

    repro run s9234 --engine flow          # integrated flow, Table IV style
    repro run s9234 --json                 # machine-readable FlowResult
    repro profile s5378                    # trace + summary JSON exports
    repro tables --circuits s9234,s5378    # regenerate Tables I-VII
    repro bench-info s38417                # circuit profile + generation
    repro sweep-rings s5378 --sides 2,3,4  # ring-count ablation (§IX)
    repro check s9234 --format sarif       # static design-rule checks
    repro lint src/ --format sarif         # determinism/API codebase lint
    repro serve --port 8765 --workers 4    # run the flow service
    repro submit s9234 --wait              # submit a FlowRequest to it
    repro status job-00000001 --events     # poll / stream job progress

Every command shares one exit-code contract (:class:`ExitCode`):
0 = success / no findings at or above ``--fail-on``,
1 = findings at or above the threshold, partial tables, a failed run,
or a failed or shed server job, 2 = usage or configuration error
(unknown rule code, bad severity, a flag value the options reject,
unreadable input or output path, unreachable server).
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import IO, Any, Callable, Iterator, Mapping

from .api import CheckRequest, FlowRequest, TablesRequest, check_design, run_flow
from .constants import DEFAULT_TECHNOLOGY, frequency_ghz
from .core import FlowOptions, sweep_ring_count
from .errors import ReproError
from .netlist import ALL_PROFILES, PROFILE_ORDER, generate_named


class ExitCode(enum.IntEnum):
    """The one process exit contract every subcommand maps onto."""

    OK = 0
    #: Findings at/above the failure threshold (check/lint), partial
    #: tables (some circuit failed), a failed run, or a failed/shed
    #: server job.
    FINDINGS = 1
    PARTIAL = 1  # alias: same exit code, tables/server wording
    #: Usage or configuration error.
    USAGE = 2


def render_report(
    report: Any,
    renderers: Mapping[str, Callable[[Any], str]],
    *,
    fmt: str = "text",
    output: str = "",
    sarif_path: str = "",
) -> None:
    """Shared check/lint report output: stdout or file, optional SARIF.

    ``renderers`` maps format name (``text``/``json``/``sarif``) to a
    function of the report; ``repro check`` and ``repro lint`` pass
    their respective modules' renderers.
    """
    rendered = renderers[fmt](report)
    if output:
        with open(output, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {output}")
    else:
        print(rendered)
    if sarif_path and fmt != "sarif":
        with open(sarif_path, "w") as fh:
            fh.write(renderers["sarif"](report) + "\n")
        print(f"wrote {sarif_path}")


def _add_common_flow_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=["flow", "ilp"],
        default="flow",
        help="assignment engine: Section V network flow or Section VI ILP",
    )
    parser.add_argument(
        "--iterations", type=int, default=5, help="max stage 3-6 iterations"
    )
    parser.add_argument(
        "--period", type=float, default=1000.0, help="clock period (ps)"
    )
    parser.add_argument(
        "--net-weighting",
        choices=["none", "critical"],
        default="none",
        help="up-weight nets on critical sequential pairs during "
        "incremental placement",
    )
    parser.add_argument(
        "--critical-k",
        type=int,
        default=10,
        help="critical pairs extracted per iteration (with "
        "--net-weighting critical)",
    )
    parser.add_argument(
        "--critical-weight",
        type=float,
        default=3.0,
        help="spring weight multiplier for nets on critical paths",
    )
    parser.add_argument(
        "--jobs",
        type=_parse_jobs_arg,
        default=1,
        metavar="N|auto",
        help="intra-run worker count for the chunked hot loops "
        "(execution-only: results are bit-identical at any value; "
        "REPRO_JOBS overrides)",
    )


def _parse_jobs_arg(text: str) -> int | str:
    from .parallel import parse_jobs

    try:
        return parse_jobs(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _OptionsError(Exception):
    """A flag value an options or request type rejected: a usage error."""


@contextmanager
def _flag_values() -> Iterator[None]:
    """Report a ``ReproError`` raised while building options or a
    request from flags as :class:`_OptionsError`, so it maps to
    ``ExitCode.USAGE``."""
    try:
        yield
    except ReproError as exc:
        raise _OptionsError(str(exc)) from None


def _options_from_args(args: argparse.Namespace) -> FlowOptions:
    """FlowOptions from the common flow flags: the one place any command
    builds them.  The ring grid stays unset; request normalization fills
    in the circuit profile's."""
    with _flag_values():
        options = FlowOptions(
            assignment=args.engine,
            max_iterations=args.iterations,
            period=args.period,
            net_weighting=args.net_weighting,
            critical_pairs_k=args.critical_k,
            critical_weight=args.critical_weight,
            jobs=args.jobs,
        )
    return options


@contextmanager
def _replacing(path: str) -> Iterator[IO[str]]:
    """A temporary file beside ``path``, moved onto it when the block
    succeeds and removed when the block raises.  It is opened before the
    block runs, so an unwritable path fails before any work is done, and
    a failed run leaves no truncated file."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        # Name the path asked for, not the temporary one.
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_run(args: argparse.Namespace) -> int:
    request = FlowRequest(circuit=args.circuit, options=_options_from_args(args))
    with _replacing(args.save) if args.save else nullcontext() as saved:
        result = run_flow(request).result
        if args.save or args.json:
            document = json.dumps(result.to_dict(), indent=1, sort_keys=True)
        if saved is not None:
            print(document, file=saved)
    if args.save:
        print(f"design saved to {args.save}", file=sys.stderr)
    if args.json:
        print(document)
        return 0
    print(f"{args.circuit}: {len(result.assignment.ff_names)} flip-flops, "
          f"{result.array.num_rings} rings at "
          f"{frequency_ghz(args.period):.2f} GHz ({args.engine} engine)")
    print(f"  slack available {result.slack_available:.1f} ps, "
          f"guaranteed {result.slack_guaranteed:.1f} ps")
    print(f"  base : tap WL {result.base.tapping_wirelength:10.0f} um   "
          f"AFD {result.base.average_flipflop_distance:7.1f} um")
    print(f"  final: tap WL {result.final.tapping_wirelength:10.0f} um   "
          f"AFD {result.final.average_flipflop_distance:7.1f} um   "
          f"({result.tapping_improvement:+.1%})")
    print(f"  signal WL {result.final.signal_wirelength:.0f} um "
          f"({result.signal_penalty:+.2%}), max ring load "
          f"{result.final.max_load_capacitance:.1f} fF")
    print(f"  {len(result.history)} iterations; CPU stages "
          f"{result.seconds_algorithm:.1f} s, placer {result.seconds_placer:.1f} s")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .analysis import (
        CheckConfig,
        DesignContext,
        Severity,
        parse_severity_overrides,
        render_json,
        render_sarif,
        render_text,
        run_checks,
    )

    config = CheckConfig(
        enabled=tuple(args.enable or ()),
        disabled=tuple(args.disable or ()),
        severity_overrides=parse_severity_overrides(args.severity or ()),
        fail_on=Severity.parse(args.fail_on),
    )
    options = _options_from_args(args)
    if args.bench:
        from .netlist import read_bench

        # Parse without validating: the checker reports broken netlists
        # as RCK1xx diagnostics instead of a parse-time exception.
        circuit = read_bench(args.bench, validate=False)
        ctx = DesignContext(name=circuit.name, circuit=circuit, period=options.period)
        report = run_checks(ctx, config)
    else:
        report = check_design(CheckRequest(
            circuit=args.circuit,
            options=options,
            netlist_only=args.netlist_only,
            config=config,
        ))
    render_report(
        report,
        {"text": render_text, "json": render_json, "sarif": render_sarif},
        fmt=args.format,
        output=args.output,
        sarif_path=args.sarif,
    )
    return ExitCode(report.exit_code(config.fail_on))


def cmd_lint(args: argparse.Namespace) -> int:
    from .errors import CheckError
    from .lint import (
        LintConfig,
        Severity,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
    )

    overrides: dict[str, Severity] = {}
    for item in args.severity or ():
        code, sep, level = item.partition("=")
        if not sep:
            raise CheckError(
                f"--severity expects CODE=LEVEL, got {item!r}"
            )
        overrides[code.strip()] = Severity.parse(level.strip())
    config = LintConfig(
        enabled=tuple(args.enable or ()),
        disabled=tuple(args.disable or ()),
        severity_overrides=overrides,
        fail_on=Severity.parse(args.fail_on),
    )
    report = lint_paths(args.paths, config)
    render_report(
        report,
        {"text": render_text, "json": render_json, "sarif": render_sarif},
        fmt=args.format,
        output=args.output,
        sarif_path=args.sarif,
    )
    return ExitCode(report.exit_code(config.fail_on))


def cmd_tables(args: argparse.Namespace) -> int:
    from .api import run_tables
    from .experiments import format_table

    if args.resume and not args.checkpoint_dir:
        print("repro tables: --resume requires --checkpoint-dir",
              file=sys.stderr)
        return ExitCode.USAGE

    circuits = (
        tuple(c.strip() for c in args.circuits.split(",") if c.strip())
        if args.circuits
        else tuple(PROFILE_ORDER)
    )
    with _flag_values():
        request = TablesRequest(
            circuits=circuits,
            parallel=args.parallel,
            timeout=args.timeout or None,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            checkpoint_dir=args.checkpoint_dir or None,
            resume=args.resume,
            ilp_time_limit=args.ilp_time_limit,
        )
    run = run_tables(request)
    titles = {
        "table1": "Table I",
        "table2": "Table II",
        "table3": "Table III",
        "table4": "Table IV",
        "table5": "Table V",
        "table6": "Table VI",
        "table7": "Table VII",
    }
    for key, rows in run.tables.items():
        print(format_table(rows, titles[key], markdown=args.markdown))
        print()
    if run.report is not None:
        r = run.report
        print(f"parallel run: {len(r.completed)} computed, "
              f"{len(r.resumed)} resumed from checkpoints, "
              f"{len(r.failed)} failed tasks "
              f"({r.retries} retries, {r.timeouts} timeouts, "
              f"{r.crashes} crashes) in {r.seconds:.1f} s")
    if run.stale_checkpoints:
        print(f"repro tables: {run.stale_checkpoints} stale checkpoint "
              f"artifact(s) ignored (written under a different "
              f"options/technology digest)", file=sys.stderr)
    if run.failures:
        for name, reason in sorted(run.failures.items()):
            print(f"repro tables: {name} failed: {reason}", file=sys.stderr)
        return ExitCode.PARTIAL
    return ExitCode.OK


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs import TraceCollector
    from .server import ServerOptions, serve

    with _flag_values():
        options = ServerOptions(
            workers=args.workers,
            max_queue_depth=args.queue_depth,
            cache_capacity=args.cache_capacity,
            default_deadline_seconds=args.deadline or None,
            task_timeout_seconds=args.task_timeout or None,
            max_retries=args.max_retries,
            retry_backoff_seconds=args.retry_backoff,
            execution="inline" if args.inline else "process",
            intra_jobs=args.intra_jobs,
        )
    print(f"repro serve: listening on http://{args.host}:{args.port} "
          f"({options.workers} workers, queue depth "
          f"{options.max_queue_depth}, {options.execution} execution)")
    serve(args.host, args.port, options=options, collector=TraceCollector())
    return ExitCode.OK


def _request_from_args(args: argparse.Namespace) -> FlowRequest | CheckRequest:
    request_type = CheckRequest if args.kind == "check" else FlowRequest
    options = _options_from_args(args)
    with _flag_values():
        return request_type(
            circuit=args.circuit,
            options=options,
            deadline_seconds=args.deadline or None,
        )


def cmd_submit(args: argparse.Namespace) -> int:
    from .server import ServerClient

    client = ServerClient(args.server, timeout=args.http_timeout)
    request = _request_from_args(args)
    if args.wait:
        doc = client.submit_and_wait(request)
        if args.json:
            print(json.dumps(doc, indent=1, sort_keys=True))
            return ExitCode.OK
        cached = " (cached)" if doc.get("cached") else ""
        print(f"{args.kind} {args.circuit}: done{cached}, "
              f"digest {doc['request_digest'][:12]}")
        result = doc.get("result")
        if args.kind == "flow" and isinstance(result, dict):
            final = result["final"]
            print(f"  tap WL {final['tapping_wirelength_um']:.0f} um, "
                  f"AFD {final['average_flipflop_distance_um']:.1f} um, "
                  f"{len(result['history'])} iterations")
        return ExitCode.OK
    status = client.submit(request)
    print(f"{status.job_id} {status.state.value} "
          f"digest {status.request_digest[:12]}"
          f"{' (cached)' if status.cached else ''}")
    return ExitCode.OK


def cmd_status(args: argparse.Namespace) -> int:
    from .api import JobState
    from .server import ServerClient

    client = ServerClient(args.server, timeout=args.http_timeout)
    if args.events:
        for event in client.events(args.job_id, since=args.since):
            print(json.dumps(event, sort_keys=True))
    if args.result:
        doc = client.result(args.job_id)
        print(json.dumps(doc, indent=1, sort_keys=True))
        return ExitCode.OK
    status = client.status(args.job_id)
    if args.json:
        print(json.dumps(status.to_dict(), indent=1, sort_keys=True))
    else:
        line = (f"{status.job_id} {status.kind} {status.circuit}: "
                f"{status.state.value}"
                f"{' (cached)' if status.cached else ''}")
        if status.state.terminal:
            line += (f", queued {status.queued_seconds:.2f} s, "
                     f"ran {status.run_seconds:.2f} s, "
                     f"{status.num_events} events")
        if status.error is not None:
            line += (f" [{status.error.kind} after {status.error.attempts} "
                     f"attempt(s): {status.error.message}]")
        print(line)
    return (
        ExitCode.FINDINGS
        if status.state is JobState.FAILED
        else ExitCode.OK
    )


def cmd_bench_info(args: argparse.Namespace) -> int:
    profile = ALL_PROFILES[args.circuit]
    circuit = generate_named(args.circuit)
    stats = circuit.stats()
    print(f"{profile.name}: {stats.num_cells} cells "
          f"({stats.num_gates} gates + {stats.num_flipflops} flip-flops), "
          f"{stats.num_nets} nets, {stats.num_inputs} PIs, "
          f"{stats.num_outputs} POs")
    print(f"  paper Table II: {profile.num_cells} cells, "
          f"{profile.num_flipflops} FFs, {profile.num_nets} nets, "
          f"{profile.num_rings} rings, PL {profile.paper_path_length_um} um")
    print(f"  logic depth {profile.logic_depth} levels, seed {profile.seed}")
    return 0


def cmd_sweep_rings(args: argparse.Namespace) -> int:
    circuit = generate_named(args.circuit)
    sides = [int(s) for s in args.sides.split(",")]
    options = _options_from_args(args)
    sweep = sweep_ring_count(circuit, DEFAULT_TECHNOLOGY, options, sides)
    print(f"{args.circuit}: ring-count sweep "
          f"(clock WL = tapping stubs + ring loops)")
    print(f"{'side':>5} {'rings':>6} {'tap WL':>10} {'ring WL':>10} "
          f"{'clock WL':>10} {'max cap':>8}")
    for p in sweep.points:
        marker = " <- best" if p is sweep.best else ""
        print(f"{p.grid_side:5d} {p.num_rings:6d} "
              f"{p.tapping_wirelength:10.0f} {p.ring_wirelength:10.0f} "
              f"{p.clock_wirelength:10.0f} {p.max_load_capacitance:8.1f}"
              f"{marker}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .obs import TraceCollector, write_chrome_trace, write_summary

    trace_path = args.trace or f"{args.circuit}.trace.json"
    summary_path = args.summary or f"{args.circuit}.summary.json"
    collector = TraceCollector()
    request = FlowRequest(circuit=args.circuit, options=_options_from_args(args))
    result = run_flow(request, collector=collector).result
    trace = result.trace
    assert trace is not None  # TraceCollector always records one
    write_chrome_trace(trace, trace_path)
    write_summary(trace, summary_path)
    stats = trace.aggregate()
    total_ms = sum(s.total_ms for s in stats.values())
    print(f"{args.circuit}: {len(result.history)} iterations, "
          f"{trace.num_events} events ({len(trace.spans)} spans, "
          f"{total_ms:.1f} ms inside spans)")
    width = max(len(name) for name in stats) if stats else 0
    for name in sorted(stats, key=lambda n: -stats[n].total_ms):
        s = stats[name]
        print(f"  {name:<{width}}  x{s.count:<3d} total {s.total_ms:9.2f} ms  "
              f"mean {s.mean_ms:8.2f} ms  max {s.max_ms:8.2f} ms")
    for counter in sorted(trace.counters):
        print(f"  {counter:<{width}}  = {trace.counters[counter]}")
    print(f"wrote {trace_path} (Chrome trace-event format; load in "
          f"ui.perfetto.dev) and {summary_path}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from .viz import render_flow_svg

    request = FlowRequest(circuit=args.circuit, options=_options_from_args(args))
    result = run_flow(request).result
    svg = render_flow_svg(result, request.resolve(), show_cells=args.cells)
    with open(args.output, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.output} ({len(svg)} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Integrated placement and skew optimization for rotary clocking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the integrated flow on a benchmark")
    run.add_argument("circuit", choices=sorted(ALL_PROFILES))
    run.add_argument(
        "--save", default="", metavar="PATH",
        help="write the FlowResult document (the --json output) to PATH",
    )
    run.add_argument("--json", action="store_true",
                     help="print the full FlowResult as JSON instead of text")
    _add_common_flow_args(run)
    run.set_defaults(func=cmd_run)

    profile = sub.add_parser(
        "profile",
        help="run the flow with tracing and export trace + summary JSON",
        description="Run the integrated flow with the observability layer "
        "enabled, print a per-stage timing table, and write a Chrome "
        "trace-event file (loadable in ui.perfetto.dev) plus an aggregated "
        "JSON summary. Exit 0 = success, 2 = unwritable output path.",
    )
    profile.add_argument("circuit", choices=sorted(ALL_PROFILES))
    profile.add_argument(
        "--trace", default="", metavar="PATH",
        help="Chrome trace-event output (default: <circuit>.trace.json)",
    )
    profile.add_argument(
        "--summary", default="", metavar="PATH",
        help="aggregated summary output (default: <circuit>.summary.json)",
    )
    _add_common_flow_args(profile)
    profile.set_defaults(func=cmd_profile)

    check = sub.add_parser(
        "check",
        help="run the static design-rule checker (RCK diagnostics)",
        description="Statically check a design: run the flow on a named "
        "benchmark (or parse a .bench netlist) and report RCK diagnostics. "
        "Exit 0 = clean, 1 = findings at/above --fail-on, 2 = usage error.",
    )
    check.add_argument(
        "circuit", nargs="?", choices=sorted(ALL_PROFILES),
        help="bundled benchmark profile to flow and check",
    )
    check.add_argument(
        "--bench", default="",
        help="check a .bench netlist file instead of a bundled profile",
    )
    check.add_argument(
        "--netlist-only", action="store_true",
        help="skip the flow; run only the netlist-level rules",
    )
    check.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format on stdout",
    )
    check.add_argument(
        "-o", "--output", default="", help="write the report to a file"
    )
    check.add_argument(
        "--sarif", default="",
        help="additionally write a SARIF 2.1.0 report to this path",
    )
    check.add_argument(
        "--enable", action="append", metavar="CODE",
        help="restrict the run to these rule codes (repeatable)",
    )
    check.add_argument(
        "--disable", action="append", metavar="CODE",
        help="disable a rule code (repeatable)",
    )
    check.add_argument(
        "--severity", action="append", metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. RCK103=error (repeatable)",
    )
    check.add_argument(
        "--fail-on", default="error", metavar="LEVEL",
        help="exit 1 when findings reach this severity (default: error)",
    )
    _add_common_flow_args(check)
    check.set_defaults(func=cmd_check)

    lint = sub.add_parser(
        "lint",
        help="lint Python sources for nondeterminism hazards (DET/API)",
        description="Run the determinism sanitizer's static pass over "
        "Python sources: DET rules flag iteration orders and global "
        "state that vary with PYTHONHASHSEED or the wall clock, API "
        "rules flag mutable defaults, swallowed exceptions, and "
        "unannotated public functions. "
        "Exit 0 = clean, 1 = findings at/above --fail-on, 2 = usage "
        "error (unknown rule code, unparseable file, missing path).",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format on stdout",
    )
    lint.add_argument(
        "-o", "--output", default="", help="write the report to a file"
    )
    lint.add_argument(
        "--sarif", default="",
        help="additionally write a SARIF 2.1.0 report to this path",
    )
    lint.add_argument(
        "--enable", action="append", metavar="CODE",
        help="restrict the run to these rule codes (repeatable)",
    )
    lint.add_argument(
        "--disable", action="append", metavar="CODE",
        help="disable a rule code (repeatable)",
    )
    lint.add_argument(
        "--severity", action="append", metavar="CODE=LEVEL",
        help="override a rule's severity, e.g. API003=error (repeatable)",
    )
    lint.add_argument(
        "--fail-on", default="error", metavar="LEVEL",
        help="exit 1 when findings reach this severity (default: error)",
    )
    lint.set_defaults(func=cmd_lint)

    tables = sub.add_parser(
        "tables",
        help="regenerate the paper's tables",
        description="Regenerate Tables I-VII. With --parallel the "
        "(circuit x engine) matrix runs over worker processes with "
        "per-task timeouts and bounded retries; with --checkpoint-dir "
        "every completed circuit is written as an atomic JSON artifact "
        "and --resume continues an interrupted suite from there. "
        "Exit 0 = all circuits completed, 1 = partial tables (some "
        "circuit failed), 2 = usage error.",
    )
    tables.add_argument("--circuits", default="", help="comma-separated subset")
    tables.add_argument("--ilp-time-limit", type=float, default=10.0)
    tables.add_argument("--markdown", action="store_true",
                        help="emit Markdown tables instead of aligned text")
    tables.add_argument(
        "--parallel", type=int, default=0, metavar="N",
        help="run the suite over N worker processes (0 = serial)",
    )
    tables.add_argument(
        "--timeout", type=float, default=0.0, metavar="SECONDS",
        help="per-task wall-clock deadline for parallel runs (0 = none)",
    )
    tables.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per task after crash/timeout/error (default: 2)",
    )
    tables.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential retry backoff (default: 0.5)",
    )
    tables.add_argument(
        "--checkpoint-dir", default="", metavar="DIR",
        help="write one atomic JSON checkpoint per completed circuit",
    )
    tables.add_argument(
        "--resume", action="store_true",
        help="serve completed circuits from --checkpoint-dir",
    )
    tables.set_defaults(func=cmd_tables)

    info = sub.add_parser("bench-info", help="show a benchmark profile")
    info.add_argument("circuit", choices=sorted(ALL_PROFILES))
    info.set_defaults(func=cmd_bench_info)

    render = sub.add_parser("render", help="render the flow result as SVG")
    render.add_argument("circuit", choices=sorted(ALL_PROFILES))
    render.add_argument("-o", "--output", default="rotary.svg")
    render.add_argument("--cells", action="store_true",
                        help="also draw combinational cells")
    _add_common_flow_args(render)
    render.set_defaults(func=cmd_render)

    sweep = sub.add_parser("sweep-rings", help="ring-count ablation (Section IX)")
    sweep.add_argument("circuit", choices=sorted(ALL_PROFILES))
    sweep.add_argument("--sides", default="2,3,4,5")
    _add_common_flow_args(sweep)
    sweep.set_defaults(func=cmd_sweep_rings)

    srv = sub.add_parser(
        "serve",
        help="run the flow service (HTTP/JSON, see DESIGN.md section 15)",
        description="Run the flow-as-a-service HTTP server: POST "
        "/v1/flows and /v1/checks submit jobs, each run in its own "
        "worker process, backed by a digest-keyed result cache; GET "
        "/v1/jobs/<id> polls and /v1/jobs/<id>/events streams progress. "
        "Runs until interrupted.",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765)
    srv.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes, each running one job at a time and kept "
        "between jobs (default: 2)",
    )
    srv.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="maximum queued jobs before shedding with 503 (default: 64)",
    )
    srv.add_argument(
        "--cache-capacity", type=int, default=256, metavar="N",
        help="result-cache entries kept (LRU, default: 256)",
    )
    srv.add_argument(
        "--deadline", type=float, default=0.0, metavar="SECONDS",
        help="default per-request deadline when the request sets none",
    )
    srv.add_argument(
        "--task-timeout", type=float, default=0.0, metavar="SECONDS",
        help="per-attempt wall-clock limit of a job's process (0 = none)",
    )
    srv.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retries per job after crash/timeout/error (default: 0)",
    )
    srv.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential retry backoff (default: 0.5)",
    )
    srv.add_argument(
        "--inline", action="store_true",
        help="execute jobs in the server process (live iteration events; "
        "no crash isolation)",
    )
    srv.add_argument(
        "--intra-jobs", type=_parse_jobs_arg, default="auto",
        metavar="N|auto",
        help="intra-run worker budget applied to each job's options.jobs "
        "(auto = cores divided across --workers; execution-only, so "
        "cache keys never fork on it)",
    )
    srv.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a request to a running flow service",
        description="Build a typed request document (FlowRequest / "
        "CheckRequest) and POST it to a running 'repro serve' instance. "
        "Exit 0 = submitted (or, with --wait, completed), 1 = the server "
        "shed or failed the job, 2 = unreachable server or usage error.",
    )
    submit.add_argument("circuit", help="circuit name")
    submit.add_argument(
        "--kind", choices=["flow", "check"], default="flow",
        help="request type (default: flow)",
    )
    submit.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL",
        help="base URL of the running service",
    )
    submit.add_argument(
        "--deadline", type=float, default=0.0, metavar="SECONDS",
        help="per-request deadline; past it the server sheds with 503",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and print the result",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="with --wait, print the full result document as JSON",
    )
    submit.add_argument(
        "--http-timeout", type=float, default=600.0, metavar="SECONDS",
        help="client-side socket timeout (default: 600)",
    )
    _add_common_flow_args(submit)
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status",
        help="poll a job on a running flow service",
        description="Show a job's status document; --events streams its "
        "newline-delimited progress events until the job is terminal, "
        "--result prints the full result document. Exit 0 = job OK, "
        "1 = job FAILED, 2 = unreachable server or unknown job.",
    )
    status.add_argument("job_id", help="job id, e.g. job-00000001")
    status.add_argument(
        "--server", default="http://127.0.0.1:8765", metavar="URL",
        help="base URL of the running service",
    )
    status.add_argument(
        "--events", action="store_true",
        help="stream progress events (ndjson) until the job is terminal",
    )
    status.add_argument(
        "--since", type=int, default=0, metavar="N",
        help="with --events, resume the stream after event N",
    )
    status.add_argument(
        "--result", action="store_true",
        help="print the result document instead of the status line",
    )
    status.add_argument(
        "--json", action="store_true",
        help="print the status document as JSON",
    )
    status.add_argument(
        "--http-timeout", type=float, default=600.0, metavar="SECONDS",
        help="client-side socket timeout (default: 600)",
    )
    status.set_defaults(func=cmd_status)

    return parser


#: The commands that build FlowOptions from flags and run the flow.
_FLOW_COMMANDS = (
    cmd_run, cmd_check, cmd_profile, cmd_render, cmd_sweep_rings, cmd_submit
)


def _failed_run(args: argparse.Namespace, exc: ReproError) -> int:
    """A flow command whose run raised: one line on stderr, exit 1."""
    if args.func not in _FLOW_COMMANDS:
        raise exc
    print(f"repro {args.command}: {exc}", file=sys.stderr)
    return ExitCode.FINDINGS


def main(argv: list[str] | None = None) -> int:
    from .errors import CheckError, NetlistError, SaturatedError, ServerError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is cmd_check and not (args.circuit or args.bench):
        print("repro check: provide a bundled circuit or --bench FILE",
              file=sys.stderr)
        return ExitCode.USAGE
    try:
        return args.func(args)
    except _OptionsError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    except SaturatedError as exc:
        # The server shed the request (queue full or deadline passed).
        print(f"repro {args.command}: server saturated, retry after "
              f"{exc.retry_after_seconds:g} s: {exc}", file=sys.stderr)
        return ExitCode.FINDINGS
    except ServerError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return ExitCode.FINDINGS
    except (CheckError, NetlistError, OSError) as exc:
        if args.func is cmd_check:
            print(f"repro check: {exc}", file=sys.stderr)
            return ExitCode.USAGE
        if args.func is cmd_lint:
            print(f"repro lint: {exc}", file=sys.stderr)
            return ExitCode.USAGE
        if args.func in (cmd_profile, cmd_run) and isinstance(exc, OSError):
            print(f"repro {args.command}: {exc}", file=sys.stderr)
            return ExitCode.USAGE
        if args.func in (cmd_submit, cmd_status) and isinstance(exc, OSError):
            # urllib's URLError is an OSError: the server is unreachable.
            print(f"repro {args.command}: cannot reach {args.server}: {exc}",
                  file=sys.stderr)
            return ExitCode.USAGE
        if isinstance(exc, OSError):
            raise
        return _failed_run(args, exc)
    except ReproError as exc:
        return _failed_run(args, exc)


if __name__ == "__main__":
    sys.exit(main())
