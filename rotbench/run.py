"""Benchmark entry point.

    python3 rotbench/run.py --workload table2-flow --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing is built).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the environment.
Full results, the Chrome trace and the per-layer ledger rows are written
under ``rotbench/out/``.  See ``rotbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS/OpenMP threads per program process.  More threads burn CPU
#: without gaining wall time here, and scale10k's stage-1 placement (so
#: its decisions) changes with the BLAS thread count.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Program settings that would change what a run measures.
REFUSED_ENV = (
    "REPRO_JOBS",
    "REPRO_PARALLEL_BACKEND",
    "REPRO_SANITIZE",
    "REPRO_EXPERIMENTS_FAULT",
)
WORKLOAD_NAMES = ("table2-flow", "scale10k-ilp", "serve-mix")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def revision() -> str:
    """Content hash of the program source (checkouts carry no VCS data)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(workload: str) -> dict[str, object]:
    import numpy
    import scipy

    from layers import SCALE10K
    from workloads import SCALE_JOBS

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ[name] for name in PINNED_THREADS},
        "jobs": SCALE_JOBS if workload == SCALE10K else 1,
        "backend": "thread",
        "revision": revision(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"rotbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"rotbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    # Before numpy is imported here or in any child process.
    os.environ.update(PINNED_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path.insert(0, str(SRC))

    import workloads

    if args.setup_probe:
        print(workloads.flow_setup_probe(args.workload))
        return 0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    traced = bool(args.trace)
    started = time.monotonic()
    if args.workload == "serve-mix":
        run = workloads.trace_serve_workload if traced else workloads.run_serve_workload
        outcome = run(args.seed, args.seconds, out_dir)
    else:
        run = workloads.trace_flow_workload if traced else workloads.run_flow_workload
        outcome = run(args.workload, args.seconds)
    env = environment(args.workload)

    if traced:
        from layers import check_mapped_calls, ledger_rows
        from spans import chrome_trace

        ops = {s.op: s.args.get("input", "") for s in outcome.spans if s.name == "op"}
        (out_dir / f"{stem}.trace.json").write_text(
            json.dumps(chrome_trace(outcome.spans, ops))
        )
        stamp = {k: env[k] for k in ("cpu_count", "backend", "jobs", "revision")}
        stamp["slowdown"] = outcome.details["slowdown"]
        rows = ledger_rows(args.workload, outcome.spans, {**stamp, "seed": args.seed})
        with open(out_dir / f"{stem}.ledger.jsonl", "w") as fh:
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        missing = check_mapped_calls(args.workload, outcome.layer_calls)
        if missing:
            print(f"rotbench: traced run recorded no call to {', '.join(missing)}",
                  file=sys.stderr)
            return 1

    expected = workloads.END_TO_END if not traced else outcome.layer_calls
    result = {
        "correct": outcome.failed == 0 and all(n in outcome.metrics for n in expected),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "env": env,
        "details": outcome.details,
        "failures": outcome.failures,
        "error_rate": outcome.failed / max(1, outcome.attempted),
        "result": result,
    }
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    for reason in outcome.failures:
        print(f"rotbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({"env": env, "details": outcome.details}))
    # JSON has no NaN or infinity: a metric without a finite value is a
    # benchmark defect, not a result line.
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
