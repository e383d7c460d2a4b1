"""Scale ladder: throughput and memory on the 10k/100k synthetic profiles.

Standalone (argparse, not pytest — the profiles are too big for the
benchmark fixtures): runs the integrated flow end-to-end on each
requested scale profile and records cells/sec, peak RSS, and iterations
to converge, plus a placement *solver ladder* on the 10k profile that
times one ``place()`` per solver mode and gates the sparse
preconditioned path against the dense factorization baseline.

Writes ``BENCH_scale.json`` (schema below); the CI ``scale-smoke`` job
runs the 10k rung per-PR with a wall-clock budget and an RSS ceiling,
and the nightly job adds the 100k rung::

    {
      "profiles": {"scale10k": {"cells": ..., "flow_s": ...,
                    "cells_per_s": ..., "iterations": ...,
                    "peak_rss_mb": ...}, ...},
      "solver_ladder": {"circuit": "scale10k",
                        "modes": {"dense": {...}, "pcg": {...}, ...},
                        "pcg_speedup_vs_dense": ...}
    }

Exit codes: 0 = all rungs within budget, 1 = budget/ceiling/speedup
violation, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from repro.api import FlowRequest, run_flow
from repro.constants import DEFAULT_TECHNOLOGY
from repro.netlist import ALL_PROFILES, SCALE_PROFILE_ORDER, generate_named
from repro.placement import PlacerOptions, QuadraticPlacer, region_for_circuit

#: Solver rungs of the placement ladder, slowest first.  ``dense`` is
#: O(n^2) memory — it stays off the 100k profile by construction.
LADDER_MODES = ("dense", "direct", "cg", "pcg")

#: The sparse preconditioned path must beat dense factorization by at
#: least this factor on the 10k rung (the PR's headline criterion).
MIN_PCG_SPEEDUP = 5.0


def peak_rss_mb() -> float:
    """Process high-water RSS in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_profile(name: str) -> dict:
    """One end-to-end flow on ``name``; throughput + convergence stats."""
    profile = ALL_PROFILES[name]
    t0 = time.perf_counter()
    generate_named(name)  # warm generation, timed separately from the flow
    gen_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = run_flow(FlowRequest(circuit=name)).result
    flow_s = time.perf_counter() - t0
    return {
        "cells": profile.num_cells,
        "flipflops": profile.num_flipflops,
        "rings": profile.num_rings,
        "generate_s": gen_s,
        "flow_s": flow_s,
        "cells_per_s": profile.num_cells / flow_s,
        "iterations": len(result.history),
        "total_wirelength": result.final.total_wirelength,
        "peak_rss_mb": peak_rss_mb(),
    }


def bench_solver_ladder(name: str) -> dict:
    """Time a single-level global ``place()`` per solver mode on ``name``.

    ``max_levels=1`` keeps every mode on the identical workload (one
    global pass, 4 axis solves) — the multilevel schedule would take the
    factorization modes into the tens of minutes at 10k cells.
    """
    circuit = generate_named(name)
    region = region_for_circuit(circuit, DEFAULT_TECHNOLOGY)
    n_movable = len(circuit.standard_cells)
    modes: dict[str, dict] = {}
    for mode in LADDER_MODES:
        placer = QuadraticPlacer(
            circuit, region, PlacerOptions(solver=mode, max_levels=1)
        )
        t0 = time.perf_counter()
        placer.place()
        dt = time.perf_counter() - t0
        modes[mode] = {
            "place_s": dt,
            "cells_per_s": n_movable / dt,
        }
        print(
            f"[bench_scale]   {mode:>6}: {dt:.2f}s "
            f"({n_movable / dt:.0f} cells/s)",
            flush=True,
        )
    speedup = modes["dense"]["place_s"] / modes["pcg"]["place_s"]
    return {
        "circuit": name,
        "movable_cells": n_movable,
        "modes": modes,
        "pcg_speedup_vs_dense": speedup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profiles",
        default="scale10k",
        help="comma-separated scale profiles to flow "
        f"(known: {', '.join(SCALE_PROFILE_ORDER)}; default: scale10k)",
    )
    parser.add_argument(
        "--ladder-circuit",
        default="scale10k",
        help="profile for the placement solver ladder (default: scale10k)",
    )
    parser.add_argument(
        "--skip-ladder",
        action="store_true",
        help="skip the solver ladder (flow rungs only)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=MIN_PCG_SPEEDUP,
        help="required pcg-vs-dense ladder speedup (default: %(default)s)",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="fail (exit 1) if the whole run exceeds this wall-clock budget",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="fail (exit 1) if peak RSS exceeds this ceiling",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_scale.json", help="result JSON path"
    )
    args = parser.parse_args(argv)

    names = [p.strip() for p in args.profiles.split(",") if p.strip()]
    unknown = [p for p in names if p not in ALL_PROFILES]
    if unknown:
        parser.error(f"unknown profiles: {', '.join(unknown)}")
        return 2  # unreachable; parser.error exits

    wall0 = time.perf_counter()
    doc: dict = {"profiles": {}, "solver_ladder": None}
    failures: list[str] = []

    for name in names:
        print(f"[bench_scale] flowing {name} ...", flush=True)
        stats = bench_profile(name)
        doc["profiles"][name] = stats
        print(
            f"[bench_scale] {name}: {stats['flow_s']:.1f}s flow, "
            f"{stats['cells_per_s']:.0f} cells/s, "
            f"{stats['iterations']} iterations, "
            f"peak RSS {stats['peak_rss_mb']:.0f} MB",
            flush=True,
        )

    if not args.skip_ladder:
        print(
            f"[bench_scale] solver ladder on {args.ladder_circuit} ...",
            flush=True,
        )
        ladder = bench_solver_ladder(args.ladder_circuit)
        doc["solver_ladder"] = ladder
        speedup = ladder["pcg_speedup_vs_dense"]
        print(f"[bench_scale] pcg vs dense: {speedup:.1f}x", flush=True)
        if speedup < args.min_speedup:
            failures.append(
                f"pcg speedup {speedup:.1f}x < required {args.min_speedup}x"
            )

    wall_s = time.perf_counter() - wall0
    rss_mb = peak_rss_mb()
    doc["wall_s"] = wall_s
    doc["peak_rss_mb"] = rss_mb
    if args.budget_seconds is not None and wall_s > args.budget_seconds:
        failures.append(
            f"wall clock {wall_s:.1f}s exceeds budget {args.budget_seconds}s"
        )
    if args.max_rss_mb is not None and rss_mb > args.max_rss_mb:
        failures.append(
            f"peak RSS {rss_mb:.0f} MB exceeds ceiling {args.max_rss_mb} MB"
        )
    doc["failures"] = failures

    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[bench_scale] wrote {args.output} (wall {wall_s:.1f}s)", flush=True)
    for message in failures:
        print(f"[bench_scale] FAIL: {message}", file=sys.stderr, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
