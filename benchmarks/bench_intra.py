"""Intra-run parallelism: cost-matrix speedup + bit-identity gates.

Standalone (argparse, not pytest — mirrors ``bench_scale``): times the
``scale10k``-sized tapping cost-matrix stage at ``jobs=1`` versus
``jobs="auto"`` and gates the speedup, then runs the full flow on
``scale10k`` at both settings and gates exact ``decision_digest()``
equality — the two halves of the ``repro.parallel`` contract (faster,
never different).

Speedup gates scale with the machine: >= 2x with at least 2 cores,
>= 3x with at least 4 (per the PR acceptance criteria); on a single
core the timing gate is vacuous and only the identity gates apply.

The ungated ``pair_kernel`` block separates chunk width from
parallelism.  ``batch_solve_rings`` splits the pairs 16384 wide at
``jobs=1`` and 512 wide above, so the gated jobs=1-vs-N ratio mixes
both effects; the block times the cost matrix's candidate pairs at
``jobs=1`` with both widths and at ``jobs=N``, in interleaved rounds,
and reports each configuration's median.

Writes ``BENCH_intra.json``::

    {
      "cpu_count": ...,
      "cost_matrix": {"flipflops": ..., "rings": ..., "serial_s": ...,
                      "parallel_s": ..., "jobs": ..., "speedup": ...},
      "pair_kernel": {"pairs": ..., "rounds": ..., "bytes_identical": ...,
                      "runs": [{"jobs": ..., "pairs_per_chunk": ...,
                                "median_s": ..., "min_s": ..., "max_s": ...}]},
      "flow_identity": {"circuit": "scale10k", "digest_serial": ...,
                        "digest_auto": ...},
      "failures": [...]
    }

Exit codes: 0 = all gates pass, 1 = speedup/identity violation,
2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import FlowRequest, run_flow
from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import FlowOptions, tapping_cost_matrix
from repro.geometry import BBox, Point
from repro.netlist import ALL_PROFILES
from repro.opt import FORBIDDEN_COST
from repro.rotary import RingArray
from repro.rotary.tapping_vec import batch_solve_rings

#: The scale10k profile's Fig. 3 workload shape (1250 FFs, 100 rings).
PROFILE = "scale10k"
#: Interleaved timing rounds of the pair-kernel block.
PAIR_ROUNDS = 8


def required_speedup(cores: int) -> float | None:
    """The gate for this machine, or None when timing is vacuous."""
    if cores >= 4:
        return 3.0
    if cores >= 2:
        return 2.0
    return None


def cost_matrix_workload() -> tuple[RingArray, dict, dict]:
    """A deterministic scale10k-shaped tapping cost-matrix input."""
    profile = ALL_PROFILES[PROFILE]
    side = int(round(profile.num_rings**0.5))
    extent = 4000.0
    array = RingArray(BBox(0, 0, extent, extent), side=side, period=1000.0)
    rng = np.random.default_rng(20260808)
    n = profile.num_flipflops
    xy = rng.uniform(0.0, extent, size=(n, 2))
    period_targets = rng.uniform(0.0, 1000.0, size=n)
    names = [f"ff{i:05d}" for i in range(n)]
    positions = {
        name: Point(float(x), float(y)) for name, (x, y) in zip(names, xy)
    }
    targets = {
        name: float(t) for name, t in zip(names, period_targets)
    }
    return array, positions, targets


def time_cost_matrix(jobs: int, repeats: int) -> tuple[float, bytes]:
    """Best-of-``repeats`` build time plus the matrix bytes."""
    array, positions, targets = cost_matrix_workload()
    best = float("inf")
    payload = b""
    for _ in range(repeats):
        t0 = time.perf_counter()
        matrix = tapping_cost_matrix(
            array,
            positions,
            targets,
            DEFAULT_TECHNOLOGY,
            candidate_rings=8,
            jobs=jobs,
        )
        best = min(best, time.perf_counter() - t0)
        payload = matrix.costs.tobytes()
    return best, payload


def time_pair_kernel(jobs: int) -> dict:
    """Median pair-kernel times at jobs=1 (both chunk widths) and ``jobs``.

    The pairs are the cost matrix's candidate (flip-flop, ring) arcs in
    its ring-major order; the configurations run round-robin so drift
    in machine speed lands on all of them alike.
    """
    array, positions, targets = cost_matrix_workload()
    matrix = tapping_cost_matrix(
        array, positions, targets, DEFAULT_TECHNOLOGY, candidate_rings=8
    )
    rid, fid = np.nonzero(matrix.costs.T < FORBIDDEN_COST)
    px = np.array([positions[name].x for name in matrix.ff_names])[fid]
    py = np.array([positions[name].y for name in matrix.ff_names])[fid]
    tg = np.array([targets[name] for name in matrix.ff_names])[fid]
    # 16384 and 512 are the widths batch_solve_rings uses at jobs=1 and
    # jobs > 1 respectively.
    configs = [(1, 16384), (1, 512), (jobs, 512)]
    times: list[list[float]] = [[] for _ in configs]
    payloads: set[bytes] = set()
    for _ in range(PAIR_ROUNDS):
        for k, (n_jobs, width) in enumerate(configs):
            t0 = time.perf_counter()
            result = batch_solve_rings(
                array, rid, px, py, tg, DEFAULT_TECHNOLOGY,
                pairs_per_chunk=width, jobs=n_jobs,
            )
            times[k].append(time.perf_counter() - t0)
            payloads.add(result.wirelength.tobytes() + result.x.tobytes())
    runs = [
        {
            "jobs": n_jobs,
            "pairs_per_chunk": width,
            "median_s": float(np.median(series)),
            "min_s": min(series),
            "max_s": max(series),
        }
        for (n_jobs, width), series in zip(configs, times)
    ]
    return {
        "pairs": int(rid.size),
        "rounds": PAIR_ROUNDS,
        "bytes_identical": len(payloads) == 1,
        "runs": runs,
    }


def flow_digest(jobs: int | str, max_iterations: int) -> str:
    result = run_flow(
        FlowRequest(
            circuit=PROFILE,
            options=FlowOptions(max_iterations=max_iterations, jobs=jobs),
        )
    )
    return result.decision_digest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions per jobs setting (best-of, default: 3)",
    )
    parser.add_argument(
        "--flow-iterations",
        type=int,
        default=2,
        help="flow iterations for the digest-identity gate (default: 2)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="override the core-count-derived speedup gate",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_intra.json", help="result JSON path"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    cores = max(1, os.cpu_count() or 1)
    auto_jobs = cores
    gate = (
        args.min_speedup
        if args.min_speedup is not None
        else required_speedup(cores)
    )
    failures: list[str] = []
    profile = ALL_PROFILES[PROFILE]

    print(
        f"[bench_intra] cost matrix ({profile.num_flipflops} FFs x "
        f"{profile.num_rings} rings), jobs=1 vs jobs={auto_jobs} ...",
        flush=True,
    )
    serial_s, serial_bytes = time_cost_matrix(1, args.repeats)
    parallel_s, parallel_bytes = time_cost_matrix(auto_jobs, args.repeats)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(
        f"[bench_intra] serial {serial_s:.3f}s, parallel {parallel_s:.3f}s "
        f"({speedup:.2f}x on {cores} cores)",
        flush=True,
    )
    if serial_bytes != parallel_bytes:
        failures.append("cost matrix bytes differ between jobs=1 and auto")
    if gate is not None and speedup < gate:
        failures.append(
            f"cost-matrix speedup {speedup:.2f}x < required {gate}x "
            f"on {cores} cores"
        )

    print(
        f"[bench_intra] pair kernel: jobs=1 at 16384 and 512 pairs/chunk "
        f"vs jobs={auto_jobs}, {PAIR_ROUNDS} interleaved rounds ...",
        flush=True,
    )
    pair_kernel = time_pair_kernel(auto_jobs)
    for run in pair_kernel["runs"]:
        print(
            f"[bench_intra]   jobs={run['jobs']} at {run['pairs_per_chunk']} "
            f"pairs/chunk: median {run['median_s']:.3f}s "
            f"({run['min_s']:.3f}-{run['max_s']:.3f}s)",
            flush=True,
        )

    print(
        f"[bench_intra] flow digest identity on {PROFILE} "
        f"({args.flow_iterations} iterations) ...",
        flush=True,
    )
    digest_serial = flow_digest(1, args.flow_iterations)
    digest_auto = flow_digest("auto", args.flow_iterations)
    if digest_serial != digest_auto:
        failures.append(
            f"decision digests diverge: jobs=1 {digest_serial[:16]} vs "
            f"auto {digest_auto[:16]}"
        )
    print(
        f"[bench_intra] digests {'match' if digest_serial == digest_auto else 'DIVERGE'} "
        f"({digest_serial[:16]})",
        flush=True,
    )

    doc = {
        "cpu_count": cores,
        "cost_matrix": {
            "circuit": PROFILE,
            "flipflops": profile.num_flipflops,
            "rings": profile.num_rings,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "jobs": auto_jobs,
            "speedup": speedup,
            "required_speedup": gate,
        },
        "pair_kernel": pair_kernel,
        "flow_identity": {
            "circuit": PROFILE,
            "iterations": args.flow_iterations,
            "digest_serial": digest_serial,
            "digest_auto": digest_auto,
        },
        "failures": failures,
    }
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[bench_intra] wrote {args.output}", flush=True)
    for message in failures:
        print(f"[bench_intra] FAIL: {message}", file=sys.stderr, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
