"""Parallel table suite: wall-clock vs the serial suite.

Times a full (circuit x engine) suite run both serially and through
:func:`~repro.experiments.run_parallel_suite` (the suite as jobs on an
in-process flow service), records the speedup as an artifact, and — on
multi-core machines only — asserts the parallel run is not slower than
serial (the parallel suite's value on a single core is
fault isolation, not speed, so the assertion is gated on the core
count).  Uses fresh suites per measurement so nothing is served from a
cache, and small circuits so the whole benchmark stays seconds-scale.
"""

import multiprocessing
import time

import pytest

from repro.core import FlowOptions
from repro.experiments import ExperimentSuite, run_parallel_suite
from repro.server import ServerOptions

from conftest import record_artifact

CIRCUITS = ["tinyA", "tinyB"]
OPTS = FlowOptions(max_iterations=2)
WORKERS = 2


def _serial_seconds() -> float:
    suite = ExperimentSuite(circuits=CIRCUITS, options=OPTS)
    start = time.perf_counter()
    suite.run_all()
    return time.perf_counter() - start


def _parallel_seconds() -> float:
    suite = ExperimentSuite(circuits=CIRCUITS, options=OPTS)
    report = run_parallel_suite(suite, ServerOptions(workers=WORKERS))
    assert report.ok, report
    return report.seconds


@pytest.fixture(scope="module")
def suite_timings():
    serial = min(_serial_seconds() for _ in range(2))
    parallel = min(_parallel_seconds() for _ in range(2))
    cores = multiprocessing.cpu_count()
    record_artifact(
        "Parallel suite",
        "parallel experiment runner ({} circuits x 2 engines, {} workers, "
        "{} cores)\n  serial   {:6.2f} s\n  parallel {:6.2f} s  "
        "(speedup {:.2f}x)".format(
            len(CIRCUITS), WORKERS, cores, serial, parallel, serial / parallel
        ),
    )
    return serial, parallel, cores


def test_bench_parallel_suite(benchmark, suite_timings):
    serial, parallel, cores = suite_timings
    if cores >= 2:
        # Worker startup is amortized even by this seconds-scale suite;
        # allow 10% slack for scheduling noise on busy CI runners.
        assert parallel <= serial * 1.10, (serial, parallel)
    benchmark(_parallel_seconds)
