"""Runtime sanitizer: tripwires, restore semantics, env/flow plumbing."""

import random
import time

import numpy as np
import pytest

from repro.core import FlowOptions, IntegratedFlow
from repro.errors import SanitizerError
from repro.lint import SANITIZE_ENV, Sanitizer, sanitize_action_from_env
from repro.netlist import generate_circuit, small_profile
from repro.obs import TraceCollector


class TestTripwires:
    def test_raise_mode_aborts_on_global_random(self):
        with Sanitizer(action="raise"):
            with pytest.raises(SanitizerError, match="random.random"):
                random.random()

    def test_raise_mode_aborts_on_wall_clock(self):
        with Sanitizer(action="raise"):
            with pytest.raises(SanitizerError, match="time.time"):
                time.time()

    def test_raise_mode_aborts_on_numpy_global(self):
        with Sanitizer(action="raise"):
            with pytest.raises(SanitizerError, match="numpy.random"):
                np.random.rand(2)

    def test_record_mode_counts_and_calls_through(self):
        with Sanitizer(action="record") as s:
            value = random.randint(1, 6)
            stamp = time.time()
        assert 1 <= value <= 6 and stamp > 0
        assert s.trip_count == 2
        assert s.trips == ["random.randint", "time.time"]

    def test_collector_counters(self):
        collector = TraceCollector()
        with Sanitizer(action="record", collector=collector):
            random.random()
            random.random()
        trace = collector.trace()
        assert trace.counters["sanitize.trips"] == 2
        assert trace.counters["sanitize.trip.random.random"] == 2

    def test_originals_restored_on_exit(self):
        before = (time.time, random.random, np.random.rand)
        with Sanitizer(action="record"):
            assert time.time is not before[0]
        assert (time.time, random.random, np.random.rand) == before

    def test_restored_even_when_body_raises(self):
        before = time.time
        with pytest.raises(SanitizerError):
            with Sanitizer(action="raise"):
                time.time()
        assert time.time is before

    def test_not_reentrant(self):
        s = Sanitizer(action="record")
        with s:
            with pytest.raises(SanitizerError, match="re-entrant"):
                s.__enter__()

    def test_monotonic_clocks_stay_unpatched(self):
        with Sanitizer(action="raise"):
            assert time.monotonic() > 0
            assert time.perf_counter() > 0

    def test_seeded_generators_stay_unpatched(self):
        with Sanitizer(action="raise"):
            assert 0.0 <= random.Random(1).random() < 1.0
            assert np.random.default_rng(1).random() < 1.0

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer(action="explode")


class TestEnv:
    @pytest.mark.parametrize("value", ["1", "true", "on", "raise", " RAISE "])
    def test_raise_values(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_action_from_env() == "raise"

    def test_record_value(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "record")
        assert sanitize_action_from_env() == "record"

    @pytest.mark.parametrize("value", ["", "0", "off", "nonsense"])
    def test_disarmed_values(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_action_from_env() is None

    def test_unset_is_disarmed(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert sanitize_action_from_env() is None


class TestFlowIntegration:
    @pytest.fixture(scope="class")
    def circuit(self):
        return generate_circuit(
            small_profile(num_cells=120, num_flipflops=16, seed=5)
        )

    def test_sanitized_flow_runs_clean(self, circuit):
        """The whole integrated flow completes with tripwires armed —
        the dynamic counterpart of the ``repro lint src/`` self-check."""
        opts = FlowOptions(max_iterations=2, sanitize=True)
        result = IntegratedFlow(circuit, options=opts).run()
        assert result.final.overall_cost > 0

    def test_env_record_counts_zero_trips(self, circuit, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "record")
        collector = TraceCollector()
        opts = FlowOptions(max_iterations=1)
        IntegratedFlow(circuit, options=opts, collector=collector).run()
        assert "sanitize.trips" not in collector.trace().counters

    def test_sanitize_option_round_trips(self):
        opts = FlowOptions(sanitize=True)
        assert FlowOptions.from_dict(opts.to_dict()) == opts

    def test_decision_digest_ignores_timing(self, circuit):
        # The Section VI engine ("ilp") also records its solve wall time.
        for assignment in ("flow", "ilp"):
            opts = FlowOptions(max_iterations=1, assignment=assignment)
            a = IntegratedFlow(circuit, options=opts).run()
            b = IntegratedFlow(circuit, options=opts).run()
            # Wall-clock metrics differ between the runs...
            assert (a.seconds_algorithm, a.seconds_placer) != (
                b.seconds_algorithm,
                b.seconds_placer,
            ) or a.base.seconds != b.base.seconds
            # ...but the decision digest is identical.
            assert a.decision_digest() == b.decision_digest(), assignment
            assert len(a.decision_digest()) == 64

    def test_decision_digest_changes_with_decisions(self, circuit):
        a = IntegratedFlow(circuit, options=FlowOptions(max_iterations=1)).run()
        c = IntegratedFlow(
            circuit, options=FlowOptions(max_iterations=1, period=1200.0)
        ).run()
        assert a.decision_digest() != c.decision_digest()
