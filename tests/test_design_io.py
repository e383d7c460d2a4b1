"""Tests for the saved design document.

``repro run --save PATH`` writes ``FlowResult.to_dict()``, the same
document ``repro run --json`` prints, and ``FlowResult.from_dict`` is
its one loader.
"""

import contextlib
import io
import json

import pytest

from repro import FlowResult, run_flow
from repro.constants import DEFAULT_TECHNOLOGY as TECH
from repro.errors import ReproError
from repro.rotary import stub_delay


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """``repro run s5378 --iterations 1 --save d.json --json``: the live
    result, what the command printed, and the text of the saved file."""
    from repro import cli

    path = tmp_path_factory.mktemp("design") / "d.json"
    results = []

    def recording_run_flow(request):
        response = run_flow(request)
        results.append(response.result)
        return response

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "run_flow", recording_run_flow)
        rc = cli.main(
            ["run", "s5378", "--iterations", "1", "--save", str(path), "--json"]
        )
    assert rc == 0
    return results[0], out.getvalue(), path.read_text()


@pytest.fixture(scope="module")
def loaded(saved_run):
    _, _, text = saved_run
    return FlowResult.from_dict(json.loads(text))


class TestRoundtrip:
    def test_save_load_identity(self, saved_run, loaded):
        result, printed, text = saved_run
        assert text == printed
        assert loaded.to_dict() == json.loads(text)
        assert loaded.decision_digest() == result.decision_digest()
        assert loaded.positions == result.positions
        assert loaded.assignment.ring_of == result.assignment.ring_of
        assert loaded.schedule.targets == result.schedule.targets

    def test_ring_array_rebuild(self, saved_run, loaded):
        result, _, _ = saved_run
        assert loaded.array.num_rings == result.array.num_rings
        for rebuilt, original in zip(loaded.array, result.array):
            assert rebuilt.center == original.center
            assert rebuilt.half_width == original.half_width

    def test_saved_tappings_replay_targets(self, loaded):
        """Saved tapping records must regenerate the scheduled delays."""
        period = loaded.array.period
        for ff, sol in loaded.assignment.solutions.items():
            ring = loaded.array[loaded.assignment.ring_of[ff]]
            seg = ring.segments()[sol.segment_index]
            achieved = (
                seg.t0
                - sol.periods_borrowed * period
                + seg.rho * sol.x
                + stub_delay(sol.wirelength, TECH)
            )
            assert achieved == pytest.approx(
                loaded.schedule.targets[ff] % period, abs=1e-5
            )

    def test_metrics_recorded(self, saved_run, loaded):
        result, _, _ = saved_run
        assert loaded.final == result.final
        assert loaded.base == result.base
        assert loaded.slack_guaranteed == result.slack_guaranteed


class TestRobustness:
    """A damaged document is a typed ReproError that names its key."""

    def test_missing_keys(self, saved_run):
        doc = json.loads(saved_run[2])
        for key in (
            "circuit", "period_ps", "die", "ring_grid_side", "positions",
            "ring_of", "tappings", "schedule", "slack_available_ps",
            "slack_guaranteed_ps", "base", "final", "history", "seconds",
        ):
            damaged = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(ReproError, match=f"missing key '{key}'"):
                FlowResult.from_dict(damaged)

    def test_malformed_key(self, saved_run):
        doc = json.loads(saved_run[2])
        ff = next(iter(doc["tappings"]))
        for key, value in (
            ("ring_grid_side", "many"),
            ("ring_grid_side", 0),
            ("die", [0.0, 0.0]),
            ("history", [{}]),
            ("tappings", {ff: {**doc["tappings"][ff], "segment": None}}),
            ("positions", []),
            ("ring_of", "x"),
            ("schedule", 5),
            ("tappings", []),
        ):
            with pytest.raises(ReproError, match=f"malformed '{key}'"):
                FlowResult.from_dict({**doc, key: value})
        with pytest.raises(ReproError, match="missing key"):
            FlowResult.from_dict([doc])
