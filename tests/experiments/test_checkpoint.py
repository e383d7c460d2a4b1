"""Tests for the on-disk experiment checkpoint store."""

import dataclasses
import json

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.core import FlowOptions, FlowResult
from repro.experiments import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointStore,
    ExperimentSuite,
    experiment_key,
)

TECH = DEFAULT_TECHNOLOGY
OPTS = FlowOptions(max_iterations=2)


@pytest.fixture(scope="module")
def completed_store(tmp_path_factory):
    """A suite run to completion against a fresh store."""
    root = tmp_path_factory.mktemp("ckpt")
    store = CheckpointStore(root)
    suite = ExperimentSuite(
        circuits=["tinyA"], options=OPTS, checkpoints=store
    )
    exp = suite.run("tinyA")
    return store, suite, exp


class TestExperimentKey:
    def test_stable(self):
        a = experiment_key("tinyA", OPTS, TECH)
        b = experiment_key("tinyA", OPTS, TECH)
        assert a == b and len(a) == 20

    def test_option_change_invalidates(self):
        base = experiment_key("tinyA", OPTS, TECH)
        assert experiment_key("tinyA", OPTS.replace(max_iterations=3), TECH) != base
        assert experiment_key("tinyA", OPTS.replace(period=900.0), TECH) != base
        assert experiment_key("tinyB", OPTS, TECH) != base

    def test_pinned_values(self):
        """Keys (and so checkpoint file names) survive refactors of the
        hashing code byte for byte."""
        assert experiment_key("tinyA", OPTS, TECH) == "e8156555ba2bab4521c1"
        assert (
            experiment_key("tinyA", FlowOptions(), TECH)
            == "578842424436e0ab74b6"
        )

    def test_tech_change_invalidates(self):
        base = experiment_key("tinyA", OPTS, TECH)
        other = dataclasses.replace(TECH, unit_resistance=TECH.unit_resistance * 2)
        assert experiment_key("tinyA", OPTS, other) != base


class TestStore:
    def test_save_creates_named_artifact(self, completed_store):
        store, suite, _ = completed_store
        path = store.path_for("tinyA", OPTS, TECH)
        assert path.exists()
        assert path.name.startswith("tinyA-")
        assert store.entries() == [path]
        doc = json.loads(path.read_text())
        assert doc["format_version"] == CHECKPOINT_FORMAT_VERSION == 2
        assert doc["key"] == experiment_key("tinyA", OPTS, TECH)
        # The entry is the circuit's two FlowResult documents, nothing else.
        assert set(doc) == {"format_version", "circuit", "key", "flow", "ilp"}
        exp = suite.run("tinyA")
        assert doc["flow"] == exp.flow.to_dict()
        assert doc["ilp"] == exp.ilp.to_dict()

    def test_roundtrip_exact(self, completed_store):
        store, _, exp = completed_store
        loaded = store.load("tinyA", OPTS, TECH)
        assert loaded is not None
        # Everything the table generators read round-trips exactly:
        # JSON floats are shortest-repr, so doubles are bit-identical.
        assert loaded.flow.to_dict() == exp.flow.to_dict()
        assert loaded.ilp.to_dict() == exp.ilp.to_dict()
        assert loaded.clock_tree_paths == exp.clock_tree_paths
        assert loaded.base_power == exp.base_power
        assert loaded.flow_power == exp.flow_power
        assert loaded.ilp_power == exp.ilp_power
        assert loaded.flow.seconds_algorithm == exp.flow.seconds_algorithm

    def test_other_config_is_cache_miss(self, completed_store):
        store, _, _ = completed_store
        assert store.load("tinyA", OPTS.replace(max_iterations=3), TECH) is None
        assert store.load("tinyB", OPTS, TECH) is None

    def test_corrupt_entry_is_cache_miss(self, completed_store):
        store, _, _ = completed_store
        path = store.path_for("tinyA", OPTS, TECH)
        original = path.read_text()
        try:
            path.write_text("{not json")
            assert store.load("tinyA", OPTS, TECH) is None
            path.write_text(json.dumps({"format_version": -1}))
            assert store.load("tinyA", OPTS, TECH) is None
            path.write_text("[]")
            assert store.load("tinyA", OPTS, TECH) is None
            for damage in ({"positions": []}, {"schedule": 5}):
                doc = json.loads(original)
                doc["flow"].update(damage)
                path.write_text(json.dumps(doc))
                assert store.load("tinyA", OPTS, TECH) is None
        finally:
            path.write_text(original)
        assert store.load("tinyA", OPTS, TECH) is not None

    def test_no_stray_temp_files(self, completed_store):
        store, _, _ = completed_store
        strays = [p for p in store.root.iterdir() if p.suffix == ".tmp"]
        assert strays == []


class TestSuiteResume:
    def test_resume_serves_from_store(self, completed_store):
        store, _, exp = completed_store
        calls = []
        resumed = ExperimentSuite(
            circuits=["tinyA"], options=OPTS, checkpoints=store, resume=True
        )
        # Break the flow class: a resume that recomputes would crash.
        import repro.experiments.runner as runner_mod

        original = runner_mod.IntegratedFlow

        class Exploding:
            def __init__(self, *a, **k):
                calls.append(a)
                raise AssertionError("resume must not recompute")

        runner_mod.IntegratedFlow = Exploding
        try:
            loaded = resumed.run("tinyA")
        finally:
            runner_mod.IntegratedFlow = original
        assert calls == []
        assert loaded.flow.to_dict() == exp.flow.to_dict()

    def test_without_resume_flag_store_is_ignored(self, completed_store):
        store, _, _ = completed_store
        suite = ExperimentSuite(
            circuits=["tinyA"], options=OPTS, checkpoints=store, resume=False
        )
        assert suite.load_checkpoint("tinyA") is None

    def test_option_change_forces_recompute(self, completed_store, tmp_path):
        store, _, _ = completed_store
        other = ExperimentSuite(
            circuits=["tinyA"],
            options=OPTS.replace(max_iterations=1),
            checkpoints=store,
            resume=True,
        )
        assert other.load_checkpoint("tinyA") is None


class TestStaleCounter:
    """Digest-mismatched artifacts must be counted, not silently dropped."""

    def test_fresh_store_reports_zero(self, tmp_path):
        assert CheckpointStore(tmp_path).stale_entries == 0

    def test_matching_load_is_not_stale(self, completed_store):
        store, _, _ = completed_store
        before = store.stale_entries
        assert store.load("tinyA", OPTS, TECH) is not None
        assert store.stale_entries == before

    def test_option_change_counts_stale_sibling(self, completed_store):
        from repro.obs import TraceCollector

        store, _, _ = completed_store
        collector = TraceCollector()
        fresh = CheckpointStore(store.root, collector=collector)
        # The tinyA artifact on disk was written under OPTS; loading
        # under different options misses AND flags the sibling as stale.
        assert fresh.load("tinyA", OPTS.replace(max_iterations=3), TECH) is None
        assert fresh.stale_entries == 1
        assert (
            collector.trace().counter("experiments.checkpoint-stale") == 1
        )

    def test_in_file_key_mismatch_counts_stale(self, completed_store):
        store, _, _ = completed_store
        path = store.path_for("tinyA", OPTS, TECH)
        doc = json.loads(path.read_text())
        original = path.read_text()
        fresh = CheckpointStore(store.root)
        try:
            doc["key"] = "0" * 20
            path.write_text(json.dumps(doc))
            assert fresh.load("tinyA", OPTS, TECH) is None
            assert fresh.stale_entries == 1
        finally:
            path.write_text(original)

    def test_tables_run_surfaces_stale_count(self, completed_store, tmp_path):
        """A format-1 entry (written before checkpoints held only the two
        flow results) is stale: counted, recomputed, and rewritten."""
        from repro.api import TablesRequest, run_tables

        store, _, exp = completed_store
        doc = json.loads(store.path_for("tinyA", OPTS, TECH).read_text())
        old = {k: v for k, v in doc.items() if k not in ("flow", "ilp")}
        old["format_version"] = 1
        old["experiment"] = {"circuit": "tinyA", "flow": doc["flow"]}
        path = CheckpointStore(tmp_path).path_for("tinyA", OPTS, TECH)
        path.write_text(json.dumps(old))

        run = run_tables(
            TablesRequest(
                circuits=("tinyA",),
                options=OPTS,
                checkpoint_dir=str(tmp_path),
                resume=True,
                ilp_time_limit=1.0,
            )
        )
        assert run.ok and run.stale_checkpoints == 1
        rewritten = json.loads(path.read_text())
        assert rewritten["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert rewritten["ilp"]["schedule"] == exp.ilp.to_dict()["schedule"]


class TestFlowResultRoundtrip:
    def test_to_from_dict_identity(self, completed_store):
        _, _, exp = completed_store
        for result in (exp.flow, exp.ilp):
            doc = result.to_dict()
            rebuilt = FlowResult.from_dict(doc)
            assert rebuilt.to_dict() == doc
            assert rebuilt.positions == result.positions
            assert rebuilt.initial_positions == result.initial_positions
            assert rebuilt.assignment.ring_of == result.assignment.ring_of
            assert rebuilt.schedule.targets == result.schedule.targets
            assert rebuilt.array.num_rings == result.array.num_rings
            assert len(rebuilt.history) == len(result.history)

    def test_json_roundtrip_is_bit_identical(self, completed_store):
        _, _, exp = completed_store
        doc = exp.flow.to_dict()
        again = FlowResult.from_dict(json.loads(json.dumps(doc))).to_dict()
        assert again == doc
