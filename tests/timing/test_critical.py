"""Critical sequential-pair extraction and net mapping.

``CriticalPathExtractor`` ranks pairs by permissible-range slack and
maps each extracted pair onto the signal nets that can lie on some
launch→capture combinational path.  The ranking must be deterministic
(ties break on the pair key) and the net tracing must return exactly
the forward∩backward cone — branches to other flip-flops stay out.
"""

import pytest

from repro.constants import DEFAULT_TECHNOLOGY
from repro.netlist import CellKind, Circuit
from repro.timing import (
    CriticalPathExtractor,
    PathBounds,
    TimingSnapshot,
    critical_net_weights,
    pair_slacks,
    worst_pair_slack,
)

TECH = DEFAULT_TECHNOLOGY
PERIOD = 1000.0


def snapshot(pairs) -> TimingSnapshot:
    """The snapshot of ``pairs`` over their flip-flops, sorted."""
    return TimingSnapshot.from_pairs(pairs, sorted({ff for key in pairs for ff in key}))


def slacks_by_pair(pairs, schedule) -> dict:
    snap = snapshot(pairs)
    values = pair_slacks(snap, snap.schedule_array(schedule), PERIOD, TECH)
    return dict(zip(snap.keys, values.tolist()))


def worst(pairs, schedule) -> float:
    snap = snapshot(pairs)
    return worst_pair_slack(snap, snap.schedule_array(schedule), PERIOD, TECH)


def extract(x, pairs, schedule, k):
    snap = snapshot(pairs)
    return x.extract(snap, snap.schedule_array(schedule), PERIOD, TECH, k=k)


def branchy_circuit() -> Circuit:
    """ffa fans out to two capture registers plus a reconvergent pair.

    ffa -> g1 -> g2 -> ffb          (two-stage path)
    ffa -> g3 -> ffc                (one-stage branch)
    ffa -> {p1, p2} -> gm -> ffd    (reconvergence: both arms on path)
    i1 -> gin -> ffa                (primary-input cone, never on paths)
    """
    c = Circuit("crit")
    c.add_input("i1")
    c.add_gate("gin", CellKind.NOT, ("i1",))
    c.add_dff("ffa", "gin")
    c.add_gate("g1", CellKind.NOT, ("ffa",))
    c.add_gate("g2", CellKind.NOT, ("g1",))
    c.add_dff("ffb", "g2")
    c.add_gate("g3", CellKind.NOT, ("ffa",))
    c.add_dff("ffc", "g3")
    c.add_gate("p1", CellKind.NOT, ("ffa",))
    c.add_gate("p2", CellKind.NOT, ("ffa",))
    c.add_gate("gm", CellKind.AND, ("p1", "p2"))
    c.add_dff("ffd", "gm")
    c.add_output("ffb")
    c.add_output("ffc")
    c.add_output("ffd")
    return c.validate()


class TestPathNets:
    def test_two_stage_path(self):
        x = CriticalPathExtractor(branchy_circuit())
        assert x.path_nets("ffa", "ffb") == ("ffa", "g1", "g2")

    def test_branch_excluded(self):
        x = CriticalPathExtractor(branchy_circuit())
        # The g1/g2 chain and the p1/p2 arms never reach ffc.
        assert x.path_nets("ffa", "ffc") == ("ffa", "g3")

    def test_reconvergence_takes_union(self):
        x = CriticalPathExtractor(branchy_circuit())
        # Both arms can carry the critical transition; weight both.
        assert x.path_nets("ffa", "ffd") == ("ffa", "gm", "p1", "p2")

    def test_input_cone_never_included(self):
        x = CriticalPathExtractor(branchy_circuit())
        for capture in ("ffb", "ffc", "ffd"):
            nets = x.path_nets("ffa", capture)
            assert "gin" not in nets
            assert "i1" not in nets


class TestSlacks:
    BOUNDS = {
        ("a", "b"): PathBounds(d_min=10.0, d_max=100.0),
        ("a", "c"): PathBounds(d_min=10.0, d_max=400.0),
    }

    def test_pair_slack_formula(self):
        slacks = slacks_by_pair(self.BOUNDS, {"a": 0.0, "b": 0.0})
        hi = PERIOD - 100.0 - TECH.setup_time
        lo = TECH.hold_time - 10.0
        assert slacks[("a", "b")] == pytest.approx(min(hi - 0.0, 0.0 - lo))

    def test_missing_schedule_entries_default_to_zero_skew(self):
        explicit = slacks_by_pair(self.BOUNDS, {"a": 0.0, "c": 0.0})
        assert slacks_by_pair(self.BOUNDS, {}) == explicit

    def test_worst_pair_slack(self):
        slacks = slacks_by_pair(self.BOUNDS, {})
        assert worst(self.BOUNDS, {}) == min(slacks.values())
        assert worst({}, {}) == 0.0


class TestExtract:
    def setup_method(self):
        self.circuit = branchy_circuit()
        self.x = CriticalPathExtractor(self.circuit)
        # At zero skew, slack = min(period - d_max - setup, d_min - hold);
        # these bounds make ffa->ffd clearly the tightest pair (60), then
        # ffa->ffb (180), then ffa->ffc (360).
        self.pairs = {
            ("ffa", "ffb"): PathBounds(d_min=200.0, d_max=500.0),
            ("ffa", "ffc"): PathBounds(d_min=500.0, d_max=600.0),
            ("ffa", "ffd"): PathBounds(d_min=100.0, d_max=900.0),
        }

    def extract(self, k):
        return extract(self.x, self.pairs, {}, k)

    def test_ranked_by_slack(self):
        got = [(p.launch, p.capture) for p in self.extract(3)]
        assert got == [("ffa", "ffd"), ("ffa", "ffb"), ("ffa", "ffc")]
        slacks = [p.slack for p in self.extract(3)]
        assert slacks == sorted(slacks)

    def test_k_clamps(self):
        assert len(self.extract(2)) == 2
        assert len(self.extract(99)) == 3
        assert self.extract(0) == []
        assert self.extract(-1) == []

    def test_nets_attached(self):
        top = self.extract(1)[0]
        assert top.nets == self.x.path_nets("ffa", "ffd")

    def test_tie_breaks_on_pair_key(self):
        same = {k: PathBounds(d_min=20.0, d_max=300.0) for k in self.pairs}
        got = [(p.launch, p.capture) for p in
               extract(self.x, same, {}, 3)]
        assert got == sorted(self.pairs)


class TestCriticalNetWeights:
    def test_weights_not_compounded(self):
        x = CriticalPathExtractor(branchy_circuit())
        pairs = {
            ("ffa", "ffb"): PathBounds(d_min=20.0, d_max=500.0),
            ("ffa", "ffc"): PathBounds(d_min=20.0, d_max=500.0),
        }
        critical = extract(x, pairs, {}, 2)
        weights = critical_net_weights(critical, 3.0)
        # "ffa" lies on both pairs' paths but gets the weight once.
        assert weights["ffa"] == 3.0
        assert set(weights) == {"ffa", "g1", "g2", "g3"}
        assert set(weights.values()) == {3.0}

    def test_empty(self):
        assert critical_net_weights([], 3.0) == {}
