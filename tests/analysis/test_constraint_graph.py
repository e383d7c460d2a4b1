"""Bellman-Ford negative-cycle detection, cross-checked against the SPFA
feasibility oracle and ``validate_schedule`` on random constraint systems.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import NegativeCycle, SkewConstraintGraph
from repro.constants import DEFAULT_TECHNOLOGY
from repro.opt.diffconstraints import SkewConstraint
from repro.timing import PathBounds, skew_constraints, validate_schedule

from oracles.diffconstraints_ref import solve_difference_constraints

TECH = DEFAULT_TECHNOLOGY
T = 1000.0


def _nodes(constraints):
    seen = []
    for c in constraints:
        for n in (c.left, c.right):
            if n not in seen:
                seen.append(n)
    return seen


class TestNegativeCycleBasics:
    def test_empty_graph_is_feasible(self):
        g = SkewConstraintGraph(())
        assert g.negative_cycle() is None
        assert g.feasible()

    def test_simple_negative_two_cycle(self):
        cons = [
            SkewConstraint("a", "b", -1.0),
            SkewConstraint("b", "a", -1.0),
        ]
        cycle = SkewConstraintGraph(cons).negative_cycle()
        assert cycle is not None
        assert set(cycle.members) <= {"a", "b"}
        assert cycle.weight < 0.0

    def test_feasible_two_cycle(self):
        cons = [
            SkewConstraint("a", "b", 5.0),
            SkewConstraint("b", "a", -3.0),
        ]
        assert SkewConstraintGraph(cons).negative_cycle() is None

    def test_slack_tips_a_tight_cycle(self):
        cons = [
            SkewConstraint("a", "b", 2.0),
            SkewConstraint("b", "a", -1.0),
        ]
        g = SkewConstraintGraph(cons)
        assert g.feasible(slack=0.0)
        assert not g.feasible(slack=1.0)

    def test_describe_mentions_members_and_weight(self):
        cycle = NegativeCycle(members=("a", "b"), weight=-2.0)
        text = cycle.describe()
        assert "a -> b" in text
        assert "-2.000" in text

    def test_describe_truncates_long_cycles(self):
        cycle = NegativeCycle(members=tuple(f"n{i}" for i in range(10)), weight=-1.0)
        assert "..." in cycle.describe(limit=4)


# Random difference-constraint systems over a small node universe.
_constraint = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
).filter(lambda t: t[0] != t[1])


@settings(max_examples=200, deadline=None)
@given(st.lists(_constraint, min_size=1, max_size=24))
def test_verdict_matches_spfa_oracle(raw):
    """negative_cycle() and the SPFA solver agree on every random system."""
    constraints = [SkewConstraint(f"n{l}", f"n{r}", b) for l, r, b in raw]
    graph = SkewConstraintGraph(constraints)
    schedule = solve_difference_constraints(_nodes(constraints), constraints)
    cycle = graph.negative_cycle()
    if schedule is None:
        assert cycle is not None, "solver infeasible but no cycle found"
        assert cycle.weight < 1e-6
        assert len(cycle.members) >= 1
    else:
        assert cycle is None, f"solver feasible but cycle reported: {cycle}"
        # The solver's schedule must satisfy every constraint.
        for con in constraints:
            lhs = schedule[con.left] - schedule[con.right]
            assert lhs <= con.bound + 1e-6


_bounds = st.tuples(
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1500.0, allow_nan=False),
).map(lambda t: PathBounds(d_min=min(t), d_max=max(t)))

_pair_keys = st.sampled_from(
    [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"), ("b", "a"), ("c", "b")]
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_pair_keys, _bounds, min_size=1, max_size=6))
def test_feasible_verdict_matches_validate_schedule(pairs):
    """When the graph is feasible, the SPFA schedule passes
    ``validate_schedule``; when it is not, no schedule can (checked via
    the oracle's own verdict)."""
    constraints = skew_constraints(pairs, T, TECH)
    graph = SkewConstraintGraph.from_pairs(pairs, T, TECH)
    schedule = solve_difference_constraints(_nodes(constraints), constraints)
    if graph.feasible():
        assert schedule is not None
        assert validate_schedule(schedule, pairs, T, TECH) == []
    else:
        assert schedule is None
        cycle = graph.negative_cycle()
        assert cycle is not None
        # Every cycle member is a flip-flop that actually appears in a pair.
        names = {n for key in pairs for n in key}
        assert set(cycle.members) <= names


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(_pair_keys, _bounds, min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
def test_feasibility_is_monotone_in_slack(pairs, slack):
    """Feasible at slack M implies feasible at every smaller slack."""
    graph = SkewConstraintGraph.from_pairs(pairs, T, TECH)
    if graph.feasible(slack):
        assert graph.feasible(0.5 * slack)
        assert graph.feasible(0.0)


def test_cycle_weight_is_negative_and_consistent():
    pairs = {
        ("a", "b"): PathBounds(d_min=0.0, d_max=100.0),
        ("b", "a"): PathBounds(d_min=0.0, d_max=100.0),
    }
    graph = SkewConstraintGraph.from_pairs(pairs, T, TECH)
    cycle = graph.negative_cycle()
    assert cycle is not None
    # The hold constraints force s_ab >= hold and -s_ab >= hold; the
    # cycle's headroom is at most -2 * hold_time.
    assert cycle.weight <= -2.0 * TECH.hold_time + 1e-9


def test_num_nodes():
    cons = [SkewConstraint("a", "b", 1.0), SkewConstraint("c", "b", 1.0)]
    assert SkewConstraintGraph(cons).num_nodes == 3


@pytest.mark.parametrize("slack", [0.0, 10.0])
def test_from_pairs_matches_manual_constraints(slack):
    pairs = {("a", "b"): PathBounds(d_min=50.0, d_max=400.0)}
    graph = SkewConstraintGraph.from_pairs(pairs, T, TECH)
    manual = SkewConstraintGraph(skew_constraints(pairs, T, TECH))
    assert graph.feasible(slack) == manual.feasible(slack)
