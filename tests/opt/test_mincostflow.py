"""Min-cost flow: unit tests plus cross-checks against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleError, OptimizationError
from repro.opt import FORBIDDEN_COST, solve_transportation

from oracles.mincostflow_ref import FlowNetwork


class TestFlowNetwork:
    def test_simple_assignment(self):
        net = FlowNetwork()
        net.add_arc("s", "f1", 1, 0.0)
        net.add_arc("s", "f2", 1, 0.0)
        a = net.add_arc("f1", "r1", 1, 3.0)
        b = net.add_arc("f1", "r2", 1, 1.0)
        c = net.add_arc("f2", "r1", 1, 2.0)
        d = net.add_arc("f2", "r2", 1, 4.0)
        net.add_arc("r1", "t", 1, 0.0)
        net.add_arc("r2", "t", 2, 0.0)
        res = net.solve({"s": 2, "t": -2})
        assert res.total_cost == pytest.approx(3.0)
        assert res.flow_on(b) == 1 and res.flow_on(c) == 1
        assert res.flow_on(a) == 0 and res.flow_on(d) == 0

    def test_negative_capacity_rejected(self):
        net = FlowNetwork()
        with pytest.raises(OptimizationError):
            net.add_arc("a", "b", -1, 0.0)

    def test_unbalanced_supply_rejected(self):
        net = FlowNetwork()
        net.add_arc("a", "b", 1, 0.0)
        with pytest.raises(OptimizationError):
            net.solve({"a": 2, "b": -1})

    def test_insufficient_capacity(self):
        net = FlowNetwork()
        net.add_arc("a", "b", 1, 0.0)
        with pytest.raises(InfeasibleError):
            net.solve({"a": 2, "b": -2})

    def test_negative_costs_handled(self):
        net = FlowNetwork()
        x = net.add_arc("s", "m", 2, -5.0)
        net.add_arc("m", "t", 2, 1.0)
        res = net.solve({"s": 2, "t": -2})
        assert res.total_cost == pytest.approx(-8.0)
        assert res.flow_on(x) == 2

    def test_multi_path_splitting(self):
        net = FlowNetwork()
        cheap = net.add_arc("s", "t", 1, 1.0)
        mid = net.add_arc("s", "t", 1, 2.0)
        dear = net.add_arc("s", "t", 1, 3.0)
        res = net.solve({"s": 2, "t": -2})
        assert res.total_cost == pytest.approx(3.0)
        assert res.flow_on(cheap) == 1 and res.flow_on(mid) == 1
        assert res.flow_on(dear) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_against_networkx(self, data):
        """Random bipartite transportation instances match network_simplex."""
        n_left = data.draw(st.integers(1, 4))
        n_right = data.draw(st.integers(1, 4))
        caps = [data.draw(st.integers(1, 3)) for _ in range(n_right)]
        supply = data.draw(st.integers(1, min(4, sum(caps))))
        costs = {
            (i, j): data.draw(st.integers(0, 9))
            for i in range(n_left)
            for j in range(n_right)
        }

        net = FlowNetwork()
        for i in range(n_left):
            net.add_arc("s", ("l", i), 2, 0.0)
            for j in range(n_right):
                net.add_arc(("l", i), ("r", j), 1, float(costs[(i, j)]))
        for j in range(n_right):
            net.add_arc(("r", j), "t", caps[j], 0.0)

        g = nx.DiGraph()
        for i in range(n_left):
            g.add_edge("s", f"l{i}", capacity=2, weight=0)
            for j in range(n_right):
                g.add_edge(f"l{i}", f"r{j}", capacity=1, weight=costs[(i, j)])
        for j in range(n_right):
            g.add_edge(f"r{j}", "t", capacity=caps[j], weight=0)
        g.nodes["s"]["demand"] = -supply
        g.nodes["t"]["demand"] = supply

        try:
            ref_cost = nx.cost_of_flow(g, nx.min_cost_flow(g))
        except nx.NetworkXUnfeasible:
            with pytest.raises(InfeasibleError):
                net.solve({"s": supply, "t": -supply})
            return
        res = net.solve({"s": supply, "t": -supply})
        assert res.total_cost == pytest.approx(ref_cost)


class TestTransportation:
    def test_matches_known(self):
        cost = np.array([[3.0, 1.0], [2.0, 4.0]])
        assign = solve_transportation(cost, [1, 2])
        assert list(assign) == [1, 0]

    def test_capacity_forces_spread(self):
        # Both rows prefer column 0, but it only holds one.
        cost = np.array([[1.0, 10.0], [1.0, 10.0]])
        assign = solve_transportation(cost, [1, 1])
        assert sorted(assign) == [0, 1]

    def test_insufficient_total_capacity(self):
        with pytest.raises(InfeasibleError):
            solve_transportation(np.ones((3, 2)), [1, 1])

    def test_forbidden_arcs_avoided(self):
        cost = np.array([[FORBIDDEN_COST, 2.0], [1.0, FORBIDDEN_COST]])
        assign = solve_transportation(cost, [1, 1])
        assert list(assign) == [1, 0]

    def test_all_forbidden_raises(self):
        cost = np.full((1, 2), FORBIDDEN_COST)
        with pytest.raises(InfeasibleError):
            solve_transportation(cost, [1, 1])

    def test_inf_treated_as_forbidden(self):
        cost = np.array([[np.inf, 5.0]])
        assert list(solve_transportation(cost, [1, 1])) == [1]

    def test_capacity_length_mismatch(self):
        with pytest.raises(OptimizationError):
            solve_transportation(np.ones((2, 2)), [1])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_transportation_matches_ssp(self, data):
        """The fast path and the SSP solver agree on optimal cost."""
        n_rows = data.draw(st.integers(1, 5))
        n_cols = data.draw(st.integers(1, 4))
        caps = [data.draw(st.integers(1, 3)) for _ in range(n_cols)]
        if sum(caps) < n_rows:
            caps[0] += n_rows - sum(caps)
        cost = np.array(
            [[data.draw(st.integers(0, 9)) for _ in range(n_cols)] for _ in range(n_rows)],
            dtype=float,
        )
        assign = solve_transportation(cost, caps)
        fast_cost = cost[np.arange(n_rows), assign].sum()

        net = FlowNetwork()
        for i in range(n_rows):
            net.add_arc("s", ("row", i), 1, 0.0)
            for j in range(n_cols):
                net.add_arc(("row", i), ("col", j), 1, float(cost[i, j]))
        for j in range(n_cols):
            net.add_arc(("col", j), "t", caps[j], 0.0)
        res = net.solve({"s": n_rows, "t": -n_rows})
        assert fast_cost == pytest.approx(res.total_cost)
        # Capacities respected.
        counts = np.bincount(assign, minlength=n_cols)
        assert (counts <= np.array(caps)).all()

    def test_huge_capacity_does_not_expand(self):
        """A single effectively-unbounded ring must not allocate an
        n_rows x capacity cost expansion (regression: the dense
        replication used the raw capacity instead of min(cap, n_rows))."""
        n_rows = 6
        cost = np.arange(n_rows * 2, dtype=float).reshape(n_rows, 2)
        assign = solve_transportation(cost, [10**9, 10**9])
        # Clamping cannot change the optimum: everyone fits column 0.
        assert list(assign) == [0] * n_rows

    def test_huge_capacity_matches_clamped(self):
        cost = np.array([[1.0, 3.0], [4.0, 1.0], [2.0, 2.0]])
        huge = solve_transportation(cost, [10**12, 10**12])
        modest = solve_transportation(cost, [3, 3])
        assert list(huge) == list(modest)


class TestSolveReuseGuard:
    def test_second_solve_raises(self):
        """solve() drains capacities in place; a silent second solve used
        to compute flows over the residual graph."""
        net = FlowNetwork()
        net.add_arc("s", "t", 2, 1.0)
        net.solve({"s": 2, "t": -2})
        with pytest.raises(OptimizationError, match="already ran"):
            net.solve({"s": 2, "t": -2})

    def test_failed_validation_does_not_consume_network(self):
        """A rejected supply mapping must leave the network solvable."""
        net = FlowNetwork()
        net.add_arc("s", "t", 2, 1.0)
        with pytest.raises(OptimizationError, match="sum to zero"):
            net.solve({"s": 2, "t": -1})
        res = net.solve({"s": 2, "t": -2})
        assert res.total_flow == 2
