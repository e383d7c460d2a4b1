"""Flow-conservation and cost-accounting invariants of the SSP solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.mincostflow_ref import FlowNetwork


def random_instance(data):
    n_left = data.draw(st.integers(1, 4))
    n_right = data.draw(st.integers(1, 4))
    caps = [data.draw(st.integers(1, 3)) for _ in range(n_right)]
    supply = data.draw(st.integers(1, min(6, sum(caps), n_left * 2)))
    costs = np.array(
        [
            [data.draw(st.integers(0, 9)) for _ in range(n_right)]
            for _ in range(n_left)
        ],
        dtype=float,
    )
    return n_left, n_right, caps, supply, costs


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_flow_conservation_and_cost(data):
    n_left, n_right, caps, supply, costs = random_instance(data)
    net = FlowNetwork()
    left_arcs = {}
    mid_arcs = {}
    right_arcs = {}
    for i in range(n_left):
        left_arcs[i] = net.add_arc("s", ("l", i), 2, 0.0)
        for j in range(n_right):
            mid_arcs[(i, j)] = net.add_arc(("l", i), ("r", j), 1, float(costs[i, j]))
    for j in range(n_right):
        right_arcs[j] = net.add_arc(("r", j), "t", caps[j], 0.0)

    from repro.errors import InfeasibleError

    try:
        res = net.solve({"s": supply, "t": -supply})
    except InfeasibleError:
        # Mid-layer arcs may bottleneck below the declared capacities.
        assert supply > 0
        return

    # Conservation at every intermediate node.
    for i in range(n_left):
        inflow = res.flow_on(left_arcs[i])
        outflow = sum(res.flow_on(mid_arcs[(i, j)]) for j in range(n_right))
        assert inflow == outflow
    for j in range(n_right):
        inflow = sum(res.flow_on(mid_arcs[(i, j)]) for i in range(n_left))
        outflow = res.flow_on(right_arcs[j])
        assert inflow == outflow
        assert outflow <= caps[j]

    # Cost accounting: reported cost equals sum of arc flows x costs.
    recomputed = sum(
        res.flow_on(mid_arcs[(i, j)]) * costs[i, j]
        for i in range(n_left)
        for j in range(n_right)
    )
    assert res.total_cost == pytest.approx(recomputed)
    assert res.total_flow == supply
