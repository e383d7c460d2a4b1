"""Fig. 4: the min-cost network-flow assignment model.

Reports the network's structure (nodes/arcs after pruning) and times the
from-scratch successive-shortest-path solver on a literal Fig. 4 network.
"""

import numpy as np
import pytest

from repro.experiments import fig4_network_structure, format_table

from conftest import record_artifact
from oracles.mincostflow_ref import FlowNetwork


@pytest.fixture(scope="module")
def fig4_artifact(suite):
    data = fig4_network_structure(suite, suite.names[0])
    rows = [{"quantity": k, "value": v} for k, v in data.items()]
    record_artifact(
        "Fig. 4",
        format_table(rows, f"Fig. 4 - assignment flow network ({suite.names[0]})"),
    )
    return data


@pytest.fixture(scope="module")
def ssp_instance():
    rng = np.random.default_rng(42)
    n_ff, n_rings = 60, 9
    costs = rng.uniform(1.0, 200.0, size=(n_ff, n_rings))
    return costs


def test_bench_ssp_solver(benchmark, fig4_artifact, ssp_instance):
    assert fig4_artifact["ff_ring_arcs"] > 0

    costs = ssp_instance
    n_ff, n_rings = costs.shape

    def build_and_solve():
        net = FlowNetwork()
        for i in range(n_ff):
            net.add_arc("s", ("ff", i), 1, 0.0)
            for j in range(n_rings):
                net.add_arc(("ff", i), ("ring", j), 1, float(costs[i, j]))
        for j in range(n_rings):
            net.add_arc(("ring", j), "t", 8, 0.0)
        return net.solve({"s": n_ff, "t": -n_ff})

    result = benchmark(build_and_solve)
    assert result.total_flow == n_ff
