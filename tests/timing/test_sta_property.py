"""Property tests cross-checking the STA against networkx reachability."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_TECHNOLOGY
from repro.netlist import Circuit, generate_circuit, small_profile
from repro.placement import QuadraticPlacer, legalize, region_for_circuit
from repro.timing import SequentialTiming

TECH = DEFAULT_TECHNOLOGY


def reachable_pairs(circuit: Circuit) -> set[tuple[str, str]]:
    """Sequential adjacency via plain graph reachability (ground truth)."""
    g = nx.DiGraph(circuit.combinational_edges())
    ffs = [ff.name for ff in circuit.flip_flops]
    pairs = set()
    for src in ffs:
        if src not in g:
            continue
        for node in nx.descendants(g, src):
            if node.endswith("$D"):
                pairs.add((src, node[:-2]))
    return pairs


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_pairs_match_graph_reachability(seed):
    circuit = generate_circuit(
        small_profile(num_cells=150, num_flipflops=20, seed=seed)
    )
    timing = SequentialTiming(circuit, {}, TECH)
    assert set(timing.pairs.keys()) == reachable_pairs(circuit)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_dmin_le_dmax_and_positive(seed):
    circuit = generate_circuit(
        small_profile(num_cells=150, num_flipflops=20, seed=seed)
    )
    region = region_for_circuit(circuit, TECH)
    placer = QuadraticPlacer(circuit, region)
    legal = legalize(*placer.place(), placer.movable, region)
    positions = dict(placer.fixed_positions)
    positions.update(legal.positions)
    timing = SequentialTiming(circuit, positions, TECH)
    assert timing.pairs  # generated circuits always close loops
    for bounds in timing.pairs.values():
        assert 0.0 < bounds.d_min <= bounds.d_max


def test_placement_only_changes_delays_not_pairs():
    circuit = generate_circuit(small_profile(num_cells=150, num_flipflops=20, seed=3))
    at_origin = SequentialTiming(circuit, {}, TECH)
    region = region_for_circuit(circuit, TECH)
    placer = QuadraticPlacer(circuit, region)
    legal = legalize(*placer.place(), placer.movable, region)
    positions = dict(placer.fixed_positions)
    positions.update(legal.positions)
    placed = SequentialTiming(circuit, positions, TECH)
    assert set(at_origin.pairs) == set(placed.pairs)
    # Placed wires add delay on at least the majority of pairs.
    slower = sum(
        1
        for key in placed.pairs
        if placed.pairs[key].d_max >= at_origin.pairs[key].d_max
    )
    assert slower > 0.9 * len(placed.pairs)
