"""Reference min-cost flow: successive shortest paths with potentials.

Section V of the paper assigns flip-flops to rotary rings with the min-cost
flow model of Fig. 4 ("it is well known that this min-cost network flow
problem can be solved optimally in polynomial time").
:class:`FlowNetwork` is a from-scratch successive-shortest-path solver
with Johnson potentials (Dijkstra inner loop, Bellman-Ford bootstrap for
negative arc costs): exact, pure Python, for instances up to a few
thousand arcs.  No production path uses it — the flow solves the
transportation special case (:func:`repro.opt.solve_transportation`) and
refines warm starts (:func:`repro.opt.refine_assignment`).  It is kept as
the oracle behind the literal Fig. 4 network
(:mod:`oracles.assignment_ref`), the min-cost-flow tests, and
``benchmarks/bench_fig4_flow_model.py``, and is itself cross-checked
against networkx.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.errors import InfeasibleError, OptimizationError

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class ArcRef:
    """Opaque handle to an arc, returned by :meth:`FlowNetwork.add_arc`."""

    node_index: int
    arc_index: int


@dataclass(frozen=True, slots=True)
class FlowResult:
    """Result of a min-cost flow solve."""

    total_cost: float
    total_flow: int
    _flows: dict[ArcRef, int]

    def flow_on(self, arc: ArcRef) -> int:
        return self._flows.get(arc, 0)


class FlowNetwork:
    """A directed flow network with integer capacities and float costs."""

    def __init__(self) -> None:
        self._index: dict[NodeId, int] = {}
        self._names: list[NodeId] = []
        # adjacency: per node, list of [head, cap, cost, rev_index]
        self._adj: list[list[list]] = []
        self._arc_refs: list[ArcRef] = []
        self._solved = False

    def _node(self, name: NodeId) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
            self._adj.append([])
        return idx

    def add_arc(self, tail: NodeId, head: NodeId, capacity: int, cost: float) -> ArcRef:
        """Add an arc with the given integer capacity and per-unit cost."""
        if capacity < 0:
            raise OptimizationError(f"negative capacity on arc {tail!r}->{head!r}")
        u = self._node(tail)
        v = self._node(head)
        ref = ArcRef(u, len(self._adj[u]))
        self._adj[u].append([v, capacity, float(cost), len(self._adj[v])])
        self._adj[v].append([u, 0, -float(cost), len(self._adj[u]) - 1])
        self._arc_refs.append(ref)
        return ref

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    @property
    def num_arcs(self) -> int:
        return len(self._arc_refs)

    # ------------------------------------------------------------------
    def solve(self, supplies: Mapping[NodeId, int]) -> FlowResult:
        """Route all supply to demand at minimum cost.

        ``supplies`` maps node -> signed supply (positive = source,
        negative = sink); values must balance to zero.  Raises
        :class:`InfeasibleError` if the network cannot carry the supply.

        The solve drains arc capacities in place, so a network can only
        be solved once; a second call raises
        :class:`OptimizationError` instead of silently computing flows
        over the residual graph and stale super-source arcs.
        """
        if self._solved:
            raise OptimizationError(
                "FlowNetwork.solve() already ran on this network; capacities "
                "are drained — build a fresh network for another solve"
            )
        total_supply = sum(v for v in supplies.values() if v > 0)
        if sum(supplies.values()) != 0:
            raise OptimizationError("supplies must sum to zero")
        self._solved = True
        # Super source/sink reduction.
        s = self._node(("__super_source__",))
        t = self._node(("__super_sink__",))
        temp_arcs: list[tuple[int, int]] = []
        for node, supply in supplies.items():
            u = self._node(node)
            if supply > 0:
                self._adj[s].append([u, supply, 0.0, len(self._adj[u])])
                self._adj[u].append([s, 0, 0.0, len(self._adj[s]) - 1])
                temp_arcs.append((s, len(self._adj[s]) - 1))
            elif supply < 0:
                self._adj[u].append([t, -supply, 0.0, len(self._adj[t])])
                self._adj[t].append([u, 0, 0.0, len(self._adj[u]) - 1])
                temp_arcs.append((u, len(self._adj[u]) - 1))

        del temp_arcs  # reduction arcs are drained by the solve; no cleanup needed
        flows, cost, routed = self._ssp(s, t, total_supply)
        if routed < total_supply:
            raise InfeasibleError(
                f"only {routed}/{total_supply} units routable; network disconnected "
                "or capacities insufficient"
            )
        arc_flows = {
            ref: flows.get((ref.node_index, ref.arc_index), 0)
            for ref in self._arc_refs
            if flows.get((ref.node_index, ref.arc_index), 0) > 0
        }
        return FlowResult(total_cost=cost, total_flow=routed, _flows=arc_flows)

    # ------------------------------------------------------------------
    def _ssp(self, s: int, t: int, max_flow: int) -> tuple[dict, float, int]:
        n = len(self._adj)
        flows: dict[tuple[int, int], int] = {}
        potential = self._initial_potentials(s)
        total_cost = 0.0
        routed = 0
        while routed < max_flow:
            dist, parent = self._dijkstra(s, potential)
            if dist[t] == math.inf:
                break
            for v in range(n):
                if dist[v] < math.inf:
                    potential[v] += dist[v]
            # Find bottleneck along s..t path.
            push = max_flow - routed
            v = t
            while v != s:
                u, ai = parent[v]
                push = min(push, self._adj[u][ai][1])
                v = u
            v = t
            while v != s:
                u, ai = parent[v]
                arc = self._adj[u][ai]
                arc[1] -= push
                self._adj[arc[0]][arc[3]][1] += push
                key = (u, ai)
                flows[key] = flows.get(key, 0) + push
                rkey = (arc[0], arc[3])
                if flows.get(rkey, 0) > 0:  # cancellation on reverse arc
                    cancel = min(push, flows[rkey])
                    flows[rkey] -= cancel
                    flows[key] -= cancel
                total_cost += push * arc[2]
                v = u
            routed += push
        return flows, total_cost, routed

    def _initial_potentials(self, s: int) -> list[float]:
        """Bellman-Ford from ``s`` to support negative arc costs."""
        n = len(self._adj)
        if all(arc[2] >= 0.0 for adj in self._adj for arc in adj if arc[1] > 0):
            return [0.0] * n
        dist = [math.inf] * n
        dist[s] = 0.0
        for _ in range(n - 1):
            changed = False
            for u in range(n):
                if dist[u] == math.inf:
                    continue
                for arc in self._adj[u]:
                    if arc[1] > 0 and dist[u] + arc[2] < dist[arc[0]] - 1e-12:
                        dist[arc[0]] = dist[u] + arc[2]
                        changed = True
            if not changed:
                break
        return [d if d < math.inf else 0.0 for d in dist]

    def _dijkstra(
        self, s: int, potential: list[float]
    ) -> tuple[list[float], list[tuple[int, int] | None]]:
        n = len(self._adj)
        dist = [math.inf] * n
        parent: list[tuple[int, int] | None] = [None] * n
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        done = [False] * n
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for ai, arc in enumerate(self._adj[u]):
                v, cap, cost, _ = arc
                if cap <= 0 or done[v]:
                    continue
                nd = d + cost + potential[u] - potential[v]
                if nd < dist[v] - 1e-12:
                    dist[v] = nd
                    parent[v] = (u, ai)
                    heapq.heappush(heap, (nd, v))
        return dist, parent
