"""Reference graph route for max-slack skew: SPFA feasibility + bisection.

The paper notes (Section VII) that the max-slack skew problem "can be
solved using linear programming [4] or graph-based algorithms [23], [24]".
This is the graph-based route: a system

    t_left - t_right <= bound - slack_coeff * M

is feasible for a given slack ``M`` iff the constraint graph has no
negative cycle; the largest feasible ``M`` is found by binary search over a
Bellman-Ford (SPFA) feasibility oracle.  No production path uses it: the
flow solves the LP (:mod:`repro.core.skew_traditional`); ROADMAP item 5
times this route at 16.5 s against the LP's 0.39 s on s38417 (2-vCPU VM).
It is kept only to cross-check that LP optimum and the checker's
negative-cycle verdicts.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

from repro.errors import InfeasibleError
from repro.opt.diffconstraints import RELAXATION_EPS, SkewConstraint


def solve_difference_constraints(
    nodes: Iterable[str],
    constraints: Sequence[SkewConstraint],
    slack: float = 0.0,
) -> dict[str, float] | None:
    """Feasible potentials for the system at a fixed slack, or ``None``.

    Shortest paths from a virtual source in the constraint graph (edge
    ``right -> left`` with weight ``bound - slack_coeff*slack``) give a
    feasible assignment; a negative cycle certifies infeasibility.
    Implemented as SPFA with a relaxation-count cycle check.
    """
    node_list = list(dict.fromkeys(nodes))
    index = {n: i for i, n in enumerate(node_list)}
    n = len(node_list)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for con in constraints:
        w = con.bound - con.slack_coeff * slack
        adj[index[con.right]].append((index[con.left], w))

    dist = [0.0] * n  # virtual source at distance 0 to every node
    in_queue = [True] * n
    # Edge count of the current shortest path; reaching n edges certifies
    # a negative cycle (a simple path has at most n-1 edges; counting
    # relaxations instead would false-positive on cascaded updates).
    path_len = [0] * n
    queue: deque[int] = deque(range(n))
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du = dist[u]
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v] - RELAXATION_EPS:
                dist[v] = nd
                path_len[v] = path_len[u] + 1
                if path_len[v] >= n:
                    return None  # negative cycle
                if not in_queue[v]:
                    in_queue[v] = True
                    queue.append(v)
    return {node: dist[i] for node, i in index.items()}


def maximize_slack(
    nodes: Iterable[str],
    constraints: Sequence[SkewConstraint],
    tolerance: float = 1e-4,
    max_slack_hint: float | None = None,
) -> tuple[float, dict[str, float]]:
    """Largest slack ``M`` for which the system is feasible, with schedule.

    Binary search over the feasibility oracle.  Raises
    :class:`InfeasibleError` if even ``M = lower bound`` (derived from the
    constraint bounds) is infeasible.
    """
    node_list = list(dict.fromkeys(nodes))
    if not constraints:
        return math.inf, {n: 0.0 for n in node_list}

    # A safe bracket: M can never exceed the largest single-constraint
    # headroom on a self-loop-free cycle of two; use bound magnitudes.
    hi = max_slack_hint
    if hi is None:
        hi = max(abs(c.bound) for c in constraints) + 1.0
    lo = -hi

    schedule_lo = solve_difference_constraints(node_list, constraints, lo)
    while schedule_lo is None:
        lo *= 2.0
        if lo < -1e12:
            raise InfeasibleError("skew constraints infeasible at any slack")
        schedule_lo = solve_difference_constraints(node_list, constraints, lo)

    # Grow hi until infeasible (so the bracket is valid).
    while solve_difference_constraints(node_list, constraints, hi) is not None:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            # Effectively unbounded slack (no cycles in the graph).
            return hi, solve_difference_constraints(node_list, constraints, lo) or {}

    best_schedule = solve_difference_constraints(node_list, constraints, lo)
    assert best_schedule is not None
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        schedule = solve_difference_constraints(node_list, constraints, mid)
        if schedule is None:
            hi = mid
        else:
            lo = mid
            best_schedule = schedule
    return lo, best_schedule


def check_constraints(
    schedule: dict[str, float],
    constraints: Sequence[SkewConstraint],
    slack: float = 0.0,
    tolerance: float = 1e-6,
) -> list[SkewConstraint]:
    """Return the constraints violated by ``schedule`` at slack ``slack``."""
    violated = []
    for con in constraints:
        lhs = schedule[con.left] - schedule[con.right]
        if lhs > con.bound - con.slack_coeff * slack + tolerance:
            violated.append(con)
    return violated
