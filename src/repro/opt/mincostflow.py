"""Min-cost assignment kernels for the Section V flow model.

Section V of the paper assigns flip-flops to rotary rings with the min-cost
flow model of Fig. 4 ("it is well known that this min-cost network flow
problem can be solved optimally in polynomial time").  This module provides:

* :func:`solve_transportation` — the bipartite transportation special
  case (what the assignment actually is): ring columns are replicated up
  to their capacities and the problem is solved with scipy's C
  implementation of the rectangular assignment problem.  This is what
  the production flow uses.
* :func:`refine_assignment` — warm-started re-solve: starting from a
  feasible assignment (typically the previous flow iteration's), cancel
  negative cycles in the compact column exchange graph until none remain.
  By Klein's optimality condition the result is exactly optimal; when the
  previous assignment is already near-optimal (the common case across
  flow iterations) this converges in a handful of cheap rounds instead of
  re-running the full rectangular assignment.

The literal Fig. 4 network and its successive-shortest-path solver are
the test oracle ``tests/oracles/mincostflow_ref.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import InfeasibleError, OptimizationError


# ---------------------------------------------------------------------------
# Fast bipartite transportation path
# ---------------------------------------------------------------------------
#: Penalty standing in for a forbidden (pruned) flip-flop/ring arc.
FORBIDDEN_COST = 1.0e12


def solve_transportation(
    cost: np.ndarray,
    capacities: np.ndarray | list[int],
) -> np.ndarray:
    """Optimal capacitated assignment of rows (flip-flops) to columns (rings).

    ``cost[i, j]`` is the cost of assigning row ``i`` to column ``j``; use
    :data:`FORBIDDEN_COST` (or ``np.inf``, which is converted) for pruned
    arcs.  ``capacities[j]`` bounds how many rows column ``j`` may take.
    Returns an int array ``assign`` with ``assign[i] = j``.

    Columns are replicated up to their capacities and the rectangular
    assignment problem is solved exactly (Jonker-Volgenant via scipy) —
    equivalent to the min-cost flow of Fig. 4.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    capacities = np.asarray(capacities, dtype=int)
    if capacities.size != n_cols:
        raise OptimizationError("capacities length must equal number of columns")
    if capacities.sum() < n_rows:
        raise InfeasibleError(
            f"total capacity {int(capacities.sum())} < {n_rows} flip-flops"
        )
    cost = np.where(np.isfinite(cost), cost, FORBIDDEN_COST)
    # A column never takes more than n_rows rows, so replicating beyond
    # that only inflates the dense matrix (a single huge-capacity ring
    # used to allocate an n_rows x sum(U_j) expansion).
    capacities = np.minimum(capacities, n_rows)
    col_owner = np.repeat(np.arange(n_cols), capacities)
    expanded = cost[:, col_owner]
    row_ind, col_ind = linear_sum_assignment(expanded)
    assign = np.full(n_rows, -1, dtype=int)
    for r, c in zip(row_ind, col_ind):
        assign[r] = col_owner[c]
    if (assign < 0).any():
        raise InfeasibleError("assignment left some rows unmatched")
    chosen = cost[np.arange(n_rows), assign]
    if (chosen >= FORBIDDEN_COST).any():
        raise InfeasibleError(
            "assignment forced a forbidden arc; relax pruning or capacities"
        )
    return assign


# ---------------------------------------------------------------------------
# Warm-started refinement (negative-cycle canceling on the exchange graph)
# ---------------------------------------------------------------------------
#: A cycle must improve the objective by at least this much to be applied;
#: anything smaller is floating-point noise around an already-optimal flow.
_CYCLE_TOL = 1e-9
#: Relaxation slack inside Bellman-Ford (tighter than the cycle gate).
_RELAX_TOL = 1e-12
#: Refinement gives up (returns ``None``) after this many cancel rounds;
#: a warm start that far from optimal is cheaper to re-solve cold.
_MAX_REFINE_ROUNDS = 64


def _exchange_weights(
    cost: np.ndarray, assign: np.ndarray, chosen: np.ndarray, n_cols: int
) -> np.ndarray:
    """Column-to-column move costs ``w[j, j']``.

    ``w[j, j']`` is the cheapest cost delta of re-assigning one of column
    ``j``'s rows to column ``j'`` (``inf`` when ``j`` owns no rows or no
    row of ``j`` may move to ``j'``).  Built with one argsort + grouped
    ``minimum.reduceat`` — no Python loop over rows.
    """
    order = np.argsort(assign, kind="stable")
    sorted_cols = assign[order]
    present, starts = np.unique(sorted_cols, return_index=True)
    delta = np.where(
        cost[order] < FORBIDDEN_COST, cost[order] - chosen[order][:, None], np.inf
    )
    w = np.full((n_cols, n_cols), np.inf)
    w[present] = np.minimum.reduceat(delta, starts, axis=0)
    np.fill_diagonal(w, np.inf)
    return w


def _negative_cycle(W: np.ndarray) -> list[int] | None:
    """A simple negative cycle of the dense digraph ``W``, or ``None``.

    Vectorized Bellman-Ford from a virtual source connected to every
    node: an improvement in the ``V``-th relaxation certifies a negative
    cycle, recovered by walking predecessors.
    """
    V = W.shape[0]
    dist = np.zeros(V)
    pred = np.full(V, -1, dtype=np.intp)
    cycle_seed = -1
    for it in range(V):
        cand = dist[:, None] + W
        new = cand.min(axis=0)
        improved = new < dist - _RELAX_TOL
        if not improved.any():
            return None
        arg = cand.argmin(axis=0)
        dist = np.where(improved, new, dist)
        pred = np.where(improved, arg, pred)
        if it == V - 1:
            cycle_seed = int(np.flatnonzero(improved)[0])
    # Walk V predecessor steps to guarantee landing inside the cycle.
    v = cycle_seed
    for _ in range(V):
        v = int(pred[v])
    cycle = [v]
    u = int(pred[v])
    while u != v:
        cycle.append(u)
        u = int(pred[u])
    cycle.reverse()  # pred-walk yields the cycle in reverse arc order
    return cycle


def refine_assignment(
    cost: np.ndarray,
    capacities: np.ndarray | list[int],
    assign: np.ndarray,
    max_rounds: int = _MAX_REFINE_ROUNDS,
) -> np.ndarray | None:
    """Re-optimize a feasible assignment by canceling negative cycles.

    ``assign`` is a previous (typically near-optimal) solution of the
    same shape of problem: ``assign[i] = j`` with finite ``cost[i, j]``
    and per-column loads within ``capacities``.  Returns an exactly
    optimal assignment — the exchange graph aggregates every residual
    arc of the underlying min-cost flow, so "no negative cycle" is
    Klein's optimality certificate — or ``None`` when the warm start is
    unusable (infeasible under the new costs/capacities) or refinement
    exceeds ``max_rounds``; callers then fall back to a cold solve.

    Nodes of the exchange graph are the columns plus a slack node ``t``:
    ``j -> j'`` re-assigns the cheapest movable row of ``j``; ``j -> t``
    (zero cost) is available while ``j`` has spare capacity and lets a
    cycle shift net load between columns.  Cycle columns are distinct,
    so the per-arc argmin rows are distinct and every move of a cycle
    can be applied simultaneously; the objective drops by exactly the
    cycle weight.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    caps = np.minimum(np.asarray(capacities, dtype=int), n_rows)
    assign = np.asarray(assign, dtype=np.intp)
    if assign.shape != (n_rows,):
        return None
    if (assign < 0).any() or (assign >= n_cols).any():
        return None
    cost = np.where(np.isfinite(cost), cost, FORBIDDEN_COST)
    rows = np.arange(n_rows)
    chosen = cost[rows, assign]
    if (chosen >= FORBIDDEN_COST).any():
        return None
    loads = np.bincount(assign, minlength=n_cols)
    if (loads > caps).any():
        return None

    assign = assign.copy()
    t = n_cols
    for _ in range(max_rounds):
        w = _exchange_weights(cost, assign, chosen, n_cols)
        W = np.full((n_cols + 1, n_cols + 1), np.inf)
        W[:n_cols, :n_cols] = w
        W[:n_cols, t] = np.where(loads < caps, 0.0, np.inf)
        W[t, :n_cols] = np.where(loads > 0, 0.0, np.inf)
        cycle = _negative_cycle(W)
        if cycle is None:
            return assign
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        weight = sum(float(W[u, v]) for u, v in arcs)
        if not weight < -_CYCLE_TOL:
            return assign
        # Resolve each column->column arc to its argmin row, all against
        # the pre-cancel assignment (source columns are distinct, hence
        # so are the rows), then apply the moves at once.
        moves: list[tuple[int, int]] = []
        for u, v in arcs:
            if u == t or v == t:
                continue
            in_u = np.flatnonzero(assign == u)
            deltas = np.where(
                cost[in_u, v] < FORBIDDEN_COST,
                cost[in_u, v] - chosen[in_u],
                np.inf,
            )
            moves.append((int(in_u[np.argmin(deltas)]), v))
        for i, v in moves:
            loads[assign[i]] -= 1
            loads[v] += 1
            assign[i] = v
            chosen[i] = cost[i, v]
        if (loads > caps).any():  # defensive: never expected
            return None
    return None
