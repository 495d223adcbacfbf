"""Exact matching and assignment solvers.

``max_weight_matching`` solves maximum-weight matching on general
weighted graphs (vertices may stay unmatched, negative weights allowed)
via networkx's blossom implementation.  ``hungarian`` solves the
rectangular assignment problem by maximization with an O(n^3) labeling
algorithm written here, because its contract pins the tie-break: among
optimal assignments the lexicographically smallest one is returned,
which the dual certificate makes cheap to extract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

__all__ = [
    "WeightedGraph",
    "Matching",
    "max_weight_matching",
    "hungarian",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with finite (possibly negative) edge weights."""

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            norm.append((key[0], key[1], float(w)))
        object.__setattr__(self, "edges", tuple(norm))


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint edge set with its total weight."""

    pairs: tuple[tuple[int, int], ...]
    total_weight: float

    def __post_init__(self):
        used = set()
        for u, v in self.pairs:
            if u in used or v in used or u == v:
                raise ValueError(f"pair ({u}, {v}) reuses a vertex")
            used.update((u, v))


def _as_matching(graph: WeightedGraph, pairs) -> Matching:
    weight_of = {(u, v): w for u, v, w in graph.edges}
    norm = tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
    total = 0.0
    for p in norm:
        total += weight_of[p]
    return Matching(norm, total)


def max_weight_matching(graph: WeightedGraph) -> Matching:
    """Maximum-weight matching; not necessarily perfect, so edges that do
    not pay for themselves are left out.  Deterministic for a fixed edge
    ordering."""
    if not graph.edges:
        return Matching((), 0.0)
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for u, v, w in sorted(graph.edges):
        g.add_edge(u, v, weight=w)
    mate = nx.max_weight_matching(g, maxcardinality=False)
    return _as_matching(graph, mate)


# ---------------------------------------------------------------------------
# Rectangular assignment by maximization (Hungarian labeling method)
# ---------------------------------------------------------------------------


def _solve_assignment(w: np.ndarray):
    """Optimal assignment plus a feasible dual certificate (u, v).

    Maintains u[r] + v[c] >= w[r, c] with v >= 0 throughout; matched
    edges are tight and v[c] > 0 only on matched columns, so the returned
    labels witness optimality.
    """
    rows, cols = w.shape
    u = w.max(axis=1).astype(np.float64, copy=True)
    v = np.zeros(cols)
    match_row = np.full(rows, -1, dtype=np.int64)
    match_col = np.full(cols, -1, dtype=np.int64)

    for root in range(rows):
        in_tree_row = np.zeros(rows, dtype=bool)
        in_tree_col = np.zeros(cols, dtype=bool)
        in_tree_row[root] = True
        slack = u[root] + v - w[root]
        slack_row = np.full(cols, root, dtype=np.int64)
        while True:
            open_cols = ~in_tree_col
            j = int(np.flatnonzero(open_cols)[np.argmin(slack[open_cols])])
            delta = slack[j]
            if delta > 0.0:
                u[in_tree_row] -= delta
                v[in_tree_col] += delta
                slack[open_cols] -= delta
            in_tree_col[j] = True
            if match_col[j] < 0:
                # augment along the alternating path back to the root
                while True:
                    r = slack_row[j]
                    prev = match_row[r]
                    match_col[j] = r
                    match_row[r] = j
                    if prev < 0:
                        break
                    j = prev
                break
            r = match_col[j]
            in_tree_row[r] = True
            cand = u[r] + v - w[r]
            better = cand < slack
            better &= ~in_tree_col
            slack[better] = cand[better]
            slack_row[better] = r
    return match_row, u, v


def _kuhn_saturates(adj: list[list[int]], targets: list[int], n_right: int) -> bool:
    """True when every left vertex in ``targets`` can be matched."""
    match_right = [-1] * n_right

    def try_augment(left: int, visited: list[bool]) -> bool:
        for right in adj[left]:
            if not visited[right]:
                visited[right] = True
                if match_right[right] < 0 or try_augment(match_right[right], visited):
                    match_right[right] = left
                    return True
        return False

    for left in targets:
        if not try_augment(left, [False] * n_right):
            return False
    return True


def _lexicographic_refine(w: np.ndarray, match_row: np.ndarray,
                          u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lexicographically smallest assignment among the optima.

    Complementary slackness confines optimal assignments to tight edges
    covering every column with a positive label, so the refinement is a
    greedy walk over that tight graph with two matchability checks per
    candidate (rows saturable and required columns saturable imply a
    common matching).
    """
    rows, cols = w.shape
    tol = 1e-9 * max(1.0, float(np.abs(w).max(initial=0.0)))
    tight = [np.flatnonzero(u[r] + v - w[r] <= tol).tolist() for r in range(rows)]
    required = set(np.flatnonzero(v > tol).tolist())

    assign = np.array(match_row)
    used: set[int] = set()
    for r in range(rows):
        chosen = -1
        for c in tight[r]:
            if c in used:
                continue
            rest_rows = list(range(r + 1, rows))
            avail = [c2 for c2 in range(cols) if c2 not in used and c2 != c]
            col_pos = {c2: k for k, c2 in enumerate(avail)}
            row_adj = [[col_pos[c2] for c2 in tight[rr] if c2 in col_pos] for rr in range(rows)]
            if not _kuhn_saturates([row_adj[rr] for rr in rest_rows],
                                   list(range(len(rest_rows))), len(avail)):
                continue
            need = [c2 for c2 in required if c2 not in used and c2 != c]
            if need:
                col_adj = {c2: [] for c2 in need}
                for k, rr in enumerate(rest_rows):
                    for c2 in tight[rr]:
                        if c2 in col_adj:
                            col_adj[c2].append(k)
                if not _kuhn_saturates([col_adj[c2] for c2 in need],
                                       list(range(len(need))), len(rest_rows)):
                    continue
            chosen = c
            break
        if chosen < 0:  # numerically degenerate duals: keep the solver's edge
            chosen = int(match_row[r])
        assign[r] = chosen
        used.add(chosen)
    return assign


def hungarian(w) -> tuple[tuple[int, ...], float]:
    """Maximum-benefit assignment of rows to distinct columns.

    Requires rows <= cols (pad externally otherwise).  Returns the
    injective row-to-column map and the total benefit; among optimal
    assignments the lexicographically smallest is returned.  GMA relies
    on that rule: MCS rates are quantized, so its merge benefits tie
    exactly, and the labeling solver's own pick among the optima would
    change its groups.
    """
    values = np.asarray(w, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("weight matrix must be 2-D")
    if not np.all(np.isfinite(values)):
        raise ValueError("weight matrix entries must be finite")
    rows, cols = values.shape
    if rows == 0:
        return (), 0.0
    if rows > cols:
        raise ValueError(f"need rows <= cols, got {rows} x {cols}")
    match_row, u, v = _solve_assignment(values)
    assign = _lexicographic_refine(values, match_row, u, v)
    benefit = 0.0
    for r in range(rows):
        benefit += values[r, assign[r]]
    return tuple(int(c) for c in assign), float(benefit)
