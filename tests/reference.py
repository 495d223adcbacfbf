"""Reference solvers that the tests check the library against.

``networkx_matching`` is networkx's blossom matching.  ``zf_batch`` is
zero-forcing with the plain SVD rank rule.  ``loop_best_partition`` is
the subset DP of full search as a plain loop over the states.  The
others enumerate their whole search space, so they are only usable on
small instances.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Iterator

import networkx as nx
import numpy as np

from mugroup.errors import SearchSpaceError
from mugroup.grouping import _block_string
from mugroup.matching import Matching, WeightedGraph, _as_matching

BRUTE_FORCE_VERTEX_LIMIT = 12

# the library's condition-number limit for a well-conditioned group
COND_LIMIT = 1e12


def networkx_matching(graph: WeightedGraph) -> Matching:
    """Maximum-weight matching by networkx's blossom implementation.

    Vertices are added in order 0..V-1 and edges in sorted order, so each
    vertex lists its neighbours in ascending order, the search order that
    ``max_weight_matching`` keeps.
    """
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for u, v, w in sorted(graph.edges):
        g.add_edge(u, v, weight=w)
    return _as_matching(graph, nx.max_weight_matching(g, maxcardinality=False))


def optimal_matchings(graph: WeightedGraph) -> list[Matching]:
    """Every maximum-weight matching, found by enumerating all matchings.

    The list is in enumeration order; weights are summed in ascending edge
    order, so only exactly equal sums tie.  Refuses graphs with more than
    12 vertices.
    """
    if graph.num_vertices > BRUTE_FORCE_VERTEX_LIMIT:
        raise SearchSpaceError(
            f"brute-force matching is capped at {BRUTE_FORCE_VERTEX_LIMIT} vertices, "
            f"got {graph.num_vertices}"
        )
    edges = sorted(graph.edges)
    best: list[list[tuple[int, int]]] = []
    best_weight = -math.inf  # the first matching found is the empty one

    def rec(i: int, used: int, picked: list[tuple[int, int]], weight: float):
        nonlocal best, best_weight
        if i == len(edges):
            if weight > best_weight:
                best_weight, best = weight, []
            if weight == best_weight:
                best.append(list(picked))
            return
        rec(i + 1, used, picked, weight)
        u, v, w = edges[i]
        bits = (1 << u) | (1 << v)
        if not used & bits:
            picked.append((u, v))
            rec(i + 1, used | bits, picked, weight + w)
            picked.pop()

    rec(0, 0, [], 0.0)
    return [_as_matching(graph, pairs) for pairs in best]


def brute_force_matching(graph: WeightedGraph) -> Matching:
    """Exact maximum-weight matching by enumerating all matchings: the
    first optimum found.  Refuses graphs with more than 12 vertices."""
    return optimal_matchings(graph)[0]


def brute_force_assignment(w) -> tuple[tuple[int, ...], float]:
    """Try every injective row-to-column map.

    Returns the lexicographically smallest optimum, like ``hungarian``.
    The benefit of each map is summed row by row in floats, so on a
    matrix whose optima tie only in exact arithmetic the rounding decides.
    """
    values = np.asarray(w, dtype=np.float64)
    if values.ndim != 2 or not np.all(np.isfinite(values)):
        raise ValueError("weight matrix must be 2-D and finite")
    rows, cols = values.shape
    if rows > cols:
        raise ValueError(f"need rows <= cols, got {rows} x {cols}")
    best: tuple[int, ...] = ()
    best_benefit = -math.inf
    # permutations() is lexicographic, so keeping the first optimum found
    # gives hungarian's tie-break
    for perm in permutations(range(cols), rows):
        benefit = 0.0
        for r in range(rows):
            benefit += values[r, perm[r]]
        if benefit > best_benefit:
            best = perm
            best_benefit = benefit
    return best, float(best_benefit)


def enumerate_partitions(num_users: int, max_size: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every partition of {0..num_users-1} into blocks of at most
    ``max_size`` exactly once, in canonical order.

    Blocks are listed by least element with members ascending; the stream
    is lexicographic in the restricted-growth encoding.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    blocks: list[list[int]] = []

    def rec(i: int):
        if i == num_users:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            if len(b) < max_size:
                b.append(i)
                yield from rec(i + 1)
                b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    return rec(0)


def loop_best_partition(rates, n: int, max_block: int):
    """``grouping.search_best_partition`` as one Python loop over the
    states in ascending mask order, with its result and tie rule.

    Each reached state T offers every block B that holds the lowest
    element outside T; ``T | B`` keeps the larger score and, on an exact
    tie, the candidate whose block-index string comes first.
    """
    rates = np.asarray(rates, dtype=np.float64).tolist()
    full = (1 << n) - 1
    bits = [1 << i for i in range(n)]
    best = [0.0] * (full + 1)
    count = [0] * (full + 1)
    block = [0] * (full + 1)  # last block on the kept path to each state
    count[0] = 1
    for t in range(full):
        ways = count[t]
        if not ways:
            continue
        low = ~t & (t + 1)  # lowest element outside t; blocks are disjoint bits
        free = [b for b in bits if b > low and not t & b]
        base = best[t]
        for extra in range(min(max_block, len(free) + 1)):
            for others in combinations(free, extra):
                b = low + sum(others)
                s = t + b
                value = base + (extra + 1) * rates[b]
                if not count[s] or value > best[s] or (
                        value == best[s]
                        and _block_string(block, t, b, n)
                        < _block_string(block, s - block[s], block[s], n)):
                    best[s] = value
                    block[s] = b
                count[s] += ways
    assign = np.array(_block_string(block, full - block[full], block[full], n),
                      dtype=np.int64)
    return count[full], best[full], assign


def zf_batch(channels, groups):
    """``phy._zf_batch`` with ``ok`` decided on every row by one SVD: the
    2-norm condition number of H H^H is at most ``COND_LIMIT``.

    The arithmetic of the stacked channels, the solve and the column
    normalization is the library's, so rows that are ok must match it bit
    for bit.  Rows that are not ok mean nothing; a zero column there is
    divided 0/0 without a warning.
    """
    n, k = len(groups), len(groups[0])
    sc, nt = channels.num_subcarriers, channels.num_tx_antennas
    h = channels.entries[np.asarray(groups)]
    h = np.ascontiguousarray(np.moveaxis(h, 3, 1).reshape(n * sc, k, nt))
    gram = h @ np.conj(np.swapaxes(h, 1, 2))
    ok = np.linalg.cond(gram) <= COND_LIMIT
    gram[~ok] = np.eye(k)
    w = np.conj(np.swapaxes(np.linalg.solve(gram, h), 1, 2))
    with np.errstate(invalid="ignore"):
        w /= np.linalg.norm(w, axis=1, keepdims=True)
    return h, w, ok
