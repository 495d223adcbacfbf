"""Reference solvers that the tests check the library against.

``networkx_matching`` is networkx's blossom matching, ``networkx_mates``
the same as the partner list ``blossom_mates`` returns, and
``matching_weight`` the total weight of a matching whose pairs it checks
are disjoint.
``closed_form_rate`` is the library's closed-form zero-forcing rate for
one group, one subcarrier at a time, its LDL^H elimination
(``ldl_inverse_diagonal``) written out in Python floats; ``inverse_rate``
is the same rate from one LAPACK inverse per subcarrier.
``stepwise_batch_rates`` (with ``stepwise_zf_sinr`` and
``stepwise_ldl_inv_diag``) is the library's batched rate kernel written
one numpy call per elementwise step, which the library must match bit
for bit.  ``zf_batch``,
``zf_steering`` and ``group_rate`` build the zero-forcing steering
vectors and sum the interference in full, the model the closed form is
derived from; they use the plain SVD rank rule and raise
``SingularChannelError`` for a rank-deficient group.  ``map_sinr_to_mcs``
maps one SINR to its MCS entry, the rule ``phy._mcs_rates`` applies to
arrays.  ``numpy_solve_assignment`` is the labeling solver of
``hungarian`` on numpy rows.  ``matchability_hungarian`` is ``hungarian``
with its lexicographic rule found by Kuhn matchability checks per
candidate column instead of alternating cycles.  ``loop_best_partition``
is the subset DP of full search as a plain loop over the states.
``loop_correlation_matrix`` is ``correlation_matrix`` over every pair,
one antenna at a time.  ``stepwise_sus_grouping`` (with
``StepwiseResiduals`` and ``stepwise_sus_single_alpha``) is the library's
SUS with one numpy call per selection step, on the correlations of
``loop_correlation_matrix``; the library must match both bit for bit.
The others enumerate their whole search space, so they are only usable
on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, permutations
from typing import Iterator

import networkx as nx
import numpy as np

from mugroup.baselines import _RANK_TOL, SusParams
from mugroup.errors import ConfigurationError, SearchSpaceError
from mugroup.grouping import GroupingSolution, canonical_group, objective
from mugroup.matching import WeightedGraph
from mugroup.phy import (_CERT_LIMIT, _COND_LIMIT, _MAX_BATCH_ROWS, DEFAULT_MCS_TABLE, McsEntry,
                         PhyConfig, RateMode, _mcs_rates, phy_rate)

BRUTE_FORCE_VERTEX_LIMIT = 12

# the library's condition-number limit for a well-conditioned group
COND_LIMIT = 1e12


class SingularChannelError(ValueError):
    """Raised when a group's stacked channel matrix is rank deficient."""


def map_sinr_to_mcs(sinr_db: float, table=DEFAULT_MCS_TABLE) -> McsEntry | None:
    """Highest entry whose threshold is met (inclusive); None below MCS 0."""
    if not table:
        raise ConfigurationError("MCS table must not be empty")
    chosen = None
    for entry in table:
        if sinr_db >= entry.min_snr_db:
            chosen = entry
        else:
            break
    return chosen


Pairs = tuple[tuple[int, int], ...]


def sorted_pairs(pairs) -> Pairs:
    """Edge set as ``max_weight_matching`` returns it: (u, v), u < v, sorted."""
    return tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))


def matching_weight(graph: WeightedGraph, pairs) -> float:
    """Total weight of ``pairs``, edges of ``graph``, summed in sorted
    order; raises ``ValueError`` when two pairs share a vertex or a pair
    is not an edge."""
    weight_of = {(u, v): w for u, v, w in graph.edges}
    used: set[int] = set()
    total = 0.0
    for u, v in sorted_pairs(pairs):
        if u in used or v in used or u == v:
            raise ValueError(f"pair ({u}, {v}) reuses a vertex")
        if (u, v) not in weight_of:
            raise ValueError(f"pair ({u}, {v}) is not an edge")
        used.update((u, v))
        total += weight_of[u, v]
    return total


def networkx_matching(graph: WeightedGraph) -> Pairs:
    """Maximum-weight matching by networkx's blossom implementation.

    Vertices are added in order 0..V-1 and edges in sorted order, so each
    vertex lists its neighbours in ascending order, the search order that
    ``max_weight_matching`` keeps.
    """
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for u, v, w in sorted(graph.edges):
        g.add_edge(u, v, weight=w)
    return sorted_pairs(nx.max_weight_matching(g, maxcardinality=False))


def networkx_mates(n: int, edges) -> list[int]:
    """``networkx_matching`` in the form of ``blossom_mates``: the partner of
    each of the ``n`` vertices, -1 if single."""
    mate = [-1] * n
    for u, v in networkx_matching(WeightedGraph(n, tuple(edges))):
        mate[u], mate[v] = v, u
    return mate


def optimal_matchings(graph: WeightedGraph) -> list[Pairs]:
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
    return [sorted_pairs(pairs) for pairs in best]


def brute_force_matching(graph: WeightedGraph) -> Pairs:
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


def lexicographic_refine(w: np.ndarray, match_row: np.ndarray,
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


def numpy_solve_assignment(w: np.ndarray):
    """The labeling solver of ``hungarian`` on numpy rows: the same
    operations in the same order as ``matching._solve_assignment``, so
    ``(match_row, u, v)`` come out bit for bit the same."""
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


def matchability_hungarian(w) -> tuple[tuple[int, ...], float]:
    """``hungarian`` by the matchability walk: the labeling solver, then
    ``lexicographic_refine``, which tries each tight column of each row
    with two Kuhn matchings."""
    values = np.asarray(w, dtype=np.float64)
    match_row, u, v = numpy_solve_assignment(values)
    assign = lexicographic_refine(values, match_row, u, v)
    benefit = 0.0
    for r in range(values.shape[0]):
        benefit += values[r, assign[r]]
    return tuple(int(c) for c in assign), float(benefit)


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


def _block_string(block, state, last, n):
    """Block index of each element for the blocks that reach ``state``
    followed by block ``last``; uncovered elements get the next index."""
    chain = [last]
    while state:
        chain.append(block[state])
        state -= block[state]
    chain.reverse()
    rgs = [len(chain)] * n
    for index, b in enumerate(chain):
        for i in range(n):
            if b >> i & 1:
                rgs[i] = index
    return rgs


def loop_best_partition(rates, n: int, max_block: int):
    """``grouping.search_best_partition`` as one Python loop over the
    states in ascending mask order, with its result and tie rule.

    Each reached state T offers every block B that holds the lowest
    element outside T; ``T | B`` keeps the larger score and, on an exact
    tie, the candidate whose block-index string comes first, compared
    as Python lists built by ``_block_string``.
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


def _subcarrier_grams(channels, members):
    """The group's Gram matrix G on each subcarrier, the antennas summed in
    index order, as the library's user Gram sums them."""
    k = len(members)
    for s in range(channels.num_subcarriers):
        h = channels.entries[members, :, s]
        gram = np.zeros((k, k), dtype=np.complex128)
        for t in range(channels.num_tx_antennas):
            gram += h[:, t, None] * np.conj(h[None, :, t])
        yield gram


def _subcarrier_rate(sinr, cfg) -> float:
    """Rate of one subcarrier from its members' SINRs: the Shannon sum, or
    each SINR mapped one user at a time through ``map_sinr_to_mcs`` and
    ``phy_rate``."""
    sinr = np.asarray(sinr)
    if cfg.rate_mode is RateMode.SHANNON:
        return cfg.bandwidth_hz * float(np.log2(1.0 + sinr).sum())
    total = 0.0
    for value in sinr:
        entry = map_sinr_to_mcs(10.0 * math.log10(value) if value > 0 else -math.inf,
                                cfg.mcs_table)
        if entry is not None:
            total += phy_rate(entry, cfg)
    return total


def ldl_inverse_diagonal(re, im) -> list:
    """Diagonal of A^-1 for one Hermitian k x k matrix A, given as nested
    lists of real and imaginary parts, by Gaussian elimination without
    pivoting on [A | I]: [A^-1]_mm = sum_{j >= m} |(L^-1)_jm|^2 / D_j,
    with D the pivots and L^-1 the right half once the elimination ends.

    Works in the entries' own number type: in Python floats it is the
    library's arithmetic, in ``fractions.Fraction`` it is exact.
    """
    k = len(re)
    one, zero = type(re[0][0])(1), type(re[0][0])(0)
    a_re = [list(row) + [one if c == i else zero for c in range(k)]
            for i, row in enumerate(re)]
    a_im = [list(row) + [zero] * k for row in im]
    for j in range(k - 1):
        d = a_re[j][j]
        for i in range(j + 1, k):
            l_re = a_re[i][j] / d
            l_im = a_im[i][j] / d
            for c in range(j + 1, k + j + 1):
                r_re, r_im = a_re[j][c], a_im[j][c]
                a_re[i][c] = a_re[i][c] - (l_re * r_re - l_im * r_im)
                a_im[i][c] = a_im[i][c] - (l_re * r_im + l_im * r_re)
    inv_diag = []
    for m in range(k):
        total = zero
        for j in range(m, k):
            x_re, x_im = a_re[j][k + m], a_im[j][k + m]
            total += (x_re * x_re + x_im * x_im) / a_re[j][j]
        inv_diag.append(total)
    return inv_diag


def closed_form_rate(channels, group, cfg) -> float:
    """The library's closed-form rate of one group, computed one
    subcarrier at a time in Python floats; 0 when the group is rank
    deficient on any subcarrier.

    On each subcarrier G counts as rank deficient when one SVD gives a
    condition number above ``COND_LIMIT``; otherwise member m has SINR
    p tr(G) / (N0 [A^-1]_mm), A = G / tr G, with [A^-1]_mm from
    ``ldl_inverse_diagonal``.  The arithmetic is the library's, operation
    for operation, so the values must match it bit for bit.
    """
    members = sorted(group)
    k = len(members)
    p = cfg.total_power / k
    rates = []
    for gram in _subcarrier_grams(channels, members):
        if np.linalg.cond(gram) > COND_LIMIT:
            return 0.0
        tr = 0.0
        for m in range(k):
            tr += float(gram[m, m].real)
        re = [[float(gram[i, c].real) / tr for c in range(k)] for i in range(k)]
        im = [[float(gram[i, c].imag) / tr for c in range(k)] for i in range(k)]
        sinr = [(p * tr) / (cfg.noise_power * v) for v in ldl_inverse_diagonal(re, im)]
        rates.append(_subcarrier_rate(sinr, cfg))
    return float(np.mean(rates))


# The rate kernel as it stood before its calls were merged: one numpy call
# per elementwise step, pivots and a zero trace replaced by 1 before they
# divide, and the member sums written out.  Bodies verbatim, names
# prefixed; the library's ``_batch_rates`` must match its bits.


def stepwise_batch_rates(gram: np.ndarray, groups: list[tuple[int, ...]],
                         cfg: PhyConfig) -> np.ndarray:
    """Rates of same-size groups, averaged over subcarriers; 0 for a group
    that is rank deficient on any subcarrier.  ``_zf_sinr`` takes them in
    chunks of at most ``_MAX_BATCH_ROWS`` rows (whole groups, at least one
    per chunk)."""
    mcs = cfg.mcs_rates
    step = max(1, _MAX_BATCH_ROWS // gram.shape[2])
    rates = []
    for i in range(0, len(groups), step):
        chunk = groups[i:i + step]
        sinr, ok = stepwise_zf_sinr(gram, chunk, cfg)
        if mcs is None:
            per_sc = cfg.bandwidth_hz * np.log2(1.0 + sinr).sum(axis=1)
        else:
            # summed user by user in order, like a scalar loop over the users
            per_sc = np.add.accumulate(mcs(sinr), axis=1)[:, -1]
        # the sum and divide of mean(axis=1), without its Python wrapper
        chunk_rates = per_sc.reshape(len(chunk), -1).sum(axis=1) / gram.shape[2]
        chunk_rates[~ok.reshape(len(chunk), -1).all(axis=1)] = 0.0
        rates.append(chunk_rates)
    return np.concatenate(rates)


def stepwise_zf_sinr(gram: np.ndarray, groups: list[tuple[int, ...]], cfg: PhyConfig):
    """Zero-forcing SINR of same-size groups on every subcarrier at once.

    Returns ``(sinr, ok)`` with one row per (group, subcarrier), group
    major: ``sinr`` (n*sc, k) holds p tr(G) / (N0 [(G / tr G)^-1]_mm) for
    member m, with G the group's k x k Gram matrix gathered from ``gram``
    (``_user_gram``), and ``ok`` (n*sc,) marks rows whose G has condition
    number at most ``_COND_LIMIT``, the only rows whose SINR means anything.

    ``_ldl_inv_diag`` factors every A = G / tr G.  For positive-definite
    G, cond(G) <= tr(G)^k / det G = 1 / det A (lambda_max <= tr G and
    lambda_min >= det G / tr(G)^(k-1)), so a row with det A >= 1 /
    ``_CERT_LIMIT`` has cond at most 1e10, 100x below the limit, which
    rounding cannot bridge: it is ok without an SVD.  The rest get the
    exact rule, one SVD each, so ``ok`` is that rule's mask.  The rows it
    clears keep the values of the one elimination, whose pivots are at
    least lambda_min(A) >= 1 / (k ``_COND_LIMIT``) > 0 there.
    """
    n, k = len(groups), len(groups[0])
    idx = np.fromiter(chain.from_iterable(groups), np.intp, n * k).reshape(n, k).T
    g = gram[idx[:, None, :], idx[None, :, :]].reshape(k, k, -1)  # (k, k, n*sc)
    tr = sum(g[m, m].real for m in range(k))
    scale = np.where(tr > 0, tr, 1.0)
    inv_diag, ok = stepwise_ldl_inv_diag(g, scale)
    if not ok.all():
        rest = np.flatnonzero(~ok)
        ok[rest] = np.linalg.cond(np.moveaxis(g[:, :, rest], 2, 0)) <= _COND_LIMIT
        inv_diag[~ok] = 1.0  # may have overflowed; the rate is 0 anyway
    p = cfg.total_power / k
    return (p * tr[:, None]) / (cfg.noise_power * inv_diag), ok


@np.errstate(over="ignore")
def stepwise_ldl_inv_diag(g: np.ndarray, scale: np.ndarray):
    """Diagonal of A^-1 for A = g / scale, g (k, k, rows) Hermitian.

    Gaussian elimination without pivoting on [A | I] leaves D L^H on the
    left and L^-1 on the right (Golub and Van Loan, 4.1), so [A^-1]_mm =
    sum_{j >= m} |(L^-1)_jm|^2 / D_j.  Returns ``inv_diag`` (rows, k) and
    ``cert`` (rows,), true where the pivots are all positive and multiply
    to det A >= 1 / ``_CERT_LIMIT``; a pivot that is not positive is
    replaced by 1.  The rows ``_zf_sinr`` keeps have pivots of at least
    1 / (k ``_COND_LIMIT``), so only a discarded row can overflow (from a
    subnormal pivot), and overflow is not reported.  Parts are divided as
    reals (a complex divide takes 1/scale first, which overflows for a
    subnormal trace); each numpy call applies one real operation to all
    rows alike.
    """
    k, rows = g.shape[0], g.shape[2]
    a = np.zeros((2, k, 2 * k, rows))  # real and imaginary parts of [A | I]
    np.divide(g.real, scale, out=a[0, :, :k])
    np.divide(g.imag, scale, out=a[1, :, :k])
    a[0].reshape(2 * k * k, rows)[k::2 * k + 1] = 1.0  # the diagonal of I
    work = np.empty(max(4 * (k - 1), 2 * k) * k * rows)
    for j in range(k - 1):
        # rows i > j: row i -= (a_ij / d) row j, on the k columns where row
        # j is not yet zero; p[x, y] = l_x r_y over re/im parts x and y
        n, cols = k - j - 1, slice(j + 1, k + j + 1)
        d = np.where(a[0, j, j] > 0.0, a[0, j, j], 1.0)
        l, r = a[:, j + 1:, j] / d, a[:, j, cols]
        p = np.multiply(l[:, None, :, None], r[None, :, None],
                        out=work[:4 * n * k * rows].reshape(2, 2, n, k, rows))
        np.subtract(p[0, 0], p[1, 1], out=p[0, 0])
        np.add(p[0, 1], p[1, 0], out=p[0, 1])
        a[:, j + 1:, cols] -= p[0]
    # the pivots stay on the diagonal: later steps change later rows only
    raw = a[0].reshape(2 * k * k, rows)[::2 * k + 1]
    pivots = np.where(raw > 0.0, raw, 1.0)
    cert = np.where(raw > 0.0, raw, 0.0).prod(axis=0) >= 1 / _CERT_LIMIT
    # t[j, m] = |(L^-1)_jm|^2 / D_j, exactly 0 for j < m
    sq = np.square(a[:, :, k:], out=work[:2 * k * k * rows].reshape(2, k, k, rows))
    t = np.add(sq[0], sq[1], out=sq[0])
    t /= pivots[:, None]
    for j in range(1, k):
        t[0] += t[j]
    return np.ascontiguousarray(t[0].T), cert


def inverse_rate(channels, group, cfg) -> float:
    """``closed_form_rate`` with [A^-1]_mm taken from ``np.linalg.inv``,
    one LAPACK inverse per subcarrier: rounds differently from the
    library, so it agrees to a tolerance, not bit for bit."""
    members = sorted(group)
    k = len(members)
    p = cfg.total_power / k
    rates = []
    for gram in _subcarrier_grams(channels, members):
        if np.linalg.cond(gram) > COND_LIMIT:
            return 0.0
        tr = 0.0
        for m in range(k):
            tr += gram[m, m].real
        unit = (gram.view(np.float64) / tr).view(np.complex128)
        sinr = (p * tr) / (cfg.noise_power * np.diag(np.linalg.inv(unit)).real)
        rates.append(_subcarrier_rate(sinr, cfg))
    return float(np.mean(rates))


@dataclass(frozen=True)
class SteeringMatrix:
    """Unit-norm steering columns for one group, per subcarrier.

    ``columns`` has shape (num_subcarriers, num_tx_antennas, group size);
    column m serves ``group[m]``.
    """

    group: tuple[int, ...]
    columns: np.ndarray
    per_subcarrier: bool


def zf_batch(channels, groups):
    """Zero-forcing steering for same-size groups on every subcarrier.

    Returns ``(h, w, ok)`` with one row per (group, subcarrier), group
    major: ``h`` (n*sc, k, Nt) holds the stacked channels, ``w``
    (n*sc, Nt, k) the steering H^H (H H^H)^-1 with unit-norm columns, and
    ``ok`` (n*sc,) marks rows whose H H^H has a 2-norm condition number
    of at most ``COND_LIMIT`` by one SVD.  Rows that are not ok mean
    nothing; a zero column there is divided 0/0 without a warning.
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


def zf_rates(h, w, ok, num_groups: int, cfg):
    """Group rates from ``zf_batch`` output, averaged over subcarriers; 0
    for a group that is rank deficient on any subcarrier.  The
    interference sum is evaluated in full, though zero forcing drives it
    to numerical zero."""
    k = h.shape[1]
    gains = np.abs(h @ w) ** 2  # (n*sc, k, k): |h_m w_i|^2
    p = cfg.total_power / k
    signal = np.diagonal(gains, axis1=1, axis2=2)
    interference = gains.sum(axis=2) - signal
    sinr = (p * signal) / (cfg.noise_power + p * interference)
    if cfg.rate_mode is RateMode.SHANNON:
        per_sc = cfg.bandwidth_hz * np.log2(1.0 + sinr).sum(axis=1)
    else:
        per_sc = np.add.accumulate(_mcs_rates(cfg)(sinr), axis=1)[:, -1]
    rates = per_sc.reshape(num_groups, -1).mean(axis=1)
    rates[~ok.reshape(num_groups, -1).all(axis=1)] = 0.0
    return rates


def _zf_group(channels, group):
    """``zf_batch`` for one validated group; raises SingularChannelError
    if it is rank deficient on any subcarrier."""
    members = canonical_group(group)
    if len(members) > channels.num_tx_antennas:
        raise ValueError(
            f"group size {len(members)} exceeds {channels.num_tx_antennas} transmit antennas"
        )
    for u in members:
        if not 0 <= u < channels.num_users:
            raise ValueError(f"user index {u} out of range")
    h, w, ok = zf_batch(channels, [members])
    if not ok.all():
        raise SingularChannelError(
            f"rank-deficient channel for group {members} on subcarrier {int(np.argmin(ok))}"
        )
    return members, h, w, ok


def zf_steering(channels, group) -> SteeringMatrix:
    """Channel-inversion steering W = H^H (H H^H)^-1, columns renormalized.

    For a singleton this reduces to the matched direction h^H/||h||.
    Raises SingularChannelError if the stacked group channel is rank
    deficient on any subcarrier.
    """
    members, _, w, _ = _zf_group(channels, group)
    return SteeringMatrix(members, w, per_subcarrier=channels.num_subcarriers > 1)


def group_rate(channels, group, cfg) -> float:
    """Estimated group capacity in bits/s from the steering vectors,
    averaged over subcarriers.  Raises SingularChannelError for a
    rank-deficient group."""
    _, h, w, ok = _zf_group(channels, group)
    return float(zf_rates(h, w, ok, 1, cfg)[0])


def loop_correlation_matrix(channels) -> np.ndarray:
    """``correlation_matrix`` as it stood before it formed only the pairs
    i <= j: every (i, j) of every subcarrier, one antenna at a time from
    zeros, which the library must match bit for bit.  Where the product of
    two squared norms is not a normal float, the norms' product is the
    product of their roots, the library's rule at extreme scales."""
    h = channels.entries  # (M, Nt, SC)
    n, sc = channels.num_users, channels.num_subcarriers
    re = np.zeros((n, n, sc))
    im = np.zeros((n, n, sc))
    for a in range(channels.num_tx_antennas):
        x = h[:, a].real
        y = h[:, a].imag
        re += x[:, None] * x[None] + y[:, None] * y[None]
        im += x[:, None] * y[None] - y[:, None] * x[None]
    power = np.diagonal(re).T  # (n, SC): squared norms
    with np.errstate(over="ignore"):
        prod = power[:, None] * power[None]
    root = np.sqrt(power)
    normal = (np.finfo(np.float64).tiny <= prod) & (prod < math.inf)
    denom = np.where(normal, np.sqrt(prod), root[:, None] * root[None])
    vals = np.divide(np.hypot(re, im), denom, out=np.zeros_like(re), where=denom > 0.0)
    return np.minimum(vals.mean(axis=2), 1.0)


# SUS as it stood before its selection moved to Python lists: one numpy
# call per selection step and per elementwise Gram-Schmidt step, and each
# alpha scored by ``objective``.  Bodies verbatim, names prefixed; the
# library's ``_Residuals`` and ``sus_grouping`` must match its bits.


class StepwiseResiduals(dict):
    """Memo for one ``sus_grouping`` call, keyed by ordered member tuple:
    each user's channel residual outside the members' span (real and
    imaginary parts, (Nt, M, SC)), its squared norm per subcarrier and its
    score, the mean of the residual norms over subcarriers.  A tuple adds
    one Gram-Schmidt step to its parent: per subcarrier q = r_p / ||r_p||
    from the last member's residual (q = 0 where ||r_p|| <= ``_RANK_TOL``
    ||h_p||) and r <- r - q (q^H r) for every user.  Real arithmetic and
    antenna sums in index order keep a user's values independent of the
    other users."""

    def __init__(self, h: np.ndarray):
        hr, hi = h.real.transpose(1, 0, 2), h.imag.transpose(1, 0, 2)
        super().__init__({(): (hr, hi, sum(hr * hr + hi * hi), None)})

    def __missing__(self, members: tuple[int, ...]):
        rr, ri, sq, _ = self[members[:-1]]
        p = members[-1]
        norm = np.sqrt(sq[p])
        spans = norm > _RANK_TOL * np.sqrt(self[()][2][p])
        qr, qi = (np.divide(x[:, p], norm, out=np.zeros(x[:, p].shape), where=spans)[:, None]
                  for x in (rr, ri))
        cr, ci = sum(qr * rr + qi * ri), sum(qr * ri - qi * rr)  # q^H r, (M, SC)
        rr, ri = rr - (qr * cr - qi * ci), ri - (qr * ci + qi * cr)
        sq = sum(rr * rr + ri * ri)
        self[members] = entry = (rr, ri, sq, np.sqrt(sq).mean(axis=1))
        return entry


def stepwise_sus_single_alpha(num_users: int, max_size: int, alpha: float, norms: np.ndarray,
                      correlation: np.ndarray, residuals: StepwiseResiduals) -> list[tuple[int, ...]]:
    close = correlation > alpha
    free = np.ones(num_users, dtype=bool)
    groups = []
    while free.any():
        seed = int(np.argmax(np.where(free, norms, -1.0)))
        members = [seed]
        free[seed] = False
        qualified = free & ~close[seed]
        while len(members) < max_size:
            cands = np.flatnonzero(qualified)
            if not cands.size:
                break
            scores = residuals[tuple(members)][3][cands]
            pick = int(cands[np.argmax(scores)])
            members.append(pick)
            free[pick] = False
            qualified &= free & ~close[pick]
        groups.append(canonical_group(members))
    return groups


def stepwise_sus_grouping(oracle, params: SusParams = SusParams()) -> GroupingSolution:
    """Semi-orthogonal user selection over the oracle's channels.

    Groups are grown from the largest-norm remaining user; a candidate
    qualifies when its normalized correlation with every selected member
    is at most alpha, and the qualified user with the largest orthogonal
    component is added (the lowest index on a tie).  Each alpha of the
    sweep runs independently and the best objective wins (ties keep the
    earlier alpha).  Each call builds one ``loop_correlation_matrix``, the
    channel norms and one ``_Residuals`` cache (at most len(sweep) * M
    entries of M * Nt * SC values) shared by the sweep; each alpha
    thresholds the matrix once and each step reads its candidates' scores.
    A member adds no direction where its residual is at rounding level (``_RANK_TOL``).
    Every alpha is grouped before any is scored, so one bulk
    ``oracle.precompute`` over the union of their groups fills the memo
    for the whole sweep (one rate-kernel call per group size), and each
    ``objective`` then reads memo hits only.  ``canonical_group`` builds
    every group within the oracle's users and cap, so the fill checks none.
    """
    channels, num_users, max_size = oracle.channels, oracle.num_users, oracle.max_group_size
    norms = np.linalg.norm(channels.entries, axis=1).mean(axis=1)
    correlation = loop_correlation_matrix(channels)
    residuals = StepwiseResiduals(channels.entries)
    runs = [stepwise_sus_single_alpha(num_users, max_size, alpha, norms, correlation, residuals)
            for alpha in params.sweep]
    oracle.precompute([g for parts in runs for g in parts], checked=True)
    best_parts, best_value = None, -1.0
    for parts in runs:
        value = objective(parts, oracle)
        if value > best_value:
            best_parts, best_value = parts, value
    return GroupingSolution(best_parts, num_users, best_value)
