"""Exact matching and assignment solvers.

``max_weight_matching`` solves maximum-weight matching on general weighted
graphs that ``WeightedGraph`` validates, by Edmonds' blossom algorithm in its
core, ``blossom_mates``, which ``gma``'s pairing calls on its own edges.
``hungarian`` solves the square assignment problem by maximization
with an O(n^3) labeling algorithm; its contract pins the tie-break, the
lexicographically smallest optimum, which alternating cycles over the
dual-tight edges reach from the solver's own optimum."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from operator import index

__all__ = ["WeightedGraph", "max_weight_matching", "blossom_mates", "hungarian"]


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph, integer vertex ids, finite (possibly negative) weights."""

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if not isinstance(self.num_vertices, Integral) or self.num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0 and integral, got {self.num_vertices!r}")
        seen = set()
        norm = []
        for u, v, w in self.edges:
            try:
                key = (index(u), index(v)) if u < v else (index(v), index(u))
            except TypeError:
                raise ValueError(f"edge ({u}, {v}) has a non-integer vertex id") from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= key[0] and key[1] < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if not math.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
            if key in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            norm.append((*key, float(w)))
        object.__setattr__(self, "edges", tuple(norm))


def max_weight_matching(graph: WeightedGraph) -> tuple[tuple[int, int], ...]:
    """Maximum-weight matching as its pairs (u, v), u < v, sorted; not
    necessarily perfect, so edges that do not pay for themselves are left
    out.

    Edmonds' blossom algorithm with the primal-dual method (Edmonds,
    Canad. J. Math. 1965; Galil, ACM Computing Surveys 1986), in O(V^3)
    time and O(V + E) memory.  Among tied optima it returns the pairs of
    van Rantwijk's implementation, the reference the tests pin it to: the
    search keeps that order (vertices 0..V-1, neighbours ascending, a
    last-in first-out queue, strict ``<`` on every least-slack and delta
    comparison), whatever order ``graph.edges`` comes in.
    """
    mate = blossom_mates(graph.num_vertices, sorted(graph.edges)) if graph.edges else ()
    return tuple((v, m) for v, m in enumerate(mate) if v < m)


def _round_from(j: int, size: int) -> tuple[int, int]:
    """Start index and step from child j to the base on the even side."""
    return (j - size, 1) if j & 1 else (j, -1)


def _child_edge(ed, j: int, jstep: int):
    """The edge from child j to the next child in direction jstep."""
    if jstep == 1:
        return ed[j]
    q, p, k = ed[j - 1]
    return p, q, k


def blossom_mates(n: int, edges) -> list[int]:
    """Partner of each vertex (-1 if single) in a maximum-weight matching on
    ``n`` vertices and ``edges``: sorted, nonempty, unchecked, as ``WeightedGraph`` keeps them.

    Ids 0..n-1 are vertices and n..2n-1 slots for nontrivial blossoms,
    so lists indexed by id have 2n entries; live blossoms sit in
    ``blossom_dual`` in creation order, the order the search scans them.
    Duals, slacks and deltas are doubled, as in Galil: edge (v, w, k),
    k its index, has slack dual[v] + dual[w] - 2 w_k.  Edges travel as
    such triples, oriented the way the search met them; neighbour lists
    carry 2 w_k beside k.  ``bslack[x]`` is the slack of ``bestedge[x]``
    under the current duals (inf where it is None): it is set wherever
    ``bestedge`` is, and recomputed for every edge in ``bestedge`` right
    after each dual move, by the same float expression, so the delta step
    reads the bits it would compute.
    """
    nbrs: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
    twice = [2 * w for _, _, w in edges]
    for k, (u, v, _) in enumerate(edges):
        nbrs[u].append((v, k, twice[k]))
        nbrs[v].append((u, k, twice[k]))
    dual = [max(0.0, max(w for _, _, w in edges))] * n
    mate, mate_edge = [-1] * n, [-1] * n
    # label of a top-level blossom: 0 free, 1 S, 2 T, 5 S with a breadcrumb;
    # a vertex inside a T-blossom has label 2 once reached from outside it
    label = [0] * (2 * n)
    labeledge: list = [None] * (2 * n)  # edge that gave the label, into it
    bestedge: list = [None] * (2 * n)   # least-slack edge to an S-blossom
    bslack = [math.inf] * (2 * n)       # slack of bestedge, inf where None
    inblossom = list(range(n))          # top-level blossom of each vertex
    parent = [-1] * (2 * n)
    base = list(range(n)) + [-1] * n
    childs: list = [None] * (2 * n)     # sub-blossoms round b from its base
    bedges: list = [None] * (2 * n)     # bedges[b][i] joins childs i and i+1
    mybest: list = [None] * (2 * n)     # least-slack edges to S-blossoms
    blossom_dual: dict[int, float] = {}
    free = list(range(2 * n - 1, n - 1, -1))
    allowed = [False] * len(edges)      # edge known to have zero slack
    queue: list[int] = []               # S-vertices still to scan

    def leaves(b):
        out, stack = [], list(childs[b])
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(w, t, e):
        # label w's top-level blossom S (t=1) or T (t=2), reached through e
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = e
        bestedge[w] = bestedge[b] = None
        bslack[w] = bslack[b] = math.inf
        if t == 1:
            queue.extend(leaves(b) if b >= n else (b,))
        else:
            bb = base[b]
            assign_label(mate[bb], 1, (bb, mate[bb], mate_edge[bb]))

    def scan_blossom(v, w):
        # trace back from v and w by turns: the base of a new blossom,
        # or -1 when the two paths end at distinct single vertices
        path, found = [], -1
        while v >= 0:
            b = inblossom[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            e = labeledge[b]  # None at a single vertex, else its matched edge
            v = -1 if e is None else labeledge[inblossom[e[0]]][0]
            if w >= 0:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(bs, e):
        # the S-blossoms on the cycle closed by e become one S-blossom
        v, w, _ = e
        bb, bv, bw = inblossom[bs], inblossom[v], inblossom[w]
        b = free.pop()
        base[b], parent[b], parent[bb] = bs, -1, b
        path, edgs = [], [e]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            bv = inblossom[labeledge[bv][0]]
        path = [bb] + path[::-1]
        edgs.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            p, q, k = labeledge[bw]
            edgs.append((q, p, k))
            bw = inblossom[p]
        childs[b], bedges[b] = path, edgs
        label[b], labeledge[b] = 1, labeledge[bb]
        blossom_dual[b] = 0.0
        for x in leaves(b):
            if label[inblossom[x]] == 2:
                queue.append(x)
            inblossom[x] = b
        best_to: dict[int, tuple] = {}
        for s in path:
            if s >= n and mybest[s] is not None:
                for f in mybest[s]:
                    bj = inblossom[f[1]] if inblossom[f[1]] != b else inblossom[f[0]]
                    if bj != b and label[bj] == 1:
                        d = dual[f[0]] + dual[f[1]] - twice[f[2]]
                        if bj not in best_to or d < best_to[bj][0]:
                            best_to[bj] = (d, f)
            else:
                for x in leaves(s) if s >= n else (s,):
                    dx = dual[x]
                    for y, k, w2 in nbrs[x]:
                        by = inblossom[y]
                        if by != b and label[by] == 1:
                            d = dx + dual[y] - w2
                            if by not in best_to or d < best_to[by][0]:
                                best_to[by] = (d, (x, y, k))
            bestedge[s], bslack[s], mybest[s] = None, math.inf, None
        mybest[b] = [f for _, f in best_to.values()]
        bslack[b], bestedge[b] = min(best_to.values(), key=lambda t: t[0],  # first of ties
                                     default=(math.inf, None))

    def expand_blossom(b, endstage):
        # make b's sub-blossoms top-level; at the end of a stage, those
        # with zero dual are expanded in turn
        stack = [b]
        while stack:
            b = stack.pop()
            for s in childs[b]:
                parent[s] = -1
                if s >= n and endstage and blossom_dual[s] == 0:
                    stack.append(s)
                else:
                    for x in leaves(s) if s >= n else (s,):
                        inblossom[x] = s
            if not endstage and label[b] == 2:
                relabel_expanded(b)
            label[b], labeledge[b], bestedge[b], bslack[b] = 0, None, None, math.inf
            del blossom_dual[b]
            free.append(b)

    def relabel_expanded(b):
        # relabel the sub-blossoms of an expanding T-blossom: T and S
        # alternately from the entry child to the base, then T wherever
        # a child is reachable from outside
        ch, ed = childs[b], bedges[b]
        entry = inblossom[labeledge[b][1]]
        j, jstep = _round_from(ch.index(entry), len(ch))
        v, w, k = labeledge[b]
        while j != 0:
            _, q, kq = _child_edge(ed, j, jstep)
            label[w] = label[q] = 0
            assign_label(w, 2, (v, w, k))
            allowed[kq] = True
            j += jstep
            v, w, k = _child_edge(ed, j, jstep)
            allowed[k] = True
            j += jstep
        bw = ch[j]
        label[w] = label[bw] = 2
        labeledge[w] = labeledge[bw] = (v, w, k)
        bestedge[bw], bslack[bw] = None, math.inf
        j += jstep
        while ch[j] != entry:
            bv = ch[j]
            j += jstep
            if label[bv] == 1:
                continue
            for x in leaves(bv) if bv >= n else (bv,):
                if label[x]:
                    break
            if label[x]:
                label[x] = label[mate[base[bv]]] = 0
                assign_label(x, 2, labeledge[x])

    def augment_blossom(b, v):
        # swap matched and unmatched edges on the path from v to the base
        # of b, making v the base; sub-blossoms are handled in any order,
        # as each one only rematches edges inside itself
        stack = [(b, v)]
        while stack:
            b, v = stack.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                stack.append((t, v))
            ch, ed = childs[b], bedges[b]
            i = ch.index(t)
            j, jstep = _round_from(i, len(ch))
            while j != 0:
                j += jstep
                w, x, k = _child_edge(ed, j, jstep)
                if ch[j] >= n:
                    stack.append((ch[j], w))
                j += jstep
                if ch[j] >= n:
                    stack.append((ch[j], x))
                mate[w], mate[x], mate_edge[w], mate_edge[x] = x, w, k, k
            childs[b], bedges[b] = ch[i:] + ch[:i], ed[i:] + ed[:i]
            base[b] = v

    def augment_matching(v, w, k):
        # flip the augmenting path through S-vertices v and w
        for s, j in ((v, w), (w, v)):
            ks = k
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s], mate_edge[s] = j, ks
                if labeledge[bs] is None:
                    break
                bt = inblossom[labeledge[bs][0]]
                s, j, ks = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j], mate_edge[j] = s, ks

    while True:  # a stage: grow alternating trees until one augmentation
        label[:] = [0] * (2 * n)
        labeledge[:] = bestedge[:] = mybest[:] = [None] * (2 * n)
        bslack[:] = [math.inf] * (2 * n)
        allowed[:] = [False] * len(edges)
        queue.clear()
        for v in range(n):  # assign_label(v, 1, None) on the free vertices
            if mate[v] < 0 and inblossom[v] == v:
                label[v] = 1
                queue.append(v)
            elif mate[v] < 0 and label[inblossom[v]] == 0:
                assign_label(v, 1, None)
        augmented = False
        while True:  # a substage: label from the queue, then move the duals
            while queue and not augmented:
                v = queue.pop()
                bv, dv = inblossom[v], dual[v]  # duals hold still in a scan
                for w, k, w2 in nbrs[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    lw = label[bw]
                    if allowed[k] or (k_slack := dv + dual[w] - w2) <= 0:
                        allowed[k] = True
                        if lw == 0:
                            assign_label(w, 2, (v, w, k))
                        elif lw == 1:
                            bs = scan_blossom(v, w)
                            if bs >= 0:
                                add_blossom(bs, (v, w, k))
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w, k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w], labeledge[w] = 2, (v, w, k)
                    elif lw == 1:  # least-slack edge from bv to another S-blossom
                        if k_slack < bslack[bv]:
                            bestedge[bv], bslack[bv] = (v, w, k), k_slack
                    elif label[w] == 0:  # or into the unreached vertex w
                        if k_slack < bslack[w]:
                            bestedge[w], bslack[w] = (v, w, k), k_slack
            if augmented:
                break
            # delta types: 1 a vertex dual hits zero (optimum), 2 an S-free
            # edge, 3 an S-S edge turns tight, 4 a T-blossom dual hits zero
            delta_type, delta, delta_edge, delta_blossom = 1, min(dual), None, -1
            for v in range(n):
                if bslack[v] < delta and label[inblossom[v]] == 0:
                    delta_type, delta, delta_edge = 2, bslack[v], bestedge[v]
            for b in chain(range(n), blossom_dual):
                if parent[b] < 0 and label[b] == 1 and bslack[b] / 2.0 < delta:
                    delta_type, delta, delta_edge = 3, bslack[b] / 2.0, bestedge[b]
            for b, z in blossom_dual.items():
                if parent[b] < 0 and label[b] == 2 and z < delta:
                    delta_type, delta, delta_blossom = 4, z, b
            shift = (0.0, -delta, delta)  # by label: free, S, T
            dual[:] = [d + shift[label[b]] for d, b in zip(dual, inblossom)]
            blossom_dual.update({b: z - shift[label[b]]
                                 for b, z in blossom_dual.items() if parent[b] < 0})
            if delta_type == 1:
                break
            bslack[:] = [math.inf if e is None else dual[e[0]] + dual[e[1]] - twice[e[2]]
                         for e in bestedge]
            if delta_type == 4:
                expand_blossom(delta_blossom, False)
            else:
                allowed[delta_edge[2]] = True
                queue.append(delta_edge[0])
        if not augmented:
            # these closures reach each other through their cells; unbound,
            # they and the lists they hold go without the cycle collector
            leaves = assign_label = relabel_expanded = augment_blossom = None
            return mate
        for b in list(blossom_dual):
            if b in blossom_dual and parent[b] < 0 and label[b] == 1 and blossom_dual[b] == 0:
                expand_blossom(b, True)


# ---------------------------------------------------------------------------
# Square assignment by maximization (Hungarian labeling method)
# ---------------------------------------------------------------------------


def _solve_assignment(w: list[list[float]]):
    """Optimal assignment of the square matrix ``w`` (a list of rows)
    plus a feasible dual certificate (u, v), all as lists.

    Maintains u[r] + v[c] >= w[r][c] with v >= 0 throughout; matched
    edges are tight and v[c] > 0 only on matched columns, so the returned
    labels witness optimality.  Plain Python on lists: GMA's matrices have
    n ~ M/3 rows (13 at M=40), where numpy calls on length-n rows cost
    more than their arithmetic.  Against the same algorithm on numpy rows
    it is 5x faster at n=13 and breaks even between n=100 and n=150
    (uniform random matrices, 2-vCPU Xeon, Python 3.11).
    """
    n = len(w)
    u = [max(row) for row in w]
    v = [0.0] * n
    match_row, match_col = [-1] * n, [-1] * n

    for root in range(n):
        tree_rows, tree_cols, open_cols = [root], [], list(range(n))
        ur, wr = u[root], w[root]
        slack = [ur + vc - wc for vc, wc in zip(v, wr)]
        slack_row = [root] * n
        while True:
            j = min(open_cols, key=slack.__getitem__)  # first of ties
            delta = slack[j]
            if delta > 0.0:
                for r in tree_rows:
                    u[r] -= delta
                for c in tree_cols:
                    v[c] += delta
                for c in open_cols:
                    slack[c] -= delta
            tree_cols.append(j)
            open_cols.remove(j)
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
            tree_rows.append(r)
            ur, wr = u[r], w[r]
            for c in open_cols:
                cand = ur + v[c] - wr[c]
                if cand < slack[c]:
                    slack[c], slack_row[c] = cand, r
    return match_row, u, v


def _alternating_chain(r: int, start: int, tight: list[list[int]],
                       owner: list[int], seen: list[bool]) -> list[int] | None:
    """Unseen rows after ``r``, from ``start`` on, each with a tight edge
    to the next one's column and the last to row r's; None if there is
    none.  Depth first; every row it reaches is marked in ``seen``."""
    seen[start] = True
    stack = [(start, iter(tight[start]))]
    while stack:
        for c in stack[-1][1]:
            row = owner[c]
            if row == r:
                return [x for x, _ in stack]
            if row > r and not seen[row]:
                seen[row] = True
                stack.append((row, iter(tight[row])))
                break
        else:
            stack.pop()
    return None


def _lexicographic_refine(tight: list[list[int]], assign: list[int]) -> list[int]:
    """Lexicographically smallest perfect matching on the ``tight`` edges
    (each row's columns ascending), rewritten in place from the perfect
    matching ``assign``.

    Two perfect matchings differ by alternating cycles (Berge, PNAS
    1957), so row r, rows before it fixed, can take the smallest tight
    column whose owner starts an alternating chain over later rows back
    to r's column; that cycle is rotated in.  Rows a failed search
    reached cannot reach r's column from another candidate either, so
    one ``seen`` list serves all of r's candidates: O(edges) per row.
    """
    n = len(assign)
    owner = [0] * n
    for r, c in enumerate(assign):
        owner[c] = r
    for r in range(n):
        seen = [False] * n
        for c in tight[r]:
            if c >= assign[r]:
                break
            start = owner[c]
            if start < r or seen[start]:
                continue
            chain = _alternating_chain(r, start, tight, owner, seen)
            if chain is not None:
                cols = [assign[x] for x in chain] + [assign[r]]
                for x, col in zip([r] + chain, cols):
                    assign[x], owner[col] = col, x
                break
    return assign


def _float_rows(w) -> tuple[list[list[float]], float]:
    """The rows of ``w`` as lists of floats, and the largest magnitude of
    an entry, in one pass over the rows; ``ValueError`` unless ``w`` is a
    square matrix of finite entries.  Nested sequences and numpy arrays
    alike."""
    if getattr(w, "ndim", 2) != 2:
        raise ValueError("weight matrix must be 2-D")
    n = len(w)
    rows, big = [], 0.0
    for row in w:
        try:
            row = list(map(float, row))
        except TypeError:
            raise ValueError("weight matrix must be 2-D") from None
        # NaN and infinity carry into the sum; a finite row can overflow it
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise ValueError("weight matrix entries must be finite")
        if len(row) != n:
            raise ValueError(f"weight matrix must be square, got {n} x {len(row)}")
        big = max(big, max(row), -min(row))
        rows.append(row)
    return rows, big


def hungarian(w) -> tuple[tuple[int, ...], float]:
    """Maximum-benefit assignment of the rows of a square matrix to
    distinct columns; a matrix that is not square raises ``ValueError``.

    Returns the row-to-column permutation and the total benefit; among
    optimal assignments the lexicographically smallest is returned.  GMA
    relies on that rule: MCS rates are quantized, so its merge benefits
    tie exactly, and the labeling solver's own pick among the optima would
    change its groups.  The optima are the perfect matchings on the edges
    the dual labels make tight, and ``_lexicographic_refine`` rotates the
    solver's optimum into the smallest of them.  It all runs on Python
    lists, which beats numpy rows up to n ~ 130, well above GMA's n ~ M/3
    (see ``_solve_assignment``).
    """
    w_rows, big = _float_rows(w)
    match_row, u, v = _solve_assignment(w_rows)
    tol = 1e-9 * max(1.0, big)
    tight = [[c for c, (vc, wc) in enumerate(zip(v, row)) if ur + vc - wc <= tol]
             for ur, row in zip(u, w_rows)]
    assign = _lexicographic_refine(tight, match_row)
    benefit = 0.0
    for r, row in enumerate(w_rows):
        benefit += row[assign[r]]
    return tuple(assign), benefit
