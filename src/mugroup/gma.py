"""Grouping solvers built on graph matching.

``optimal_mu2_su`` is exact when groups are capped at two users: pairing
decisions reduce to maximum-weight matching on a general graph whose
edge weights are the gain of pairing over serving both users alone.

``gma`` extends this to larger caps: after the optimal pairing pass, each
round sorts the working groups by weighted throughput, breaks the weakest
ones into singletons, matches groups against singletons with the
assignment solver, and accepts a merge only when it strictly beats
keeping the parts separate: (|g|+1) R(g+u) - |g| R(g) - R(u) > 0, read
from the assignment matrix and one bulk query of the parts' rates.
One round is needed for a cap of three, two for four, and so on.  Both
take M and the cap, which must be at least two, from the rate oracle.
"""

from __future__ import annotations

from bisect import bisect

from .grouping import Group, GroupingSolution
from .matching import blossom_mates, hungarian
# Unused here; kept because the benchmark trace wraps these by name.
from .grouping import objective  # noqa: F401
from .matching import max_weight_matching  # noqa: F401

__all__ = ["optimal_mu2_su", "gma"]


def optimal_mu2_su(oracle) -> GroupingSolution:
    """Exact optimum when only singletons and pairs are allowed.

    Pairing user i with j changes the objective by
    w(i, j) = 2 R({i,j}) - R({i}) - R({j}); a maximum-weight matching
    over the positive-gain edges therefore yields the optimal partition,
    with unmatched users served alone.

    An oracle capped at one user per group is refused before any query.
    """
    return GroupingSolution.scored(_pairing(oracle), oracle)


def _pairing(oracle) -> list[Group]:
    """The groups of ``optimal_mu2_su``, unscored, which ``gma`` refines, pairs before singles;
    pairs and gain edges are canonical by construction, so queried and matched unchecked."""
    if oracle.max_group_size < 2:
        raise ValueError(f"pairing needs a group cap of at least 2, got {oracle.max_group_size}")
    num_users = oracle.num_users
    singles = oracle.rates([(u,) for u in range(num_users)])
    pairs = [(i, j) for i in range(num_users) for j in range(i + 1, num_users)]
    edges = [(i, j, gain) for (i, j), pair_rate in zip(pairs, oracle.rates(pairs, checked=True))
             if (gain := 2.0 * pair_rate - singles[i] - singles[j]) > 0.0]
    mate = blossom_mates(num_users, edges)
    matched = [(u, m) for u, m in enumerate(mate) if u < m]
    return matched + [(u,) for u, m in enumerate(mate) if m < 0]


def _group_metric(g: Group, oracle) -> float:
    return len(g) * oracle.rate(g)


def _split_and_balance(groups: list[Group], oracle):
    """Sort, decompose the weakest groups, and balance |S1| with |S2|.

    Returns ``(committed, s1, s2)``: the groups kept out of this round,
    the groups open to a merge (each below the oracle's cap) and as
    many singletons.
    """
    committed = [g for g in groups if len(g) >= oracle.max_group_size]
    s1 = [g for g in groups if len(g) < oracle.max_group_size]
    # strongest first; ties broken by smallest member for reproducibility
    s1.sort(key=lambda g: (-_group_metric(g, oracle), g))
    s2: list[Group] = []
    while len(s1) > len(s2):
        weakest = s1.pop()
        s2.extend((u,) for u in weakest)
    s2.sort(key=lambda g: (-oracle.rate(g), g))
    while len(s1) != len(s2):
        # move the weakest singleton back; commit it outright if that
        # overshoots the balance
        u = s2.pop()
        s1.append(u)
        if len(s1) > len(s2):
            committed.append(u)
            s1.pop()
    return committed, s1, s2


def _merge_pass(groups: list[Group], oracle) -> list[Group]:
    committed, s1, s2 = _split_and_balance(groups, oracle)
    # |S1| = |S2|; S1 groups have room for one more, so sorted merges go in unchecked
    merged = [g[:(at := bisect(g, u[0]))] + u + g[at:] for g in s1 for u in s2]
    merged_rates = iter(oracle.rates(merged, checked=True))
    benefit = [[(len(g) + 1) * next(merged_rates) for _ in s2] for g in s1]
    # added in order: sum() compensates float sums from Python 3.12 on
    finite_total = 1.0
    for row in benefit:
        for x in row:
            finite_total += abs(x)
    # zero-rate merges (rank-deficient groups) get a sentinel so the
    # assignment never prefers them
    sentinel = -finite_total
    benefit = [[x if x > 0.0 else sentinel for x in row] for row in benefit]

    assign, _ = hungarian(benefit)
    parts = oracle.rates(s1 + s2)
    for i, j in enumerate(assign):
        g, u = s1[i], s2[j]
        x = benefit[i][j]  # (|g|+1) R(g+u), or the sentinel
        if x > sentinel and x - len(g) * parts[i] - parts[len(s1) + j] > 0.0:
            committed.append(merged[i * len(s2) + j])
        else:
            committed.extend((g, u))
    return committed


def gma(oracle) -> GroupingSolution:
    """Graph-matching grouping heuristic for groups up to the oracle's cap;
    equals ``optimal_mu2_su`` exactly at a cap of two and, like it,
    refuses a cap of one."""
    groups = _pairing(oracle)
    for _ in range(oracle.max_group_size - 2):  # one round per size above two
        groups = _merge_pass(groups, oracle)
    return GroupingSolution.scored(groups, oracle)
