"""Partitions of the user set, the weighted-rate objective, and full search.

A grouping decision is a partition of the stations {0..M-1} into groups
of size at most ``max_size``.  Its value is sum(|G| * R(G)) over groups,
which equals system throughput times M under air-time fair scheduling
with rotating primary users.  In the hypergraph view each candidate
group is a hyperedge weighted by its rate, and the valid partitions are
the complete matchings of that hypergraph.  Full search stores the
hypergraph as the 2**M table of ``_rates_by_mask`` (one weight per member
bitmask) and finds the best complete matching with the subset DP of
``search_best_partition``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import SearchSpaceError

__all__ = [
    "Group",
    "GroupingSolution",
    "PartitionViolation",
    "canonical_group",
    "canonical_partition",
    "validate_partition",
    "objective",
    "count_partitions",
    "search_best_partition",
    "exhaustive_search",
    "exhaustive_search_fits",
    "MAX_SEARCH_USERS",
    "active_backend",
]

Group = tuple[int, ...]

# Full search with groups of two or more holds 2**M rates and DP states.
MAX_SEARCH_USERS = 16


def canonical_group(members: Iterable[int]) -> Group:
    """Sorted tuple of distinct member indices."""
    g = tuple(sorted(members))
    if not g:
        raise ValueError("group must be non-empty")
    if len(set(g)) != len(g):
        raise ValueError(f"group members must be distinct, got {members}")
    return g


def canonical_partition(groups: Iterable[Iterable[int]]) -> tuple[Group, ...]:
    """Canonical form: members sorted within groups, groups by least member."""
    return tuple(sorted((canonical_group(g) for g in groups), key=lambda g: g[0]))


@dataclass(frozen=True)
class GroupingSolution:
    """A complete partition with its cached objective value."""

    groups: tuple[Group, ...]
    num_users: int
    objective_value: float | None = None

    def __post_init__(self):
        report = validate_partition(self.groups, self.num_users, self.num_users)
        if report is not None:
            raise ValueError(f"invalid partition: {report}")
        object.__setattr__(self, "groups", canonical_partition(self.groups))


@dataclass(frozen=True)
class PartitionViolation:
    """Why a list of groups fails to be a valid capped partition."""

    duplicated: tuple[int, ...] = ()
    missing: tuple[int, ...] = ()
    oversize: tuple[Group, ...] = ()
    out_of_range: tuple[int, ...] = ()

    def __str__(self):
        parts = []
        if self.duplicated:
            parts.append(f"duplicated users {list(self.duplicated)}")
        if self.missing:
            parts.append(f"missing users {list(self.missing)}")
        if self.oversize:
            parts.append(f"oversize groups {list(self.oversize)}")
        if self.out_of_range:
            parts.append(f"out-of-range users {list(self.out_of_range)}")
        return "; ".join(parts) or "ok"


def validate_partition(groups, num_users: int, max_size: int) -> PartitionViolation | None:
    """None when groups partition {0..num_users-1} with sizes <= max_size,
    else a report naming duplicated, missing and out-of-range users and
    oversize groups."""
    seen: set[int] = set()
    duplicated: list[int] = []
    oversize: list[Group] = []
    for g in groups:
        members = tuple(g)
        if len(members) > max_size:
            oversize.append(tuple(sorted(members)))
        for u in members:
            if u in seen:
                duplicated.append(u)
            seen.add(u)
    missing = [u for u in range(num_users) if u not in seen]
    stray = sorted(u for u in seen if not 0 <= u < num_users)
    if duplicated or missing or oversize or stray:
        return PartitionViolation(
            duplicated=tuple(sorted(set(duplicated))),
            missing=tuple(missing),
            oversize=tuple(oversize),
            out_of_range=tuple(stray),
        )
    return None


def objective(groups, oracle) -> float:
    """sum(|G| * rate(G)) over the groups, summed in canonical order.

    The rates come from one bulk ``oracle.rates`` query of all groups.
    """
    parts = canonical_partition(groups)
    num_users = sum(len(g) for g in parts)
    report = validate_partition(parts, num_users, num_users)
    if report is not None:
        raise ValueError(f"invalid partition: {report}")
    total = 0.0
    for g, rate in zip(parts, oracle.rates(parts)):
        total += len(g) * rate
    return total


def count_partitions(num_users: int, max_size: int) -> int:
    """Number of partitions of a num_users-set with blocks of size <= max_size.

    Recurrence on the block containing the last element:
    a(n) = sum_{j=1..max_size} C(n-1, j-1) * a(n-j).
    """
    if num_users < 0:
        raise ValueError("num_users must be >= 0")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    a = [1] * (num_users + 1)
    for n in range(1, num_users + 1):
        a[n] = sum(
            math.comb(n - 1, j - 1) * a[n - j] for j in range(1, min(max_size, n) + 1)
        )
    return a[num_users]


def _rates_by_mask(num_users: int, max_size: int, oracle):
    """The 2**M table of subset rates by member bitmask, 0 above max_size,
    filled from one bulk query."""
    subsets = [
        subset
        for size in range(1, max_size + 1)
        for subset in combinations(range(num_users), size)
    ]
    rates = np.zeros(2 ** num_users, dtype=np.float64)
    for subset, rate in zip(subsets, oracle.rates(subsets)):
        mask = 0
        for u in subset:
            mask |= 1 << u
        rates[mask] = rate
    return rates


def active_backend() -> str:
    """Name of the search implementation; always 'python'."""
    return "python"


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


def search_best_partition(rates: np.ndarray, n: int, max_block: int):
    """Best partition of {0..n-1} into blocks of at most ``max_block``
    members under the bitmask rate table ``rates``.

    Returns (partition_count, best_score, block_index_per_element).
    ``rates`` must have length 2**n with entries for every non-empty
    subset of size <= max_block.

    A partition scores sum(|B| * rates[bitmask(B)]), added left to right
    over its blocks in least-element order.  The search is the forward
    set-partition DP over bitmasks (Björklund, Husfeldt and Koivisto,
    SIAM J. Comput. 2009): a state is the set T of elements covered so
    far, states are visited in ascending mask order, and the next block B
    holds the lowest element outside T, so each partition is built
    exactly once.  ``best[T | B] = best[T] + |B| * rates[B]`` adds in the
    order of the score and float addition is monotone, so the result is
    the largest score as a float; ``count[T | B] += count[T]`` counts the
    partitions.

    On an exact tie at a state the candidate whose block-index string
    (restricted-growth string, uncovered elements given the next index)
    comes first is kept.  That order does not depend on how the state is
    completed, so with exact sums (integer rates, say) the result is the
    first optimal partition in canonical order.  Where rounding hides a
    difference between two prefix sums, an optimum later in that order
    may be returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_block < 1:
        raise ValueError("max_block must be >= 1")
    if len(rates) != 2 ** n:
        raise ValueError(f"rates must have length 2**{n}, got {len(rates)}")
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


def exhaustive_search_fits(num_users: int, max_size: int) -> bool:
    """Whether ``exhaustive_search`` takes this size: any M when every
    group is a single user, else at most ``MAX_SEARCH_USERS`` users."""
    return max_size == 1 or num_users <= MAX_SEARCH_USERS


def exhaustive_search(num_users: int, max_size: int, oracle) -> GroupingSolution:
    """Optimal partition by the subset DP of ``search_best_partition``.

    Ties keep the first partition in canonical order (that docstring
    names the one exception, under rounding).  With ``max_size >= 2`` it
    refuses more than ``MAX_SEARCH_USERS`` (16) users before making any
    rate query; use the heuristics for larger networks.  With
    ``max_size == 1`` every user is served alone, at any M.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if not exhaustive_search_fits(num_users, max_size):
        raise SearchSpaceError(
            f"full search over M={num_users} users with max_size={max_size} "
            f"exceeds the limit of {MAX_SEARCH_USERS} users; use gma or another heuristic"
        )
    if max_size == 1:
        groups = tuple((u,) for u in range(num_users))
        return GroupingSolution(groups, num_users, objective(groups, oracle))
    expected = count_partitions(num_users, max_size)
    rates = _rates_by_mask(num_users, max_size, oracle)
    count, _, assign = search_best_partition(rates, num_users, max_size)
    if count != expected:
        raise AssertionError(
            f"search visited {count} partitions, recurrence predicts {expected}"
        )
    nblocks = int(assign.max()) + 1
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for u in range(num_users):
        blocks[int(assign[u])].append(u)
    groups = canonical_partition(blocks)
    return GroupingSolution(groups, num_users, objective(groups, oracle))
