"""Partitions of the user set, the weighted-rate objective, and full search.

A grouping decision is a partition of the stations {0..M-1} into groups
of size at most ``max_size``.  Its value is sum(|G| * R(G)) over groups,
which equals system throughput times M under air-time fair scheduling
with rotating primary users.  The hypergraph view maps each candidate
group to a weighted hyperedge; complete matchings of that hypergraph are
exactly the valid partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import SearchSpaceError
from .kernels import search_best_partition

__all__ = [
    "Group",
    "GroupingSolution",
    "Hypergraph",
    "PartitionViolation",
    "canonical_group",
    "canonical_partition",
    "validate_partition",
    "objective",
    "count_partitions",
    "enumerate_partitions",
    "exhaustive_search",
    "exhaustive_search_fits",
    "MAX_SEARCH_USERS",
    "build_hypergraph",
    "is_complete_matching",
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
class Hypergraph:
    """Vertices {0..num_vertices-1} plus weighted candidate-group hyperedges."""

    num_vertices: int
    hyperedges: tuple[tuple[Group, float], ...]

    def __post_init__(self):
        for members, weight in self.hyperedges:
            if not members:
                raise ValueError("hyperedges must be non-empty")
            if weight < 0 or not math.isfinite(weight):
                raise ValueError(f"hyperedge weight must be finite and >= 0, got {weight}")
            if min(members) < 0 or max(members) >= self.num_vertices:
                raise ValueError(f"hyperedge {members} out of vertex range")


@dataclass(frozen=True)
class PartitionViolation:
    """Why a list of groups fails to be a valid capped partition."""

    duplicated: tuple[int, ...] = ()
    missing: tuple[int, ...] = ()
    oversize: tuple[Group, ...] = ()

    def __str__(self):
        parts = []
        if self.duplicated:
            parts.append(f"duplicated users {list(self.duplicated)}")
        if self.missing:
            parts.append(f"missing users {list(self.missing)}")
        if self.oversize:
            parts.append(f"oversize groups {list(self.oversize)}")
        return "; ".join(parts) or "ok"


def validate_partition(groups, num_users: int, max_size: int) -> PartitionViolation | None:
    """None when groups partition {0..num_users-1} with sizes <= max_size,
    else a report naming duplicated/missing users and oversize groups."""
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
    stray = [u for u in seen if not 0 <= u < num_users]
    if duplicated or missing or oversize or stray:
        return PartitionViolation(
            duplicated=tuple(sorted(set(duplicated + stray))),
            missing=tuple(missing),
            oversize=tuple(oversize),
        )
    return None


def objective(groups, oracle) -> float:
    """sum(|G| * rate(G)) over the groups, summed in canonical order."""
    parts = canonical_partition(groups)
    num_users = sum(len(g) for g in parts)
    report = validate_partition(parts, num_users, num_users)
    if report is not None:
        raise ValueError(f"invalid partition: {report}")
    total = 0.0
    for g in parts:
        total += len(g) * oracle.rate(g)
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


def enumerate_partitions(num_users: int, max_size: int) -> Iterator[tuple[Group, ...]]:
    """Yield every capped partition exactly once, in canonical order.

    Blocks are listed by least element with members ascending; the stream
    is lexicographic in the restricted-growth encoding.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[tuple[Group, ...]]:
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


def build_hypergraph(num_users: int, max_size: int, oracle) -> Hypergraph:
    """One hyperedge per non-empty subset of size <= max_size, weighted by
    the oracle rate.  Edges are ordered by size then lexicographically."""
    edges = []
    for size in range(1, max_size + 1):
        for subset in combinations(range(num_users), size):
            edges.append((subset, oracle.rate(subset)))
    return Hypergraph(num_users, tuple(edges))


def is_complete_matching(h: Hypergraph, selected: Iterable[int]) -> bool:
    """True when the selected hyperedges are pairwise disjoint and cover
    every vertex, i.e. they form a valid partition."""
    indices = list(selected)
    covered: set[int] = set()
    total = 0
    for idx in indices:
        members, _ = h.hyperedges[idx]
        total += len(members)
        covered.update(members)
    if len(covered) != total:  # some vertex appears twice
        return False
    return covered == set(range(h.num_vertices))


def _rates_by_mask(num_users: int, max_size: int, oracle):
    """The 2**M table of subset rates by member bitmask, 0 above max_size,
    filled from one bulk query."""
    import numpy as np

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


def exhaustive_search_fits(num_users: int, max_size: int) -> bool:
    """Whether ``exhaustive_search`` takes this size: any M when every
    group is a single user, else at most ``MAX_SEARCH_USERS`` users."""
    return max_size == 1 or num_users <= MAX_SEARCH_USERS


def exhaustive_search(num_users: int, max_size: int, oracle) -> GroupingSolution:
    """Optimal partition by the subset DP of ``kernels.search_best_partition``.

    Ties keep the first partition in canonical order (``kernels`` names
    the one exception, under rounding).  With ``max_size >= 2`` it
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
            f"kernel visited {count} partitions, recurrence predicts {expected}"
        )
    nblocks = int(assign.max()) + 1
    blocks: list[list[int]] = [[] for _ in range(nblocks)]
    for u in range(num_users):
        blocks[int(assign[u])].append(u)
    groups = canonical_partition(blocks)
    return GroupingSolution(groups, num_users, objective(groups, oracle))
