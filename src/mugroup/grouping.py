"""Partitions of the user set, the weighted-rate objective, and full search.

A grouping decision is a partition of the stations {0..M-1} into groups
of at most Nu members; the rate oracle holds M and Nu (``num_users`` and
``max_group_size``), so full search takes the oracle alone.  Its value
is sum(|G| * R(G)) over groups, which equals system throughput times M
under air-time fair scheduling with rotating primary users; solvers
return through ``GroupingSolution.scored``.  In the hypergraph view each
candidate group is a hyperedge weighted by its rate, and the valid
partitions are the complete matchings of that hypergraph.  Full search
stores the hypergraph as the 2**M table of ``_rates_by_mask`` (one
weight per member bitmask) and finds the best complete matching with the
subset DP of ``search_best_partition``, run in numpy layer by layer over
the states it reaches.  The DP's cells and the subsets depend on (M, Nu)
alone: the last such plan is kept while it fits one DP batch, read-only
and so shared safely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from operator import index
from typing import Iterable

import numpy as np

from .errors import SearchSpaceError

__all__ = [
    "Group",
    "GroupingSolution",
    "canonical_group",
    "canonical_partition",
    "validate_partition",
    "objective",
    "count_partitions",
    "search_best_partition",
    "exhaustive_search",
    "search_refusal",
    "MAX_SEARCH_USERS",
    "active_backend",
]

Group = tuple[int, ...]

# Full search with groups of two or more holds 2**M rates and DP states;
# its tie key spends 4 bits per user of an int64, which caps M at 16.
MAX_SEARCH_USERS = 16

# count_partitions makes at most M(M+1)/2 big-integer products, on numbers
# no longer than the Bell number B(M); at M=500 its worst case, max_size >= M,
# takes about 0.4 s (2-vCPU Xeon, Python 3.11) and B(500) has 844 digits,
# under Python's 4,300-digit limit on int-to-str conversion.
MAX_COUNT_USERS = 500


def canonical_group(members: Iterable[int]) -> Group:
    """Sorted tuple of distinct integer member indices."""
    g = tuple(members)
    try:
        g = tuple(sorted(map(index, g)))
    except TypeError:
        raise ValueError(f"group members must be integers, got {g}") from None
    if not g:
        raise ValueError("group must be non-empty")
    if len(set(g)) != len(g):
        raise ValueError(f"group members must be distinct, got {g}")
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
        # canonical first: it refuses a member that is no integer, such as
        # [0] or 0.0, before the partition check hashes it or counts it
        parts = canonical_partition(self.groups)
        object.__setattr__(self, "groups", _checked_partition(parts, self.num_users))

    @classmethod
    def scored(cls, groups, oracle) -> "GroupingSolution":
        """The solution of ``groups`` over the oracle's users, validated and
        canonicalized once, with the value ``objective`` gives it, bit for bit."""
        solution = cls(groups, oracle.num_users)
        object.__setattr__(solution, "objective_value", _weighted_sum(solution.groups, oracle))
        return solution


def validate_partition(groups, num_users: int) -> str | None:
    """None when groups partition {0..num_users-1}, else a message naming
    duplicated, missing and out-of-range users.  The group cap is the rate
    oracle's, which checks it when the partition is scored."""
    seen, duplicated = set(), set()
    for u in chain.from_iterable(groups):
        (duplicated if u in seen else seen).add(u)
    missing = [u for u in range(num_users) if u not in seen]
    stray = sorted(u for u in seen if not 0 <= u < num_users)
    found = (("duplicated users", sorted(duplicated)), ("missing users", missing),
             ("out-of-range users", stray))
    return "; ".join(f"{what} {items}" for what, items in found if items) or None


def _checked_partition(parts, num_users: int) -> tuple[Group, ...]:
    """``parts``, canonical, if they partition {0..num_users-1}; else ValueError."""
    report = validate_partition(parts, num_users)
    if report is not None:
        raise ValueError(f"invalid partition: {report}")
    return parts


def objective(groups, oracle) -> float:
    """sum(|G| * rate(G)) over a partition of the users the groups hold,
    summed in canonical order from one bulk ``oracle.rates`` query."""
    parts = canonical_partition(groups)
    return _weighted_sum(_checked_partition(parts, sum(map(len, parts))), oracle)


def _weighted_sum(parts, oracle) -> float:
    total = 0.0  # added in order: sum() compensates float sums from Python 3.12 on
    for g, rate in zip(parts, oracle.rates(parts)):
        total += len(g) * rate
    return total


def count_partitions(num_users: int, max_size: int) -> int:
    """Number of partitions of a num_users-set with blocks of size <= max_size.

    Recurrence on the block containing the last element:
    a(n) = sum_{j=1..max_size} C(n-1, j-1) * a(n-j).
    Refuses num_users above ``MAX_COUNT_USERS`` before any work.
    """
    if num_users < 0:
        raise ValueError("num_users must be >= 0")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if num_users > MAX_COUNT_USERS:
        raise ValueError(f"partition count over M={num_users} exceeds the limit of "
                         f"{MAX_COUNT_USERS} users")
    a = [1] * (num_users + 1)
    for n in range(1, num_users + 1):
        a[n] = sum(
            math.comb(n - 1, j - 1) * a[n - j] for j in range(1, min(max_size, n) + 1)
        )
    return a[num_users]


def _rates_by_mask(oracle):
    """The 2**M table of subset rates by member bitmask, 0 above the
    oracle's cap, filled from one bulk query.

    The subsets come from ``combinations`` over the oracle's own users, up
    to its own cap, so they are canonical and in range: the query checks
    no subset and fills its misses with one ``precompute``.  The subsets
    and their bitmasks come from the plan of (M, cap), kept read-only
    while its DP cells fit one batch (``_plan``), else from ``_subsets``.
    """
    num_users, cap = oracle.num_users, oracle.max_group_size
    subsets, masks = (_plan(num_users, cap, _BATCH_CELLS) or _subsets(num_users, cap))[:2]
    rates = np.zeros(2 ** num_users, dtype=np.float64)
    rates[masks] = oracle.rates(subsets, checked=True)
    return rates


def _subsets(n, max_block):
    """Subsets of {0..n-1} with 1..max_block members, and their bitmasks."""
    subsets = tuple([s for size in range(1, max_block + 1) for s in combinations(range(n), size)])
    return subsets, np.array([sum(1 << u for u in s) for s in subsets])


def active_backend() -> str:
    """Name of the search implementation; always 'python'."""
    return "python"


# Most (state, block) cells of one DP batch, and of a kept ``_plan``.
_BATCH_CELLS = 1 << 16


def _cells(n, max_block):
    """Members of each bitmask below 2**n (``size``), the sum of their key
    digits (``place``), and an iterator over the DP's (state, block,
    union) batches."""
    size = np.zeros(1 << n, dtype=np.int64)
    place = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):  # by doubling
        np.add(size[: 1 << i], 1, out=size[1 << i : 2 << i])
        np.add(place[: 1 << i], 16 ** (n - 1 - i), out=place[1 << i : 2 << i])

    def batches():
        for low in range(n):
            step = 2 << low  # a state or block shape k * step covers bits above low
            above = size[: (1 << n) // step]
            shapes = (1 << low) + np.flatnonzero(above < max_block) * step
            states = (1 << low) - 1 + np.flatnonzero(above <= low * (max_block - 1)) * step
            per = max(1, _BATCH_CELLS // len(shapes))
            for start in range(0, len(states), per):
                part = states[start : start + per]
                disjoint = np.flatnonzero((part[:, None] & shapes) == 0)  # row-major
                rows, cols = np.divmod(disjoint, len(shapes))
                t, b = part[rows], shapes[cols]
                yield t, b, t + b
    return size, place, batches()


def _cell_count(n, max_block):
    """The cells of ``_cells``: at layer L, h = n - 1 - L, C(h, a) states
    with a <= L * (max_block - 1) members above L meet shapes[h - a]."""
    shapes = [sum(math.comb(m, j) for j in range(min(max_block, m + 1))) for m in range(n)]
    return sum(math.comb(h, a) * shapes[h - a] for h in range(n)
               for a in range(min(h, (n - 1 - h) * (max_block - 1)) + 1))


@lru_cache(maxsize=1)
def _plan(n, max_block, batch_cells):
    """``_subsets`` and ``_cells`` of (n, max_block), read-only so that
    threads may share them; None above ``batch_cells`` cells."""
    if _cell_count(n, max_block) > batch_cells:
        return None
    size, place, batches = _cells(n, max_block)
    plan = (*_subsets(n, max_block), size, place, tuple(batches))
    for array in (*plan[1:4], *chain(*plan[4])):
        array.setflags(write=False)
    return plan


def search_best_partition(rates: np.ndarray, max_block: int):
    """Best partition of {0..n-1} into blocks of at most ``max_block``
    members under the bitmask rate table ``rates`` of length 2**n.

    Returns (partition_count, best_score, block_index_per_element).
    ``n`` is at most ``MAX_SEARCH_USERS``, the most the tie key holds; a
    table of any other length is refused before it is read.  ``rates``
    holds an entry for every non-empty subset of size <= max_block, and
    every entry must be finite: a NaN or infinite rate raises
    ``ValueError``, since it leaves the largest score undefined.

    A partition scores sum(|B| * rates[bitmask(B)]), added left to right
    over its blocks in least-element order.  The search is the forward
    set-partition DP over bitmasks (Björklund, Husfeldt and Koivisto,
    SIAM J. Comput. 2009): a state is the set T of elements covered so
    far, and the next block B holds the lowest element outside T, so each
    partition is built exactly once.  ``best[T | B] = best[T] + |B| *
    rates[B]`` adds in the order of the score and float addition is
    monotone, so the result is the largest score as a float;
    ``count[T | B] += count[T]`` counts the partitions.

    States are expanded in layers by their lowest uncovered element L,
    the strided slice ``count[2**L - 1 :: 2**(L + 1)]``.  Every block
    added from a layer-L state holds L, so it leads to a higher layer and
    a state's value is final before its layer expands.  Only reached
    states expand: those with at most L * (max_block - 1) members above
    L.  The (state, block) cells depend on (n, max_block) alone and run as
    numpy batches of at most ``_BATCH_CELLS`` cells, which bounds the
    memory.  ``_plan`` keeps the last call's cells as read-only arrays,
    which threads may share, when they number at most ``_BATCH_CELLS``
    (``_cell_count``), as at n=12 and max_block=4; more cells stream
    from ``_cells``.

    At a state the candidate with the largest score is kept and, among
    exactly equal scores, the one whose block-index string
    (restricted-growth string, uncovered elements given the next index)
    comes first.  ``key`` holds that string as a base-16 number, element
    i the digit 16**(n-1-i), so string order is integer order; candidate
    (T, B) has key ``key[T] + place[full ^ (T | B)]``.  The rule is a
    total order, so batch order does not matter.  With exact sums the
    result is the first optimal partition in canonical order; where
    rounding hides a difference between two prefix sums, an optimum later
    in that order may be returned.
    """
    n = len(rates).bit_length() - 1
    if not 1 <= n <= MAX_SEARCH_USERS or len(rates) != 1 << n:
        raise ValueError(f"rates must have length 2**n with n in 1..{MAX_SEARCH_USERS}, "
                         f"got {len(rates)}")
    if max_block < 1:
        raise ValueError("max_block must be >= 1")
    plan = _plan(n, max_block, _BATCH_CELLS)
    size, place, batches = _cells(n, max_block) if plan is None else plan[2:]
    weight = size * np.asarray(rates, dtype=np.float64)
    if not np.isfinite(weight).all():
        raise ValueError("rates must be finite")
    full = (1 << n) - 1
    best = np.full(full + 1, -np.inf)
    count = np.zeros(full + 1, dtype=np.int64)
    key = np.zeros(full + 1, dtype=np.int64)  # block-index string of the kept path
    best[0], count[0] = 0.0, 1
    no_key = np.iinfo(np.int64).max  # above every block-index string
    for t, b, s in batches:
        value = best[t] + weight[b]
        before = best[s]
        np.add.at(count, s, count[t])
        np.maximum.at(best, s, value)
        lead = np.flatnonzero(value == best[s])  # candidates at the max
        at = s[lead]
        key[at[value[lead] > before[lead]]] = no_key  # a new max
        np.minimum.at(key, at, key[t[lead]] + place[full - at])
    assign = key[full] >> 4 * np.arange(n - 1, -1, -1) & 15
    return int(count[full]), float(best[full]), assign


def search_refusal(num_users: int, max_size: int) -> str | None:
    """Why ``exhaustive_search`` refuses M users in groups of at most
    ``max_size``, or None when it takes them: any M when every group is a
    single user, else at most ``MAX_SEARCH_USERS`` users."""
    if max_size > 1 and num_users > MAX_SEARCH_USERS:
        return (f"full search over M={num_users}, Nu={max_size} exceeds the limit "
                f"of {MAX_SEARCH_USERS} users")
    return None


def exhaustive_search(oracle) -> GroupingSolution:
    """Optimal partition of the oracle's users into groups within its cap,
    by the subset DP of ``search_best_partition``.

    Ties keep the first partition in canonical order (that docstring
    names the one exception, under rounding).  It refuses what
    ``search_refusal`` refuses, more than ``MAX_SEARCH_USERS`` (16) users
    with a cap of two or more, before making any rate query; use the
    heuristics for larger networks.  With a cap of one every user is
    served alone, at any M.
    """
    num_users, max_size = oracle.num_users, oracle.max_group_size
    if refusal := search_refusal(num_users, max_size):
        raise SearchSpaceError(refusal)
    if max_size == 1:
        return GroupingSolution.scored([(u,) for u in range(num_users)], oracle)
    expected = count_partitions(num_users, max_size)
    rates = _rates_by_mask(oracle)
    count, _, assign = search_best_partition(rates, max_size)
    if count != expected:
        raise AssertionError(
            f"search visited {count} partitions, recurrence predicts {expected}"
        )
    blocks: list[list[int]] = [[] for _ in range(int(assign.max()) + 1)]
    for u, index in enumerate(assign.tolist()):
        blocks[index].append(u)
    return GroupingSolution.scored(blocks, oracle)
