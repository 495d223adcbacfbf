"""Search kernel: best partition under a block-size cap.

A partition of {0..n-1} into blocks of at most ``max_block`` members
scores sum(|B| * rates[bitmask(B)]), added left to right over its blocks
in least-element order.  The kernel is the forward set-partition DP over
bitmasks (Björklund, Husfeldt and Koivisto, SIAM J. Comput. 2009): a
state is the set T of elements covered so far, states are visited in
ascending mask order, and the next block B holds the lowest element
outside T, so each partition is built exactly once.
``best[T | B] = best[T] + |B| * rates[B]`` adds in the order of the score
and float addition is monotone, so the result is the largest score as a
float; ``count[T | B] += count[T]`` counts the partitions.

On an exact tie at a state the candidate whose block-index string
(restricted-growth string, uncovered elements given the next index)
comes first is kept.  That order does not depend on how the state is
completed, so with exact sums (integer rates, say) the result is the
first optimal partition in canonical order.  Where rounding hides a
difference between two prefix sums, an optimum later in that order may
be returned.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = ["search_best_partition", "active_backend"]


def active_backend() -> str:
    """Name of the kernel implementation; always 'python'."""
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
    """Best capped partition of {0..n-1} under bitmask rate table ``rates``.

    Returns (partition_count, best_score, block_index_per_element).
    ``rates`` must have length 2**n with entries for every non-empty
    subset of size <= max_block.
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
