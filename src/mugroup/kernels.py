"""Search kernel: best partition under a block-size cap.

The exhaustive grouping search walks every set partition of {0..n-1}
whose blocks have at most ``max_block`` members, in restricted-growth
lexicographic order, scoring each partition as the sum over blocks of
``|B| * rates[bitmask(B)]``.  The walk is plain Python; its cost grows
with the partition count, which ``grouping.exhaustive_search`` caps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["search_best_partition", "active_backend"]


def _search_best_partition(rates, n, max_block, choice, block_size, block_mask,
                           prev_contrib, opened, contrib, best_assign):
    """DFS over capped partitions; returns (count, best_score).

    ``choice[i]`` is the block index of element i (a new block opens when
    it equals the running block count).  At each leaf the score is a
    fresh left-to-right sum over blocks in least-element order, which
    keeps the argmax independent of incremental rounding; ties keep the
    first partition enumerated.
    """
    for j in range(n):
        choice[j] = -1
    count = 0
    best_score = -1.0
    nblocks = 0
    i = 0
    while i >= 0:
        if i == n:
            count += 1
            score = 0.0
            for j in range(nblocks):
                score += contrib[j]
            if score > best_score:
                best_score = score
                for j in range(n):
                    best_assign[j] = choice[j]
            i -= 1
            continue
        c = choice[i]
        if c >= 0:
            # undo the current placement of element i before advancing it
            if opened[i]:
                nblocks -= 1
            else:
                block_mask[c] &= ~(1 << i)
                block_size[c] -= 1
                contrib[c] = prev_contrib[i]
            c += 1
        else:
            c = 0
        while c < nblocks and block_size[c] >= max_block:
            c += 1
        if c > nblocks:
            choice[i] = -1
            i -= 1
            continue
        choice[i] = c
        bit = 1 << i
        if c == nblocks:
            opened[i] = True
            block_mask[c] = bit
            block_size[c] = 1
            contrib[c] = rates[bit]
            nblocks += 1
        else:
            opened[i] = False
            prev_contrib[i] = contrib[c]
            block_mask[c] |= bit
            block_size[c] += 1
            contrib[c] = block_size[c] * rates[block_mask[c]]
        i += 1
    return count, best_score


def active_backend() -> str:
    """Name of the kernel implementation; always 'python'."""
    return "python"


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
    rates = np.ascontiguousarray(rates, dtype=np.float64)
    choice = np.empty(n, dtype=np.int64)
    block_size = np.zeros(n, dtype=np.int64)
    block_mask = np.zeros(n, dtype=np.int64)
    prev_contrib = np.zeros(n, dtype=np.float64)
    opened = np.zeros(n, dtype=np.bool_)
    contrib = np.zeros(n, dtype=np.float64)
    best_assign = np.zeros(n, dtype=np.int64)
    count, best_score = _search_best_partition(rates, n, max_block, choice, block_size,
                                               block_mask, prev_contrib, opened, contrib,
                                               best_assign)
    return int(count), float(best_score), best_assign
