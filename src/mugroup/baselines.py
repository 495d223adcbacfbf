"""Comparison grouping strategies: greedy capacity, semi-orthogonality,
and random chunking.

Each baseline partitions the whole network (the cited single-group
selectors are wrapped in an outer loop over the remaining users) and is
scored through the same rate oracle as the optimal and graph-matching
solvers so that objectives are directly comparable; like them, each takes
M, the group cap and (SUS) the channels from that oracle.

SUS scores are incremental Gram-Schmidt residuals (Yoo and Goldsmith, IEEE
JSAC 2006), memoized per ordered member tuple and shared by a sweep, where a
member adds no direction at rounding level (``_RANK_TOL``) and a lone
qualified user is picked unscored; selection runs on Python lists,
thresholded once per alpha by ``not corr > alpha``.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

import numpy as np

from .channel import correlation_matrix
# Unused here; kept because the benchmark trace wraps
# ``baselines.pairwise_correlation`` by name and fails without it.
from .channel import pairwise_correlation  # noqa: F401
from .grouping import GroupingSolution, _weighted_sum
# Unused here; kept because the benchmark trace wraps ``baselines.objective`` by name.
from .grouping import objective  # noqa: F401

__all__ = ["SusParams", "zfs_grouping", "sus_grouping", "random_grouping"]

# a member whose residual norm on a subcarrier is at most this fraction of
# its channel norm there lies in the earlier members' span up to rounding
_RANK_TOL = 1e-12

_TIMES_I = np.array([-1.0, 1.0]).reshape(2, 1, 1, 1)  # i z = z[::-1] * _TIMES_I, exactly


@dataclass(frozen=True)
class SusParams:
    """Semi-orthogonality thresholds, each run on its own with the
    best-scoring run returned; a single alpha is a sweep of one."""

    sweep: tuple[float, ...] = (0.2, 0.3, 0.4, 0.5, 0.6)

    def __post_init__(self):
        if not self.sweep:
            raise ValueError("sweep must be non-empty")
        for a in self.sweep:
            if not 0.0 < a < 1.0:
                raise ValueError(f"alpha must be in (0, 1), got {a}")


def zfs_grouping(oracle) -> GroupingSolution:
    """Greedy capacity-based grouping.

    Seeds each group with the best remaining single-user rate, then keeps
    adding the user that most improves the group's weighted rate
    |g| * R(g), stopping when no addition strictly helps or the oracle's
    cap is reached.  Members are a sorted tuple and ``bisect`` insertion
    keeps each candidate canonical, so a step reads its candidates' rates
    with one unchecked bulk query.  The remaining users stay an ascending
    list, so a tie for the seed or a pick goes to the lowest index.
    """
    num_users, max_size = oracle.num_users, oracle.max_group_size
    singles = oracle.rates([(u,) for u in range(num_users)])
    remaining = list(range(num_users))  # ascending
    groups = []
    while remaining:
        seed = max(remaining, key=singles.__getitem__)  # the first maximum
        members = (seed,)
        remaining.remove(seed)
        current = singles[seed]
        while len(members) < max_size and remaining:
            cands = [members[:(at := bisect(members, u))] + (u,) + members[at:] for u in remaining]
            size = len(members) + 1
            best, best_weighted = None, current
            for u, cand, cand_rate in zip(remaining, cands, oracle.rates(cands, checked=True)):
                weighted = size * cand_rate
                if weighted > best_weighted:
                    best, best_weighted = (u, cand), weighted
            if best is None:
                break
            remaining.remove(best[0])
            members, current = best[1], best_weighted
        groups.append(members)
    return GroupingSolution.scored(groups, oracle)


class _Residuals(dict):
    """Memo for one ``sus_grouping`` call, keyed by ordered member tuple:
    each user's channel residual outside the members' span (real and
    imaginary parts, (2, Nt, M, SC)), its squared norm and norm per
    subcarrier and its score (their mean) as a list.  A tuple adds one
    Gram-Schmidt step to its parent: per subcarrier q = r_p / ||r_p||
    from the last member's residual (q = 0 where ||r_p|| <= ``_RANK_TOL``
    ||h_p||) and r <- r - q (q^H r) for every user.  Real arithmetic and
    antenna sums in index order keep each user's values independent.  Only
    a tuple whose pick compares scores, or a prefix of one, gets an entry."""

    def __init__(self, h: np.ndarray):
        r = np.ascontiguousarray(np.stack((h.real, h.imag)).transpose(0, 2, 1, 3))
        sq = np.add.reduce(np.add(*(r * r)), axis=0)
        self.tol = _RANK_TOL * np.sqrt(sq)
        super().__init__({(): (r, sq, np.sqrt(sq), None)})

    def __missing__(self, members: tuple[int, ...]):
        r, _, norm, _ = self[members[:-1]]
        p = members[-1]
        qr, qi = np.divide(r[:, :, p], norm[p], out=np.zeros(r[:, :, p].shape),
                           where=norm[p] > self.tol[p])[:, :, None]
        c = np.add.reduce(qr * r + qi * (r[::-1] * -_TIMES_I), axis=1)[:, None]  # q^H r
        r = r - (qr * c + qi * (c[::-1] * _TIMES_I))  # r - q (q^H r)
        sq = np.add.reduce(np.add(*(r * r)), axis=0)
        norm = np.sqrt(sq)
        scores = (np.add.reduce(norm, axis=1) / norm.shape[1]).tolist()  # mean(axis=1)
        self[members] = entry = (r, sq, norm, scores)
        return entry


def _sus_single_alpha(max_size: int, alpha: float, norms: list[float],
                      correlation: np.ndarray, residuals: _Residuals) -> list[tuple[int, ...]]:
    apart = (~(correlation > alpha)).tolist()  # j may join a group holding i
    free = list(range(len(norms)))
    groups = []
    while free:
        seed = max(free, key=norms.__getitem__)  # the first maximum, as argmax
        free.remove(seed)
        members, qualified = (seed,), [u for u in free if apart[seed][u]]
        while qualified and len(members) < max_size:
            pick = (qualified[0] if len(qualified) == 1 else
                    max(qualified, key=residuals[members][3].__getitem__))
            free.remove(pick)
            members, row = members + (pick,), apart[pick]
            qualified = [u for u in qualified if u != pick and row[u]]
        groups.append(tuple(sorted(members)))
    return groups


def sus_grouping(oracle, params: SusParams = SusParams()) -> GroupingSolution:
    """Semi-orthogonal user selection over the oracle's channels.

    Groups are grown from the largest-norm remaining user; a candidate
    qualifies when its normalized correlation with every selected member
    is not above alpha, and the qualified user with the largest orthogonal
    component is added (the lowest index on a tie).  Each alpha of the
    sweep runs on its own and the best objective wins (ties keep the
    earlier alpha).  The sweep shares one ``correlation_matrix``, the
    channel norms and one ``_Residuals`` cache, with an entry of M * Nt * SC
    values for each member tuple after which a pick compares two or more
    users' scores, and for its prefixes.  One unchecked ``oracle.precompute``
    of the sweep's groups, sorted tuples within the oracle's users and
    cap, fills the memo (one rate-kernel call per group size); each alpha
    is then scored by one ``oracle.rates`` query of its groups (memo hits).
    """
    norms = np.linalg.norm(oracle.channels.entries, axis=1).mean(axis=1).tolist()
    correlation = correlation_matrix(oracle.channels)
    residuals = _Residuals(oracle.channels.entries)
    runs = [sorted(_sus_single_alpha(oracle.max_group_size, alpha, norms, correlation, residuals))
            for alpha in params.sweep]
    oracle.precompute([g for parts in runs for g in parts], checked=True)
    # as ``objective`` adds; the groups are memo hits, so none is checked again
    values = [_weighted_sum(parts, oracle) for parts in runs]
    best = values.index(max(values))  # the earlier alpha wins a tie
    return GroupingSolution(runs[best], oracle.num_users, values[best])


def random_grouping(oracle, seed: int) -> GroupingSolution:
    """Seeded uniform shuffle of the oracle's users chunked into groups of
    its cap (the last group takes the remainder)."""
    num_users, max_size = oracle.num_users, oracle.max_group_size
    order = np.random.default_rng(seed).permutation(num_users).tolist()
    return GroupingSolution.scored(
        [order[i:i + max_size] for i in range(0, num_users, max_size)], oracle)
