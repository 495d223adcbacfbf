"""Comparison grouping strategies: greedy capacity, semi-orthogonality,
and random chunking.

Each baseline partitions the whole network (the cited single-group
selectors are wrapped in an outer loop over the remaining users) and is
scored through the same rate oracle as the optimal and graph-matching
solvers so that objectives are directly comparable; like them, each takes
M, the group cap and (SUS) the channels from that oracle.

SUS scores are incremental Gram-Schmidt residuals (Yoo and Goldsmith, IEEE
JSAC 2006), memoized per ordered member tuple and shared by a sweep; a
member adds no direction where its residual is at rounding level (``_RANK_TOL``).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

import numpy as np

from .channel import correlation_matrix
# Unused here; kept because the benchmark trace wraps
# ``baselines.pairwise_correlation`` by name and fails without it.
from .channel import pairwise_correlation  # noqa: F401
from .grouping import GroupingSolution, canonical_group, objective

__all__ = ["SusParams", "zfs_grouping", "sus_grouping", "random_grouping"]

# a member whose residual norm on a subcarrier is at most this fraction of
# its channel norm there lies in the earlier members' span up to rounding
_RANK_TOL = 1e-12


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
    keeps each candidate canonical, so a step fills its candidates with
    one unchecked ``precompute`` and queries memo hits.
    """
    num_users, max_size = oracle.num_users, oracle.max_group_size
    singles = oracle.rates([(u,) for u in range(num_users)])
    remaining = set(range(num_users))
    groups = []
    while remaining:
        seed = max(sorted(remaining), key=lambda u: singles[u])
        members = (seed,)
        remaining.remove(seed)
        current = singles[seed]
        while len(members) < max_size and remaining:
            order = sorted(remaining)
            cands = [members[:(at := bisect(members, u))] + (u,) + members[at:] for u in order]
            size = len(members) + 1
            oracle.precompute(cands, checked=True)
            best, best_weighted = None, current
            for u, cand, cand_rate in zip(order, cands, oracle.rates(cands)):
                weighted = size * cand_rate
                if weighted > best_weighted:
                    best, best_weighted = (u, cand), weighted
            if best is None:
                break
            remaining.remove(best[0])
            members, current = best[1], best_weighted
        groups.append(members)
    return GroupingSolution(groups, num_users, objective(groups, oracle))


class _Residuals(dict):
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


def _sus_single_alpha(num_users: int, max_size: int, alpha: float, norms: np.ndarray,
                      correlation: np.ndarray, residuals: _Residuals) -> list[tuple[int, ...]]:
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


def sus_grouping(oracle, params: SusParams = SusParams()) -> GroupingSolution:
    """Semi-orthogonal user selection over the oracle's channels.

    Groups are grown from the largest-norm remaining user; a candidate
    qualifies when its normalized correlation with every selected member
    is at most alpha, and the qualified user with the largest orthogonal
    component is added (the lowest index on a tie).  Each alpha of the
    sweep runs independently and the best objective wins (ties keep the
    earlier alpha).  Each call builds one ``correlation_matrix``, the
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
    correlation = correlation_matrix(channels)
    residuals = _Residuals(channels.entries)
    runs = [_sus_single_alpha(num_users, max_size, alpha, norms, correlation, residuals)
            for alpha in params.sweep]
    oracle.precompute([g for parts in runs for g in parts], checked=True)
    best_parts, best_value = None, -1.0
    for parts in runs:
        value = objective(parts, oracle)
        if value > best_value:
            best_parts, best_value = parts, value
    return GroupingSolution(best_parts, num_users, best_value)


def random_grouping(oracle, seed: int) -> GroupingSolution:
    """Seeded uniform shuffle of the oracle's users chunked into groups of
    its cap (the last group takes the remainder)."""
    num_users, max_size = oracle.num_users, oracle.max_group_size
    order = np.random.default_rng(seed).permutation(num_users)
    groups = [
        canonical_group(order[i:i + max_size].tolist())
        for i in range(0, num_users, max_size)
    ]
    return GroupingSolution(groups, num_users, objective(groups, oracle))
