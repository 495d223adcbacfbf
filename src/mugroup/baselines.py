"""Comparison grouping strategies: greedy capacity, semi-orthogonality,
and random chunking.

Each baseline partitions the whole network (the cited single-group
selectors are wrapped in an outer loop over the remaining users) and is
scored through the same rate oracle as the optimal and graph-matching
solvers so that objectives are directly comparable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, correlation_matrix
# Unused here; kept because the benchmark trace wraps
# ``baselines.pairwise_correlation`` by name and fails without it.
from .channel import pairwise_correlation  # noqa: F401
from .grouping import GroupingSolution, canonical_group, objective

__all__ = ["SusParams", "zfs_grouping", "sus_grouping", "random_grouping"]


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


def zfs_grouping(oracle, num_users: int, max_size: int) -> GroupingSolution:
    """Greedy capacity-based grouping.

    Seeds each group with the best remaining single-user rate, then keeps
    adding the user that most improves the group's weighted rate
    |g| * R(g), stopping when no addition strictly helps or the cap is
    reached.
    """
    singles = oracle.rates([(u,) for u in range(num_users)])
    remaining = set(range(num_users))
    groups = []
    while remaining:
        seed = max(sorted(remaining), key=lambda u: singles[u])
        members = [seed]
        remaining.remove(seed)
        current = singles[seed]
        while len(members) < max_size and remaining:
            best_user = -1
            best_weighted = current
            order = sorted(remaining)
            cands = [canonical_group(members + [u]) for u in order]
            for u, cand, cand_rate in zip(order, cands, oracle.rates(cands)):
                weighted = len(cand) * cand_rate
                if weighted > best_weighted:
                    best_weighted = weighted
                    best_user = u
            if best_user < 0:
                break
            members.append(best_user)
            remaining.remove(best_user)
            current = best_weighted
        groups.append(canonical_group(members))
    return GroupingSolution(groups, num_users, objective(groups, oracle))


def _member_basis(channels: ChannelSet, members: tuple[int, ...]) -> np.ndarray:
    """Per subcarrier, an orthonormal basis of the members' channels,
    shape (Nt, k, SC), from one stacked QR."""
    q = np.linalg.qr(channels.entries[list(members)].transpose(2, 1, 0))[0]
    return q.transpose(1, 2, 0)


def _orthogonal_norms(channels: ChannelSet, users: np.ndarray,
                      basis: np.ndarray) -> np.ndarray:
    """Mean over subcarriers of each user's channel norm outside the span
    of the selected members' channels, given their ``_member_basis``.

    The projection h - Q (Q^H h) is formed in real arithmetic and each
    sum is taken in index order, so a user's score does not depend on the
    other users in the batch.
    """
    h = channels.entries[users].transpose(1, 0, 2)[:, None]  # (Nt, 1, n, SC)
    q = basis[:, :, None]  # (Nt, k, 1, SC)
    hr, hi, qr, qi = h.real, h.imag, q.real, q.imag
    add = functools.partial(functools.reduce, np.add)
    cr = add(qr * hr + qi * hi)  # Q^H h, (k, n, SC)
    ci = add(qr * hi - qi * hr)
    pr = add((qr * cr - qi * ci).swapaxes(0, 1))  # Q Q^H h, (Nt, n, SC)
    pi = add((qr * ci + qi * cr).swapaxes(0, 1))
    rr, ri = hr[:, 0] - pr, hi[:, 0] - pi
    return np.sqrt(add(rr * rr + ri * ri)).mean(axis=1)


def _sus_single_alpha(channels: ChannelSet, num_users: int, max_size: int,
                      alpha: float, norms: np.ndarray, correlation: np.ndarray,
                      basis) -> list[tuple[int, ...]]:
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
            scores = _orthogonal_norms(channels, cands, basis(tuple(members)))
            pick = int(cands[np.argmax(scores)])
            members.append(pick)
            free[pick] = False
            qualified &= free & ~close[pick]
        groups.append(canonical_group(members))
    return groups


def sus_grouping(channels: ChannelSet, oracle, num_users: int, max_size: int,
                 params: SusParams = SusParams()) -> GroupingSolution:
    """Semi-orthogonal user selection.

    Groups are grown from the largest-norm remaining user; a candidate
    qualifies when its normalized correlation with every selected member
    is at most alpha, and the qualified user with the largest orthogonal
    component is added (the lowest index on a tie).  Each alpha of the
    sweep runs independently and the best objective wins (ties keep the
    earlier alpha).  Each call builds one ``correlation_matrix`` and the
    channel norms once; each alpha thresholds the matrix once, each step
    scores all qualified candidates in one batched projection, and the
    member basis of each ordered member list is factored once per call.
    """
    norms = np.linalg.norm(channels.entries[:num_users], axis=1).mean(axis=1)
    correlation = correlation_matrix(channels, range(num_users))
    basis = functools.cache(functools.partial(_member_basis, channels))
    best_parts = None
    best_value = -1.0
    for alpha in params.sweep:
        parts = _sus_single_alpha(channels, num_users, max_size, alpha, norms,
                                  correlation, basis)
        value = objective(parts, oracle)
        if value > best_value:
            best_value = value
            best_parts = parts
    return GroupingSolution(best_parts, num_users, best_value)


def random_grouping(num_users: int, max_size: int, seed: int,
                    oracle=None) -> GroupingSolution:
    """Seeded uniform shuffle chunked into groups of ``max_size`` (the
    last group takes the remainder).  The objective is filled only when
    an oracle is supplied."""
    order = np.random.default_rng(seed).permutation(num_users)
    groups = [
        canonical_group(order[i:i + max_size].tolist())
        for i in range(0, num_users, max_size)
    ]
    value = objective(groups, oracle) if oracle is not None else None
    return GroupingSolution(groups, num_users, value)
