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

from .channel import ChannelSet, pairwise_correlation
from .grouping import GroupingSolution, canonical_group, canonical_partition, objective

__all__ = ["SusParams", "zfs_grouping", "sus_grouping", "random_grouping"]


@dataclass(frozen=True)
class SusParams:
    """Semi-orthogonality threshold, optionally swept over several values
    with the best-scoring run returned."""

    alpha: float = 0.4
    sweep: tuple[float, ...] | None = (0.2, 0.3, 0.4, 0.5, 0.6)

    def __post_init__(self):
        values = self.sweep if self.sweep is not None else (self.alpha,)
        if not values:
            raise ValueError("sweep must be non-empty when present")
        for a in values:
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
    parts = canonical_partition(groups)
    return GroupingSolution(parts, num_users, objective(parts, oracle))


def _channel_norms(channels: ChannelSet) -> np.ndarray:
    return np.linalg.norm(channels.entries, axis=1).mean(axis=1)


def _member_basis(channels: ChannelSet, members: tuple[int, ...]) -> list[np.ndarray]:
    """Per subcarrier, an orthonormal basis (Nt, k) of the members' channels."""
    return [np.linalg.qr(channels.entries[list(members), :, s].T)[0]
            for s in range(channels.num_subcarriers)]


def _orthogonal_component_norm(channels: ChannelSet, user: int,
                               basis: list[np.ndarray]) -> float:
    """Mean over subcarriers of the user's channel norm outside the span
    of the selected members' channels, given their ``_member_basis``."""
    vals = np.empty(channels.num_subcarriers)
    for s, q in enumerate(basis):
        h = channels.entries[user, :, s]
        vals[s] = np.linalg.norm(h - q @ (q.conj().T @ h))
    return float(vals.mean())


def _sus_single_alpha(channels: ChannelSet, num_users: int, max_size: int,
                      alpha: float, correlation, basis) -> tuple[tuple[int, ...], ...]:
    norms = _channel_norms(channels)
    remaining = set(range(num_users))
    groups = []
    while remaining:
        seed = max(sorted(remaining), key=lambda u: norms[u])
        members = [seed]
        remaining.remove(seed)
        while len(members) < max_size:
            qualified = [
                u for u in sorted(remaining)
                if all(correlation(u, s) <= alpha for s in members)
            ]
            if not qualified:
                break
            q = basis(tuple(members))
            pick = max(qualified, key=lambda u: _orthogonal_component_norm(channels, u, q))
            members.append(pick)
            remaining.remove(pick)
        groups.append(canonical_group(members))
    return canonical_partition(groups)


def sus_grouping(channels: ChannelSet, oracle, num_users: int, max_size: int,
                 params: SusParams = SusParams()) -> GroupingSolution:
    """Semi-orthogonal user selection.

    Groups are grown from the largest-norm remaining user; a candidate
    qualifies when its normalized correlation with every selected member
    is at most alpha, and the qualified user with the largest orthogonal
    component is added.  With a sweep, each alpha runs independently and
    the best objective wins (ties keep the earlier alpha).  Each
    (candidate, member) correlation, and the member basis of each ordered
    member list, is computed once per call and shared by every step and
    alpha.
    """
    alphas = params.sweep if params.sweep is not None else (params.alpha,)
    correlation = functools.cache(functools.partial(pairwise_correlation, channels))
    basis = functools.cache(functools.partial(_member_basis, channels))
    best_parts = None
    best_value = -1.0
    for alpha in alphas:
        parts = _sus_single_alpha(channels, num_users, max_size, alpha, correlation, basis)
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
    parts = canonical_partition(groups)
    value = objective(parts, oracle) if oracle is not None else None
    return GroupingSolution(parts, num_users, value)
