import tracemalloc

import numpy as np
import pytest

from mugroup import grouping
from mugroup.grouping import (MAX_SEARCH_USERS, _rates_by_mask, active_backend,
                              canonical_partition, count_partitions, exhaustive_search,
                              search_best_partition)

from conftest import MCS_WITH_MAC, rician_oracle
from reference import enumerate_partitions, loop_best_partition


def random_rates(rng, n, smax):
    rates = np.zeros(2 ** n)
    for mask in range(1, 2 ** n):
        if bin(mask).count("1") <= smax:
            rates[mask] = rng.uniform(0.0, 10.0)
    return rates


# MCS data rates in Mbit/s: rates quantized to few levels tie often
MCS_LEVELS = (0.0, 6.5, 13.0, 19.5, 26.0, 39.0, 52.0, 58.5, 65.0)


def rate_table(rng, n, smax, kind):
    """A bitmask rate table of one kind: uniform floats, integers in
    {0, 1, 2} (exact ties everywhere), MCS levels shared among members,
    or mostly zeros."""
    rates = np.zeros(2 ** n)
    for mask in range(1, 2 ** n):
        size = bin(mask).count("1")
        if size > smax:
            continue
        if kind == "float":
            rates[mask] = rng.uniform(0.0, 10.0)
        elif kind == "int":
            rates[mask] = float(rng.integers(0, 3))
        elif kind == "mcs":
            rates[mask] = MCS_LEVELS[rng.integers(len(MCS_LEVELS))] * 0.9 / size
        else:
            rates[mask] = rng.uniform(0.0, 1.0) if rng.random() < 0.3 else 0.0
    return rates


def assert_same_as_loop(rates, n, smax):
    count, best, assign = search_best_partition(rates, n, smax)
    ref_count, ref_best, ref_assign = loop_best_partition(rates, n, smax)
    assert count == ref_count
    assert best == ref_best
    assert assign.tolist() == ref_assign.tolist()


def blocks_of(assign):
    groups = {}
    for u, b in enumerate(assign):
        groups.setdefault(int(b), []).append(u)
    return tuple(tuple(v) for v in groups.values())


def score(parts, rates):
    return sum(len(b) * rates[sum(1 << u for u in b)] for b in parts)


class TestKernel:
    def test_counts_match_recurrence(self):
        rng = np.random.default_rng(0)
        for n, smax in [(1, 1), (4, 2), (6, 3), (8, 3), (9, 4), (10, 2)]:
            rates = random_rates(rng, n, smax)
            count, _, _ = search_best_partition(rates, n, smax)
            assert count == count_partitions(n, smax)

    def test_argmax_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            smax = int(rng.integers(1, 5))
            rates = random_rates(rng, n, smax)
            _, best, assign = search_best_partition(rates, n, smax)
            ref = max(score(p, rates) for p in enumerate_partitions(n, smax))
            assert best == ref
            assert score(blocks_of(assign), rates) == ref

    def test_tie_break_is_first_enumerated(self):
        # integer-valued rates produce exact ties; first canonical wins
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            smax = int(rng.integers(1, 4))
            rates = np.zeros(2 ** n)
            for mask in range(1, 2 ** n):
                if bin(mask).count("1") <= smax:
                    rates[mask] = float(rng.integers(0, 3))
            _, best, assign = search_best_partition(rates, n, smax)
            expected = next(p for p in enumerate_partitions(n, smax)
                            if score(p, rates) == best)
            assert blocks_of(assign) == expected

    def test_backend_validation(self):
        rates = np.zeros(4)
        rates[1] = rates[2] = 1.0
        with pytest.raises(ValueError):
            search_best_partition(rates, 3, 1)  # wrong table length

    def test_refuses_more_users_than_the_key_holds(self):
        # checked before anything is allocated: the table is not even read
        with pytest.raises(ValueError, match="1..16"):
            search_best_partition(np.zeros(4), MAX_SEARCH_USERS + 1, 2)

    def test_digits_at_full_width(self):
        # n=16 fills all 16 base-16 digits of the key, the last one up to 15
        n = MAX_SEARCH_USERS
        sizes = np.array([bin(mask).count("1") for mask in range(2 ** n)])
        everywhere = (sizes >= 1) & (sizes <= 2)
        _, _, assign = search_best_partition(everywhere.astype(float), n, 2)
        assert assign.tolist() == [u // 2 for u in range(n)]
        _, _, assign = search_best_partition((sizes == 1).astype(float), n, 2)
        assert assign.tolist() == list(range(n))

    def test_active_backend_name(self):
        assert active_backend() == "python"


KINDS = ["float", "int", "mcs", "zero"]


class TestAgainstLoop:
    """The layered numpy DP against the plain loop over states in
    ``tests/reference.py``: same count, same score bits, same partition."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_size(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for n in range(1, 11):
            for smax in range(1, 6):
                for _ in range(3):
                    assert_same_as_loop(rate_table(rng, n, smax, kind), n, smax)

    @pytest.mark.parametrize("kind", KINDS)
    def test_many_small_batches(self, kind, monkeypatch):
        # 8 cells hold one or a few sources, so most layers run as many
        # batches and tied candidates meet across batches
        monkeypatch.setattr(grouping, "_BATCH_CELLS", 8)
        rng = np.random.default_rng(10 + KINDS.index(kind))
        for n in range(1, 10):
            for smax in range(1, 6):
                for _ in range(2):
                    assert_same_as_loop(rate_table(rng, n, smax, kind), n, smax)

    @pytest.mark.parametrize("m", [10, 12, 14, 16])
    def test_exhaustive_search_on_mcs_rates(self, m):
        for seed in range(2):
            _, oracle = rician_oracle(m, 4, seed=seed, phy=MCS_WITH_MAC)
            rates = _rates_by_mask(oracle)
            _, _, assign = loop_best_partition(rates, m, 4)
            assert exhaustive_search(oracle).groups == canonical_partition(
                blocks_of(assign))


class TestLimits:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, bad):
        rates = random_rates(np.random.default_rng(0), 4, 2)
        rates[0b0011] = bad
        with pytest.raises(ValueError, match="finite"):
            search_best_partition(rates, 4, 2)

    def test_memory_at_size_limit(self):
        # 16 users is the most full search takes (MAX_SEARCH_USERS)
        rates = np.random.default_rng(0).uniform(0.0, 10.0, 2 ** 16)
        tracemalloc.start()
        try:
            count, _, _ = search_best_partition(rates, 16, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == count_partitions(16, 6)
        assert peak < 32 * 2 ** 20
