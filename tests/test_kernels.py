import sys
import threading
import tracemalloc
from collections import Counter
from itertools import chain

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
    count, best, assign = search_best_partition(rates, smax)
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
            count, _, _ = search_best_partition(rates, smax)
            assert count == count_partitions(n, smax)

    def test_argmax_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            smax = int(rng.integers(1, 5))
            rates = random_rates(rng, n, smax)
            _, best, assign = search_best_partition(rates, smax)
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
            _, best, assign = search_best_partition(rates, smax)
            expected = next(p for p in enumerate_partitions(n, smax)
                            if score(p, rates) == best)
            assert blocks_of(assign) == expected

    def test_backend_validation(self):
        rates = np.zeros(4)
        rates[1] = rates[2] = 1.0
        assert search_best_partition(rates, 1)[0] == 1  # n=2 read from the length
        for length in (0, 1, 3, 5, 6, 7, 12, 2 ** 10 + 1):  # not 2**n with n >= 1
            with pytest.raises(ValueError, match=f"2\\*\\*n with n in 1..16, got {length}"):
                search_best_partition(np.zeros(length), 1)
        with pytest.raises(ValueError, match="max_block must be >= 1"):
            search_best_partition(rates, 0)

    def test_refuses_more_users_than_the_key_holds(self):
        # checked before anything is allocated: the 1 MB table is not even read
        rates = np.full(2 ** (MAX_SEARCH_USERS + 1), np.nan)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="1..16, got 131072"):
                search_best_partition(rates, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_digits_at_full_width(self):
        # n=16 fills all 16 base-16 digits of the key, the last one up to 15
        n = MAX_SEARCH_USERS
        sizes = np.array([bin(mask).count("1") for mask in range(2 ** n)])
        everywhere = (sizes >= 1) & (sizes <= 2)
        _, _, assign = search_best_partition(everywhere.astype(float), 2)
        assert assign.tolist() == [u // 2 for u in range(n)]
        _, _, assign = search_best_partition((sizes == 1).astype(float), 2)
        assert assign.tolist() == list(range(n))

    def test_active_backend_name(self):
        assert active_backend() == "python"


KINDS = ["float", "int", "mcs", "zero"]


def record_layers(monkeypatch):
    """Count the batches of each layer that ``grouping._cells`` yields:
    a layer-L state has bits 0..L-1 set and bit L clear."""
    layers = Counter()
    cells = grouping._cells

    def recording(n, max_block):
        size, place, batches = cells(n, max_block)

        def counted():
            for t, b, s in batches:
                layers[(~int(t[0]) & int(t[0]) + 1).bit_length()] += 1
                yield t, b, s
        return size, place, counted()
    monkeypatch.setattr(grouping, "_cells", recording)
    grouping._plan.cache_clear()  # a kept plan would skip _cells
    return layers


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
        layers = record_layers(monkeypatch)
        rng = np.random.default_rng(10 + KINDS.index(kind))
        for n in range(1, 10):
            for smax in range(1, 6):
                for _ in range(2):
                    layers.clear()
                    assert_same_as_loop(rate_table(rng, n, smax, kind), n, smax)
                    if n >= 4 and smax >= 2:
                        # the batches ran under the patched budget, not from
                        # a plan built under the default one
                        assert max(layers.values()) > 1

    @pytest.mark.parametrize("m", [10, 12, 14, 16])
    def test_exhaustive_search_on_mcs_rates(self, m):
        for seed in range(2):
            _, oracle = rician_oracle(m, 4, seed=seed, phy=MCS_WITH_MAC)
            rates = _rates_by_mask(oracle)
            _, _, assign = loop_best_partition(rates, m, 4)
            assert exhaustive_search(oracle).groups == canonical_partition(
                blocks_of(assign))


def solution_bits(solution):
    return solution.groups, solution.objective_value.hex()


class TestPlan:
    """The rate-independent plan of full search, kept for the last
    (M, cap) when its cells fit one batch."""

    def test_cell_count_is_the_cells_visited(self):
        for n in range(1, 13):
            for cap in range(1, n + 1):
                _, _, batches = grouping._cells(n, cap)
                assert sum(len(t) for t, _, _ in batches) == grouping._cell_count(n, cap)

    def test_cell_count_without_allocation(self):
        # the DP-cell table at and past the size limit, from the formula alone
        tracemalloc.start()
        try:
            counts = [grouping._cell_count(n, cap)
                      for n, cap in [(10, 4), (14, 4), (16, 4), (16, 8), (16, 16), (20, 4)]]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [6_182, 174_379, 858_980, 6_572_679, 7_207_221, 18_398_104]
        assert peak < 64 * 2 ** 10

    def test_kept_plan_is_reused_exactly(self):
        # sizes that switch the kept plan, return to an evicted one and
        # cross the budget: (14, 4) has 174,379 cells and streams
        grouping._plan.cache_clear()
        for m, cap in [(10, 4), (10, 3), (12, 4), (10, 4), (14, 4)]:
            kept = grouping._cell_count(m, cap) <= grouping._BATCH_CELLS
            for seed in range(2):
                misses = grouping._plan.cache_info().misses
                _, oracle = rician_oracle(m, cap, seed=seed)
                got = exhaustive_search(oracle)
                # a switch looks the plan up once; the second seed reuses it
                assert grouping._plan.cache_info().misses == misses + (seed == 0)
                assert (grouping._plan(m, cap, grouping._BATCH_CELLS) is None) != kept
                _, _, assign = loop_best_partition(_rates_by_mask(oracle), m, cap)
                assert got.groups == canonical_partition(blocks_of(assign))
                grouping._plan.cache_clear()
                _, fresh = rician_oracle(m, cap, seed=seed)
                assert solution_bits(got) == solution_bits(exhaustive_search(fresh))

    def test_threads_share_the_kept_plan(self):
        # eight threads switch between sizes, two of them kept and one
        # streamed, and each gets the solution a lone run gets
        cases = [(10, 4), (10, 3), (14, 4)]
        want = {c: solution_bits(exhaustive_search(rician_oracle(*c, seed=0)[1]))
                for c in cases}
        errors = []

        def worker(i):
            try:
                for j in range(4):
                    c = cases[(i + j) % len(cases)]
                    got = solution_bits(exhaustive_search(rician_oracle(*c, seed=0)[1]))
                    if got != want[c]:
                        errors.append((c, got))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestLimits:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rates(self, bad):
        rates = random_rates(np.random.default_rng(0), 4, 2)
        rates[0b0011] = bad
        with pytest.raises(ValueError, match="finite"):
            search_best_partition(rates, 2)

    def test_memory_at_size_limit(self):
        # 16 users is the most full search takes (MAX_SEARCH_USERS)
        rates = np.random.default_rng(0).uniform(0.0, 10.0, 2 ** 16)
        tracemalloc.start()
        try:
            count, _, _ = search_best_partition(rates, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == count_partitions(16, 6)
        assert peak < 32 * 2 ** 20

    def test_no_plan_above_the_budget_is_kept(self):
        _, oracle = rician_oracle(10, 4, seed=0)
        exhaustive_search(oracle)
        plan = grouping._plan(10, 4, grouping._BATCH_CELLS)
        for array in (*plan[1:4], *chain(*plan[4])):  # masks, size, place, cells
            assert array.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            plan[2][0] = 1
        _, oracle = rician_oracle(16, 4, seed=0)
        _rates_by_mask(oracle)  # the memo is filled before the trace starts
        tracemalloc.start()
        try:
            exhaustive_search(oracle)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 858,980 cells in three int64 arrays would hold about 20 MB
        assert grouping._cell_count(16, 4) > grouping._BATCH_CELLS
        assert held < 2 ** 20
        hits = grouping._plan.cache_info().hits
        assert grouping._plan(16, 4, grouping._BATCH_CELLS) is None
        assert grouping._plan.cache_info().hits == hits + 1  # the one slot
