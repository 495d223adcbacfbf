import numpy as np
import pytest

from mugroup.grouping import active_backend, count_partitions, search_best_partition

from reference import enumerate_partitions


def random_rates(rng, n, smax):
    rates = np.zeros(2 ** n)
    for mask in range(1, 2 ** n):
        if bin(mask).count("1") <= smax:
            rates[mask] = rng.uniform(0.0, 10.0)
    return rates


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

    def test_active_backend_name(self):
        assert active_backend() == "python"
