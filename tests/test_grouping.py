from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugroup.baselines import random_grouping, sus_grouping, zfs_grouping
from mugroup.errors import SearchSpaceError
from mugroup.gma import gma, optimal_mu2_su
from mugroup.grouping import (
    GroupingSolution,
    _rates_by_mask,
    canonical_group,
    canonical_partition,
    count_partitions,
    exhaustive_search,
    objective,
    validate_partition,
)
from mugroup import grouping
from mugroup.phy import PhyConfig, RateOracle

from conftest import MCS_WITH_MAC, FixtureOracle, o1, o2, random_oracle, rician_oracle
from reference import enumerate_partitions


class TestValidatePartition:
    @pytest.mark.parametrize("members, message", [((), "non-empty"), ((2, 1, 2), "distinct")])
    def test_canonical_group_refusals(self, members, message):
        with pytest.raises(ValueError, match=message):
            canonical_group(members)

    def test_all_single_ok(self):
        assert validate_partition([(0,), (1,), (2,)], 3, 1) is None

    def test_duplicated_user(self):
        assert validate_partition([(0, 1), (1, 2)], 3, 2) == "duplicated users [1]"

    def test_oversize_group(self):
        report = validate_partition([(0, 1, 2, 3), (4,), (5,)], 6, 3)
        assert report == "oversize groups [(0, 1, 2, 3)]"

    def test_missing_user(self):
        assert validate_partition([(0,), (2,)], 3, 2) == "missing users [1]"

    def test_out_of_range_user(self):
        report = validate_partition([(0,), (1,), (5,), (-1,)], 3, 3)
        assert report == "missing users [2]; out-of-range users [-1, 5]"

    def test_every_violation_in_order(self):
        report = validate_partition([(3, 2, 1, 0), (1,), (7,)], 3, 2)
        assert report == ("duplicated users [1]; oversize groups [(0, 1, 2, 3)]; "
                          "out-of-range users [3, 7]")


class TestObjective:
    def test_direct_definition(self):
        oracle = FixtureOracle({(0,): 2.0, (1, 2): 3.0}, num_users=3)
        assert objective([(0,), (1, 2)], oracle) == 1 * 2.0 + 2 * 3.0

    def test_all_single_o1(self, oracle_o1):
        assert objective([(0,), (1,), (2,)], oracle_o1) == 12

    def test_pair_plus_single_o2(self, oracle_o2):
        assert objective([(0, 1), (2,)], oracle_o2) == 13

    def test_invalid_partition_rejected(self, oracle_o1):
        with pytest.raises(ValueError):
            objective([(0, 1), (1, 2)], oracle_o1)

    def test_reorder_invariance_exact(self, oracle_o2):
        assert objective([(2,), (1, 0)], oracle_o2) == objective([(0, 1), (2,)], oracle_o2)

    @pytest.mark.parametrize("sc", [1, 8])
    def test_cold_oracle_one_bulk_query(self, sc, monkeypatch):
        channels, _ = rician_oracle(11, 4, seed=7, sc=sc, rho=0.8, correlated=6)
        groups = [(3, 7, 9), (0,), (1, 10, 2, 5), (4, 6), (8,)]
        parts = canonical_partition(groups)
        scalar = RateOracle(channels, PhyConfig(), 4)
        want = 0.0
        for g in parts:
            want += len(g) * scalar.rate(g)
        cold = RateOracle(channels, PhyConfig(), 4)
        batches = []
        precompute = cold.precompute

        def counted(batch, **kwargs):
            batches.append(list(batch))
            precompute(batch, **kwargs)

        monkeypatch.setattr(cold, "precompute", counted)
        assert objective(groups, cold) == want
        assert batches == [list(parts)]  # every miss in one batch
        assert cold.query_count == len(parts)
        assert cold.compute_count == len(parts)
        # a second call is answered from the memo: more queries, no computes
        assert objective(groups, cold) == want
        assert cold.query_count == 2 * len(parts)
        assert cold.compute_count == len(parts)


class TestEnumeration:
    @pytest.mark.parametrize("m,smax,expected", [
        (3, 1, 1), (4, 2, 10), (6, 2, 76), (6, 3, 166), (5, 3, 46),
    ])
    def test_counts(self, m, smax, expected):
        assert count_partitions(m, smax) == expected
        assert sum(1 for _ in enumerate_partitions(m, smax)) == expected

    @pytest.mark.parametrize("m, smax, named", [(-1, 2, "num_users"), (3, 0, "max_size")])
    def test_count_refuses_bad_sizes(self, m, smax, named):
        with pytest.raises(ValueError, match=f"{named} must be >= "):
            count_partitions(m, smax)

    def test_recurrence_matches_enumeration(self):
        for m in range(1, 10):
            for smax in range(1, m + 1):
                assert count_partitions(m, smax) == sum(
                    1 for _ in enumerate_partitions(m, smax))

    def test_no_duplicates_and_canonical(self):
        seen = set()
        prev = None
        for parts in enumerate_partitions(6, 3):
            assert parts not in seen
            seen.add(parts)
            for block in parts:
                assert list(block) == sorted(block)
                assert len(block) <= 3
            firsts = [b[0] for b in parts]
            assert firsts == sorted(firsts)
            # restricted-growth encoding is lexicographically increasing
            code = tuple(
                next(i for i, b in enumerate(parts) if u in b) for u in range(6))
            if prev is not None:
                assert code > prev
            prev = code

    @given(st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_blocks_partition_everyone(self, m, smax):
        for parts in enumerate_partitions(m, smax):
            assert validate_partition(parts, m, smax) is None


class TestExhaustiveSearch:
    def test_o1_prefers_all_single(self):
        sol = exhaustive_search(o1(max_group_size=2))
        assert sol.groups == ((0,), (1,), (2,))
        assert sol.objective_value == 12

    def test_o2_prefers_pair(self):
        sol = exhaustive_search(o2(max_group_size=2))
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 13

    def test_single_user(self):
        oracle = FixtureOracle({(0,): 5.0}, num_users=1, max_group_size=1)
        sol = exhaustive_search(oracle)
        assert sol.groups == ((0,),)
        assert sol.objective_value == 5.0

    def test_cap_enforced(self):
        # more than 16 users is refused before any rate query
        oracle = FixtureOracle({}, size_defaults={1: 1.0, 2: 1.0}, num_users=17,
                               max_group_size=2)
        with pytest.raises(SearchSpaceError):
            exhaustive_search(oracle)
        assert oracle.query_count == 0

    def test_all_single_at_any_size(self):
        oracle = FixtureOracle({}, size_defaults={1: 1.0}, num_users=40, max_group_size=1)
        sol = exhaustive_search(oracle)
        assert sol.groups == tuple((u,) for u in range(40))
        assert sol.objective_value == 40.0

    def test_beats_every_sampled_partition(self):
        rng = np.random.default_rng(3)
        oracle = random_oracle(rng, 7, 3)
        sol = exhaustive_search(oracle)
        parts = list(enumerate_partitions(7, 3))
        for idx in rng.choice(len(parts), size=40, replace=False):
            assert sol.objective_value >= objective(parts[idx], oracle) - 1e-12

    def test_matches_generator_argmax(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            m = int(rng.integers(2, 8))
            smax = int(rng.integers(2, 4))
            oracle = random_oracle(rng, m, smax)
            sol = exhaustive_search(oracle)
            best = max(objective(p, oracle) for p in enumerate_partitions(m, smax))
            assert sol.objective_value == pytest.approx(best, rel=1e-12)

    def test_tie_break_first_in_canonical_order(self):
        # equal rates for every group make all partitions score M * r, so
        # the first canonical partition must win
        m, smax = 5, 3
        oracle = FixtureOracle({}, size_defaults={1: 2.0, 2: 2.0, 3: 2.0},
                               num_users=m, max_group_size=smax)
        sol = exhaustive_search(oracle)
        first = next(iter(enumerate_partitions(m, smax)))
        assert sol.groups == canonical_partition(first)

    def test_solution_invariants(self):
        _, oracle = rician_oracle(8, 3, seed=13)
        sol = exhaustive_search(oracle)
        assert validate_partition(sol.groups, 8, 3) is None
        assert sol.objective_value == pytest.approx(
            objective(sol.groups, oracle), rel=1e-9)


def assert_no_heuristic_beats_optimum(m, seed):
    _, oracle = rician_oracle(m, 4, seed=seed)
    best = exhaustive_search(oracle)
    for sol in (best, optimal_mu2_su(oracle), gma(oracle), zfs_grouping(oracle),
                sus_grouping(oracle), random_grouping(oracle, seed)):
        assert validate_partition(sol.groups, oracle.num_users, oracle.max_group_size) is None
        assert sol.objective_value <= best.objective_value


class TestCrossSolvers:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_heuristic_beats_optimum_at_m14(self, seed):
        # M=14, Nu=4 has 135,399,720 partitions
        assert_no_heuristic_beats_optimum(14, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_heuristic_beats_optimum_at_m16(self, seed):
        # M=16, Nu=4, the largest full search, has 6,631,556,521 partitions
        assert_no_heuristic_beats_optimum(16, seed)


def mask(group):
    return sum(1 << u for u in group)


class TestHypergraph:
    """The group hypergraph as full search stores it: the rate of every
    candidate group by member bitmask, from ``_rates_by_mask``."""

    def test_edge_counts_small(self):
        oracle = o1(max_group_size=2)
        rates = _rates_by_mask(oracle)
        assert np.count_nonzero(rates) == 6  # 3 singletons + 3 pairs
        assert oracle.query_count == 6

    def test_edge_counts_m12(self):
        oracle = FixtureOracle({}, size_defaults={1: 1.0, 2: 1.0, 3: 1.0}, num_users=12)
        rates = _rates_by_mask(oracle)
        assert len(rates) == 2 ** 12
        assert np.count_nonzero(rates) == 12 + 66 + 220

    def test_weights_delegate_to_oracle(self):
        rates = _rates_by_mask(o1(max_group_size=2))
        assert rates[mask((0, 1))] == 3.5
        assert rates[mask((2,))] == 4.0
        assert rates[mask((0, 1, 2))] == 0.0  # above the cap

    def test_cold_full_search_checks_no_subset(self, check_calls):
        # the 385 subsets of size <= 4 come from the oracle's own users and
        # cap, so none of them is checked on its own
        _, oracle = rician_oracle(10, 4, seed=0)
        sol = exhaustive_search(oracle)
        assert check_calls == []
        assert oracle.query_count == 385 + len(sol.groups)  # table, objective

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    @pytest.mark.parametrize("m, smax", [(5, 2), (8, 3), (10, 4), (12, 4)])
    def test_batch_fill_matches_per_group_queries(self, cfg, m, smax):
        seed, sc = m + smax, 1 + m % 2 * 7
        _, batch = rician_oracle(m, smax, seed, sc=sc, phy=cfg)
        _, single = rician_oracle(m, smax, seed, sc=sc, phy=cfg)
        table = _rates_by_mask(batch)
        want = np.zeros(2 ** m)
        for size in range(1, smax + 1):
            for g in combinations(range(m), size):
                want[mask(g)] = single.rates([g])[0]
        assert table.tobytes() == want.tobytes()
        assert batch.query_count == single.query_count
        assert batch.compute_count == single.compute_count
        assert list(batch._memo) == list(single._memo)
        assert (np.array(list(batch._memo.values())).tobytes()
                == np.array(list(single._memo.values())).tobytes())


# A 12-vertex instance with ten hyperedges: three pair edges, four triples
# and three singletons, arranged so e1, e3, e4, e6, e7, e9 tile the vertices.
FIG_EDGES = (
    (0, 1),      # e1
    (1, 2),      # e2
    (2, 3, 5),   # e3
    (4,),        # e4
    (4, 6, 9),   # e5
    (11,),       # e6
    (6, 7, 8),   # e7
    (7, 10, 11), # e8
    (9, 10),     # e9
    (0,),        # e10
)


class TestCompleteMatching:
    """A selection of hyperedges is a complete matching exactly when its
    groups partition the users, which ``validate_partition`` decides."""

    def check(self, selected):
        return validate_partition([FIG_EDGES[i] for i in selected], 12, 3)

    def test_tiling_selection_is_complete(self):
        assert self.check([0, 2, 3, 5, 6, 8]) is None

    def test_matching_but_incomplete(self):
        assert self.check([0, 2, 3]) == "missing users [6, 7, 8, 9, 10, 11]"

    def test_overlapping_edges_rejected(self):
        # e1 and e2 share vertex 1
        assert self.check([0, 1, 2, 3, 5, 6, 8]) == "duplicated users [1, 2]"

    def test_partition_equivalence_small(self):
        # every valid partition is a complete matching whose hyperedge
        # weights, read from the full-search table, sum to the objective
        rng = np.random.default_rng(5)
        for m in (3, 4, 5, 6):
            oracle = random_oracle(rng, m, 3)
            rates = _rates_by_mask(oracle)
            for parts in enumerate_partitions(m, 3):
                assert validate_partition(parts, m, 3) is None
                score = 0.0
                for g in parts:
                    score += len(g) * rates[mask(g)]
                assert score == objective(parts, oracle)


class TestGroupingSolution:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            GroupingSolution(((0, 1), (1, 2)), 3)

    def test_error_messages(self):
        with pytest.raises(ValueError) as err:
            GroupingSolution(((0, 1), (1, 2)), 3)
        assert str(err.value) == "invalid partition: duplicated users [1]"
        with pytest.raises(ValueError) as err:
            objective([(0, 1), (3,)], FixtureOracle({(0,): 1.0}, num_users=4))
        assert str(err.value) == "invalid partition: missing users [2]; out-of-range users [3]"

    def test_canonicalizes(self):
        sol = GroupingSolution(((2,), (1, 0)), 3, 1.0)
        assert sol.groups == ((0, 1), (2,))

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_solve_checks_and_scores_its_partition_once(self, cfg, seed, monkeypatch):
        # every solver validates and canonicalizes the partition it returns
        # once, when its solution is built, and the value it reports has
        # the bits of ``objective`` on a fresh oracle; cold oracles and one
        # shared oracle, full search first, as a user sweep runs them
        solvers = {"full_search": exhaustive_search, "blossom": optimal_mu2_su, "gma": gma,
                   "zfs": zfs_grouping, "sus": sus_grouping,
                   "random": lambda oracle: random_grouping(oracle, seed)}
        channels, shared = rician_oracle(10, 4, seed=seed, sc=2, rho=0.5, correlated=4, phy=cfg)
        calls = []
        for name in ("validate_partition", "canonical_partition"):
            fn = getattr(grouping, name)
            monkeypatch.setattr(grouping, name,
                                lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        for solver, solve in solvers.items():
            for oracle in (RateOracle(channels, cfg, 4), shared):
                calls.clear()
                sol = solve(oracle)
                assert calls == ["validate_partition", "canonical_partition"], solver
                fresh = RateOracle(channels, cfg, 4)
                assert sol.objective_value == objective(sol.groups, fresh), solver
