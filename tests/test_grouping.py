import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugroup.baselines import random_grouping, sus_grouping, zfs_grouping
from mugroup.errors import SearchSpaceError
from mugroup.gma import gma, optimal_mu2_su
from mugroup.grouping import (
    GroupingSolution,
    Hypergraph,
    build_hypergraph,
    canonical_partition,
    count_partitions,
    enumerate_partitions,
    exhaustive_search,
    is_complete_matching,
    objective,
    validate_partition,
)
from mugroup.phy import PhyConfig, RateOracle

from conftest import FixtureOracle, random_oracle, rician_oracle


class TestValidatePartition:
    def test_all_single_ok(self):
        assert validate_partition([(0,), (1,), (2,)], 3, 1) is None

    def test_duplicated_user(self):
        report = validate_partition([(0, 1), (1, 2)], 3, 2)
        assert report is not None
        assert report.duplicated == (1,)

    def test_oversize_group(self):
        report = validate_partition([(0, 1, 2, 3), (4,), (5,)], 6, 3)
        assert report is not None
        assert report.oversize == ((0, 1, 2, 3),)

    def test_missing_user(self):
        report = validate_partition([(0,), (2,)], 3, 2)
        assert report.missing == (1,)


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

        def counted(batch):
            batches.append(list(batch))
            precompute(batch)

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
    def test_o1_prefers_all_single(self, oracle_o1):
        sol = exhaustive_search(3, 2, oracle_o1)
        assert sol.groups == ((0,), (1,), (2,))
        assert sol.objective_value == 12

    def test_o2_prefers_pair(self, oracle_o2):
        sol = exhaustive_search(3, 2, oracle_o2)
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 13

    def test_single_user(self):
        oracle = FixtureOracle({(0,): 5.0}, num_users=1)
        sol = exhaustive_search(1, 1, oracle)
        assert sol.groups == ((0,),)
        assert sol.objective_value == 5.0

    def test_cap_enforced(self):
        # more than 16 users is refused before any rate query
        oracle = FixtureOracle({}, size_defaults={1: 1.0, 2: 1.0}, num_users=17)
        with pytest.raises(SearchSpaceError):
            exhaustive_search(17, 2, oracle)
        assert oracle.query_count == 0

    def test_all_single_at_any_size(self):
        oracle = FixtureOracle({}, size_defaults={1: 1.0}, num_users=40)
        sol = exhaustive_search(40, 1, oracle)
        assert sol.groups == tuple((u,) for u in range(40))
        assert sol.objective_value == 40.0

    def test_beats_every_sampled_partition(self):
        rng = np.random.default_rng(3)
        oracle = random_oracle(rng, 7, 3)
        sol = exhaustive_search(7, 3, oracle)
        parts = list(enumerate_partitions(7, 3))
        for idx in rng.choice(len(parts), size=40, replace=False):
            assert sol.objective_value >= objective(parts[idx], oracle) - 1e-12

    def test_matches_generator_argmax(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            m = int(rng.integers(2, 8))
            smax = int(rng.integers(2, 4))
            oracle = random_oracle(rng, m, smax)
            sol = exhaustive_search(m, smax, oracle)
            best = max(objective(p, oracle) for p in enumerate_partitions(m, smax))
            assert sol.objective_value == pytest.approx(best, rel=1e-12)

    def test_tie_break_first_in_canonical_order(self):
        # equal rates for every group make all partitions score M * r, so
        # the first canonical partition must win
        m, smax = 5, 3
        oracle = FixtureOracle({}, size_defaults={1: 2.0, 2: 2.0, 3: 2.0},
                               num_users=m)
        sol = exhaustive_search(m, smax, oracle)
        first = next(iter(enumerate_partitions(m, smax)))
        assert sol.groups == canonical_partition(first)

    def test_solution_invariants(self):
        _, oracle = rician_oracle(8, 3, seed=13)
        sol = exhaustive_search(8, 3, oracle)
        assert validate_partition(sol.groups, 8, 3) is None
        assert sol.objective_value == pytest.approx(
            objective(sol.groups, oracle), rel=1e-9)


class TestCrossSolvers:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_heuristic_beats_optimum_at_m14(self, seed):
        # M=14, Nu=4 has 135,399,720 partitions
        channels, oracle = rician_oracle(14, 4, seed=seed)
        best = exhaustive_search(14, 4, oracle).objective_value
        for sol in (optimal_mu2_su(oracle, 14), gma(oracle, 14, 4),
                    zfs_grouping(oracle, 14, 4), sus_grouping(channels, oracle, 14, 4),
                    random_grouping(14, 4, seed, oracle)):
            assert sol.objective_value <= best


class TestHypergraph:
    def test_edge_counts_small(self, oracle_o1):
        h = build_hypergraph(3, 2, oracle_o1)
        assert len(h.hyperedges) == 6  # 3 singletons + 3 pairs

    def test_edge_counts_m12(self):
        oracle = FixtureOracle({}, size_defaults={1: 1.0, 2: 1.0, 3: 1.0}, num_users=12)
        h = build_hypergraph(12, 3, oracle)
        assert len(h.hyperedges) == 12 + 66 + 220

    def test_weights_delegate_to_oracle(self, oracle_o1):
        h = build_hypergraph(3, 2, oracle_o1)
        weights = dict(h.hyperedges)
        assert weights[(0, 1)] == 3.5
        assert weights[(2,)] == 4.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(2, (((0,), -1.0),))


# A 12-vertex instance with ten hyperedges: three pair edges, four triples
# and three singletons, arranged so e1, e3, e4, e6, e7, e9 tile the vertices.
FIG_EDGES = (
    ((0, 1), 1.0),      # e1
    ((1, 2), 1.0),      # e2
    ((2, 3, 5), 1.0),   # e3
    ((4,), 1.0),        # e4
    ((4, 6, 9), 1.0),   # e5
    ((11,), 1.0),       # e6
    ((6, 7, 8), 1.0),   # e7
    ((7, 10, 11), 1.0), # e8
    ((9, 10), 1.0),     # e9
    ((0,), 1.0),        # e10
)


class TestCompleteMatching:
    @pytest.fixture
    def tiling_instance(self):
        return Hypergraph(12, FIG_EDGES)

    def test_tiling_selection_is_complete(self, tiling_instance):
        assert is_complete_matching(tiling_instance, [0, 2, 3, 5, 6, 8])

    def test_matching_but_incomplete(self, tiling_instance):
        assert not is_complete_matching(tiling_instance, [0, 2, 3])

    def test_overlapping_edges_rejected(self, tiling_instance):
        # e1 and e2 share vertex 1
        assert not is_complete_matching(tiling_instance, [0, 1, 2, 3, 5, 6, 8])

    def test_partition_equivalence_small(self):
        # every valid partition corresponds to a complete matching whose
        # weighted score equals the objective
        rng = np.random.default_rng(5)
        for m in (3, 4, 5, 6):
            oracle = random_oracle(rng, m, 3)
            h = build_hypergraph(m, 3, oracle)
            index = {members: i for i, (members, _) in enumerate(h.hyperedges)}
            for parts in enumerate_partitions(m, 3):
                selected = [index[g] for g in parts]
                assert is_complete_matching(h, selected)
                score = sum(len(h.hyperedges[i][0]) * h.hyperedges[i][1]
                            for i in selected)
                assert score == pytest.approx(objective(parts, oracle), rel=1e-12)


class TestGroupingSolution:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            GroupingSolution(((0, 1), (1, 2)), 3)

    def test_canonicalizes(self):
        sol = GroupingSolution(((2,), (1, 0)), 3, 1.0)
        assert sol.groups == ((0, 1), (2,))
