import sys

import numpy as np
import pytest

import mugroup.gma  # noqa: F401  (register the submodule)
from mugroup.gma import gma, optimal_mu2_su
from mugroup.gma import _merge_pass, _split_and_balance

gma_mod = sys.modules["mugroup.gma"]
from mugroup.grouping import exhaustive_search, objective, validate_partition
from mugroup.matching import hungarian
from mugroup.phy import MAC_OVERHEAD_FACTOR, PhyConfig, RateMode

from conftest import (
    MCS_WITH_MAC,
    FixtureOracle,
    TWELVE_STATION_PAIRS,
    TWELVE_STATION_RESULT,
    o2,
    random_oracle,
    rician_oracle,
)
from reference import brute_force_assignment, networkx_matching


class TestOptimalMu2Su:
    def test_o1_all_single(self, oracle_o1):
        sol = optimal_mu2_su(oracle_o1)
        assert sol.groups == ((0,), (1,), (2,))
        assert sol.objective_value == 12

    def test_o2_pairs_users(self, oracle_o2):
        sol = optimal_mu2_su(oracle_o2)
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 13

    def test_single_user(self):
        oracle = FixtureOracle({(0,): 7.0}, num_users=1)
        sol = optimal_mu2_su(oracle)
        assert sol.groups == ((0,),)
        assert sol.objective_value == 7.0

    def test_exact_vs_search_random_oracles(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            m = int(rng.integers(2, 11))
            oracle = random_oracle(rng, m, 2)
            fast = optimal_mu2_su(oracle)
            full = exhaustive_search(oracle)
            assert fast.objective_value == full.objective_value

    def test_cold_solve_checks_singles_only(self, check_calls):
        # the singles query checks the user range; the 66 pairs then fill
        # the memo unchecked, and the objective reads memo hits
        _, oracle = rician_oracle(12, 4, seed=12)
        optimal_mu2_su(oracle)
        assert check_calls == [(u,) for u in range(12)]

    def test_pairs_beyond_the_group_cap_raise(self):
        # a cap of one is refused before any rate query
        _, oracle = rician_oracle(5, 1, seed=5)
        with pytest.raises(ValueError, match="pairing needs a group cap of at least 2, got 1"):
            optimal_mu2_su(oracle)
        assert (oracle.query_count, oracle.compute_count, oracle._memo) == (0, 0, {})

    @pytest.mark.parametrize("m", [12, 14, 16])
    def test_matches_full_search_on_rician(self, m):
        _, oracle = rician_oracle(m, 2, seed=m)
        fast = optimal_mu2_su(oracle)
        full = exhaustive_search(oracle)
        assert fast.groups == full.groups
        assert fast.objective_value == full.objective_value


class TestMergeGain:
    """``_merge_pass`` keeps a merge only when (|g|+1) R(g+u) - |g| R(g) -
    R(u) > 0, read from its assignment matrix and the parts' rates."""

    def test_reject_case(self, oracle_o2):
        # 3 * 0.8 - 2 * 4.5 - 4 = -10.6
        assert _merge_pass([(0, 1), (2,)], oracle_o2) == [(0, 1), (2,)]

    def test_accept_case(self):
        # 2 * 4.5 - 4 - 4 = 1
        assert _merge_pass([(0,), (1,)], o2(2)) == [(0, 1)]

    def test_zero_rate_merge_never_accepted(self):
        oracle = FixtureOracle({(0,): 3.0, (1,): 2.0, (0, 1): 0.0}, num_users=2,
                               max_group_size=2)
        assert _merge_pass([(0,), (1,)], oracle) == [(0,), (1,)]
        # every merge of group (0,) has rate 0, so the assignment has to give
        # it a sentinel entry, and that merge is not taken
        oracle = FixtureOracle({(0,): 4.0, (1,): 3.0, (2,): 2.0, (3,): 1.0,
                                (0, 2): 0.0, (0, 3): 0.0, (1, 2): 5.0, (1, 3): 5.0},
                               num_users=4, max_group_size=2)
        assert _merge_pass([(0,), (1,), (2,), (3,)], oracle) == [(0,), (2,), (1, 3)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("phy", [None, MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_pass_queries_only_its_matrix_and_parts(self, seed, phy):
        # beyond the queries of the split, a pass asks for every S1 x S2
        # merge and the rate of every part, once each
        _, oracle = rician_oracle(10, 4, seed, phy=phy)
        groups = list(optimal_mu2_su(oracle).groups)
        before = oracle.query_count
        _, s1, s2 = _split_and_balance(groups, oracle)
        split = oracle.query_count - before
        before = oracle.query_count
        _merge_pass(groups, oracle)
        added = oracle.query_count - before - split
        assert s2 and added == len(s1) * len(s2) + len(s1) + len(s2)


class TestGma:
    def test_o1_keeps_singles(self, oracle_o1):
        sol = gma(oracle_o1)
        assert sol.groups == ((0,), (1,), (2,))
        assert sol.objective_value == 12

    def test_o2_keeps_best_pair(self, oracle_o2):
        sol = gma(oracle_o2)
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 13

    def test_cap_two_equals_pairing_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(2, 10))
            oracle = random_oracle(rng, m, 2)
            assert gma(oracle).groups == optimal_mu2_su(oracle).groups

    @pytest.mark.parametrize("phy", [None, MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_cold_solve_checks_singles_only(self, check_calls, phy):
        # the merge passes build each S1 x S2 merge sorted and fill the
        # memo unchecked; every later query reads memo hits
        _, oracle = rician_oracle(24, 4, seed=24, sc=8, phy=phy)
        sol = gma(oracle)
        assert check_calls == [(u,) for u in range(24)]
        assert any(len(g) > 2 for g in sol.groups)
        assert all(g in oracle._memo for g in sol.groups)

    @pytest.mark.parametrize("cap, queries", [(3, 5), (4, 7)])
    def test_single_user_above_cap_two(self, cap, queries):
        # the merge passes find S1 and S2 empty and keep the singleton
        _, oracle = rician_oracle(1, cap, seed=4)
        sol = gma(oracle)
        assert (oracle.query_count, oracle.compute_count) == (queries, 1)
        assert sol.groups == ((0,),)
        assert sol.objective_value == oracle.rate((0,)) > 0

    def test_cap_below_two_rejected(self):
        # refused by the pairing pass, before any rate query
        _, oracle = rician_oracle(5, 1, seed=5)
        with pytest.raises(ValueError, match="pairing needs a group cap of at least 2, got 1"):
            gma(oracle)
        assert (oracle.query_count, oracle.compute_count, oracle._memo) == (0, 0, {})

    def test_twelve_station_flow(self, twelve_station_oracle):
        pairs = optimal_mu2_su(twelve_station_oracle)
        pair_groups = sorted(g for g in pairs.groups if len(g) == 2)
        assert pair_groups == TWELVE_STATION_PAIRS
        sol = gma(twelve_station_oracle)
        assert sorted(sol.groups) == TWELVE_STATION_RESULT

    def test_sort_metric_variants_agree_on_flow(self, twelve_station_oracle,
                                                monkeypatch):
        # ordering by R(g) instead of |g| * R(g) must not change the outcome
        baseline = gma(twelve_station_oracle)
        monkeypatch.setattr(gma_mod, "_group_metric", lambda g, oracle: oracle.rate(g))
        variant = gma(twelve_station_oracle)
        assert variant.groups == baseline.groups

    def test_output_is_valid_partition(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            m = int(rng.integers(2, 13))
            cap = int(rng.integers(2, 5))
            oracle = random_oracle(rng, m, cap)
            sol = gma(oracle)
            assert validate_partition(sol.groups, m, cap) is None
            assert sol.objective_value == pytest.approx(
                objective(sol.groups, oracle), rel=1e-9)

    def test_deterministic(self):
        _, oracle = rician_oracle(12, 3, seed=21)
        assert gma(oracle).groups == gma(oracle).groups

    def test_anytime_monotone_over_split_configuration(self):
        # after splitting, each accept/reject can only hold or raise the
        # objective of the working partition
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = int(rng.integers(3, 12))
            oracle = random_oracle(rng, m, 3)
            start = list(optimal_mu2_su(oracle).groups)
            committed, s1, s2 = _split_and_balance(start, oracle)
            pre = objective(committed + s1 + s2, oracle)
            merged = _merge_pass(start, oracle)
            assert objective(merged, oracle) >= pre - 1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the second merge pass lowers the objective from 7.254e9 "
        "to 6.946e9 on this instance, seed 3 of the exact_m10 benchmark config"))
    def test_no_merge_pass_lowers_objective(self):
        _, oracle = rician_oracle(10, 4, seed=3)
        groups = list(optimal_mu2_su(oracle).groups)
        before = objective(groups, oracle)
        for _ in range(2):
            groups = _merge_pass(groups, oracle)
            after = objective(groups, oracle)
            assert after >= before
            before = after

    def test_never_below_all_singletons_from_split(self):
        _, oracle = rician_oracle(10, 3, seed=22)
        sol = gma(oracle)
        singles = objective([(u,) for u in range(10)], oracle)
        # pairing stage is exact, so the result beats pure SU
        assert sol.objective_value >= singles - 1e-9


@pytest.mark.parametrize("m, seeds, sc, phy", [
    (10, range(50), 1, None),
    (40, range(20), 8, MCS_WITH_MAC),
], ids=["exact_m10_shannon", "m40_mcs_mac"])
def test_solves_unchanged_with_networkx_matching(monkeypatch, m, seeds, sc, phy):
    # the blossom port picks networkx's pairs among tied optima, so no
    # solve may move when the networkx reference stands in for it
    for seed in seeds:
        _, oracle = rician_oracle(m, 4, seed, sc=sc, phy=phy)
        ours = optimal_mu2_su(oracle), gma(oracle)
        with monkeypatch.context() as patch:
            patch.setattr(gma_mod, "max_weight_matching", networkx_matching)
            ref = optimal_mu2_su(oracle), gma(oracle)
        for a, b in zip(ours, ref):
            assert a.groups == b.groups
            assert a.objective_value == b.objective_value


class TestMcsTieBreak:
    """MCS rates are quantized, so merge benefits tie exactly and
    ``hungarian``'s lexicographic rule picks between equal optima.  The
    labeling solver alone picks another optimum on this instance and GMA
    then returns other groups (7 of Rician seeds 0-99 at M=10, Nu=4
    change that way)."""

    def test_groups_pinned_on_tied_instance(self, monkeypatch):
        phy = PhyConfig(rate_mode=RateMode.MCS_MAPPED, mac_overhead_enabled=True)
        _, oracle = rician_oracle(10, 4, seed=44, phy=phy)
        matrices = []

        def recording(w):
            matrices.append(np.array(w))
            return hungarian(w)

        monkeypatch.setattr(gma_mod, "hungarian", recording)
        sol = gma(oracle)
        assert sol.groups == ((0, 9), (1,), (2, 4, 5), (3, 7, 8), (6,))

        first = matrices[0]  # the benefits of the first merge pass
        assert first.shape == (3, 3)
        assert hungarian(first)[0] == (1, 0, 2)
        # In whole units of the MCS rate step the optima (1, 0, 2) and
        # (2, 0, 1) tie exactly.  The brute-force oracle sums floats, which
        # rank (2, 0, 1) one ulp higher on ``first`` itself, so it is only
        # asked about the integer matrix.
        step = 5e6 * MAC_OVERHEAD_FACTOR
        units = np.rint(first / step)
        np.testing.assert_allclose(units * step, first, rtol=1e-12, atol=0)
        assert units[0, 1] + units[2, 2] == units[0, 2] + units[2, 1]
        assert hungarian(units)[0] == brute_force_assignment(units)[0] == (1, 0, 2)


class TestSplitBalance:
    def test_balances_cardinalities(self, twelve_station_oracle):
        groups = list(optimal_mu2_su(twelve_station_oracle).groups)
        committed, s1, s2 = _split_and_balance(groups, twelve_station_oracle)
        assert len(s1) == len(s2)
        assert all(len(g) == 1 for g in s2)
        # every user is accounted for exactly once
        everyone = sorted(u for g in committed + s1 + s2 for u in g)
        assert everyone == list(range(12))

    def test_weakest_groups_are_decomposed(self, twelve_station_oracle):
        groups = list(optimal_mu2_su(twelve_station_oracle).groups)
        _, _, s2 = _split_and_balance(groups, twelve_station_oracle)
        # the low-rate pair (F, I) and both singles C, L land in s2
        assert sorted(s2) == [(2,), (5,), (8,), (11,)]
