import numpy as np
import pytest

from mugroup import baselines
from mugroup.baselines import SusParams, random_grouping, sus_grouping, zfs_grouping
from mugroup.channel import ChannelSet, pairwise_correlation
from mugroup.grouping import objective, validate_partition
from mugroup.phy import PhyConfig, make_rate_oracle

from conftest import identity_channels, random_oracle, rician_oracle


class TestZfs:
    def test_greedy_overshoots_on_o1(self, oracle_o1):
        # the weighted-rate greedy accepts {0,1} (7 > 4) even though all-SU
        # scores 12; documented illustration of greedy suboptimality
        sol = zfs_grouping(oracle_o1, 3, 2)
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 11

    def test_matches_optimum_on_o2(self, oracle_o2):
        sol = zfs_grouping(oracle_o2, 3, 2)
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 13

    def test_orthogonal_channels_form_full_group(self, phy_unit):
        channels = identity_channels(2)
        oracle = make_rate_oracle(channels, phy_unit, 2)
        sol = zfs_grouping(oracle, 2, 2)
        assert sol.groups == ((0, 1),)

    def test_respects_max_size(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            cap = int(rng.integers(1, 4))
            oracle = random_oracle(rng, m, max(cap, 1))
            sol = zfs_grouping(oracle, m, cap)
            assert validate_partition(sol.groups, m, cap) is None


class TestSus:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            SusParams(alpha=1.5, sweep=None)
        with pytest.raises(ValueError):
            SusParams(sweep=())

    def test_orthogonal_three_users_one_group(self):
        channels = identity_channels(3)
        oracle = make_rate_oracle(channels, PhyConfig(), 3)
        sol = sus_grouping(channels, oracle, 3, 3, SusParams(alpha=0.5, sweep=None))
        assert sol.groups == ((0, 1, 2),)

    def test_collinear_users_never_grouped(self):
        h = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=complex)[:, :, None]
        channels = ChannelSet(3, 3, 1, h)
        oracle = make_rate_oracle(channels, PhyConfig(), 3)
        sol = sus_grouping(channels, oracle, 3, 3, SusParams(alpha=0.3, sweep=None))
        for g in sol.groups:
            assert not (0 in g and 1 in g)

    def test_sweep_returns_best_single_alpha_run(self):
        channels, oracle = rician_oracle(8, 3, seed=30)
        alphas = (0.2, 0.4, 0.6)
        best = max(
            sus_grouping(channels, oracle, 8, 3, SusParams(alpha=a, sweep=None))
            .objective_value
            for a in alphas
        )
        swept = sus_grouping(channels, oracle, 8, 3, SusParams(sweep=alphas))
        assert swept.objective_value == best

    def test_sweep_computes_each_correlation_once(self, monkeypatch):
        channels, oracle = rician_oracle(12, 4, seed=31)
        calls = []

        def counted(chs, u, s):
            calls.append((u, s))
            return pairwise_correlation(chs, u, s)

        monkeypatch.setattr(baselines, "pairwise_correlation", counted)
        swept = sus_grouping(channels, oracle, 12, 4)
        assert len(calls) == len(set(calls))
        monkeypatch.undo()
        runs = [sus_grouping(channels, oracle, 12, 4, SusParams(alpha=a, sweep=None))
                for a in SusParams().sweep]
        best = max(runs, key=lambda r: r.objective_value)
        assert swept.groups == best.groups

    def test_valid_partitions(self):
        for seed in range(5):
            channels, oracle = rician_oracle(9, 3, seed=seed)
            sol = sus_grouping(channels, oracle, 9, 3)
            assert validate_partition(sol.groups, 9, 3) is None


class TestRandomGrouping:
    def test_chunk_sizes_even(self):
        sol = random_grouping(6, 3, seed=1)
        assert sorted(len(g) for g in sol.groups) == [3, 3]

    def test_chunk_sizes_remainder(self):
        sol = random_grouping(7, 3, seed=2)
        assert sorted(len(g) for g in sol.groups) == [1, 3, 3]

    def test_deterministic_per_seed(self):
        assert random_grouping(9, 3, seed=3).groups == random_grouping(9, 3, seed=3).groups

    def test_seeds_differ(self):
        outcomes = {random_grouping(9, 3, seed=s).groups for s in range(8)}
        assert len(outcomes) > 1

    def test_objective_filled_with_oracle(self, oracle_o1):
        sol = random_grouping(3, 1, seed=0, oracle=oracle_o1)
        assert sol.objective_value == objective(sol.groups, oracle_o1)

    def test_valid_partition_any_seed(self):
        for seed in range(10):
            sol = random_grouping(11, 4, seed=seed)
            assert validate_partition(sol.groups, 11, 4) is None
