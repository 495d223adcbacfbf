import numpy as np
import pytest

from mugroup import baselines
from mugroup.baselines import SusParams, random_grouping, sus_grouping, zfs_grouping
from mugroup.channel import ChannelSet, correlation_matrix
from mugroup.gma import gma, optimal_mu2_su
from mugroup.grouping import canonical_partition, objective, validate_partition
from mugroup.phy import PhyConfig, RateMode, RateOracle, make_rate_oracle

from conftest import identity_channels, random_oracle, rician_oracle, vdot_correlation

MCS_WITH_MAC = PhyConfig(rate_mode=RateMode.MCS_MAPPED, mac_overhead_enabled=True)


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


def fresh_orthogonal_norm(channels, user, members):
    """Mean over subcarriers of the user's channel norm outside the span of
    the members' channels, from a fresh QR per subcarrier."""
    vals = []
    for s in range(channels.num_subcarriers):
        h = channels.entries[user, :, s]
        q, _ = np.linalg.qr(channels.entries[list(members), :, s].T)
        vals.append(np.linalg.norm(h - q @ (q.conj().T @ h)))
    return float(np.array(vals).mean())


def reference_sus(channels, oracle, num_users, max_size, params=SusParams()):
    """SUS as a per-pair loop: one correlation per (candidate, member) and
    one projection per candidate and step; scalar rate queries.  Returns
    the best (groups, objective) over the sweep."""
    norms = np.linalg.norm(channels.entries, axis=1).mean(axis=1)
    alphas = params.sweep if params.sweep is not None else (params.alpha,)
    best_parts, best_value = None, -1.0
    for alpha in alphas:
        remaining = set(range(num_users))
        groups = []
        while remaining:
            seed = max(sorted(remaining), key=lambda u: norms[u])
            members = [seed]
            remaining.remove(seed)
            while len(members) < max_size:
                qualified = [
                    u for u in sorted(remaining)
                    if all(vdot_correlation(channels, u, s) <= alpha for s in members)
                ]
                if not qualified:
                    break
                pick = max(qualified,
                           key=lambda u: fresh_orthogonal_norm(channels, u, members))
                members.append(pick)
                remaining.remove(pick)
            groups.append(members)
        parts = canonical_partition(groups)
        value = 0.0
        for g in parts:
            value += len(g) * oracle.rate(g)
        if value > best_value:
            best_parts, best_value = parts, value
    return best_parts, best_value


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

    def test_ties_pick_lowest_index(self):
        # equal norms and equal orthogonal components everywhere
        channels = identity_channels(4)
        oracle = make_rate_oracle(channels, PhyConfig(), 2)
        sol = sus_grouping(channels, oracle, 4, 2, SusParams(alpha=0.5, sweep=None))
        assert sol.groups == ((0, 1), (2, 3))

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

        def counted(chs, users=None):
            calls.append(users)
            return correlation_matrix(chs, users)

        monkeypatch.setattr(baselines, "correlation_matrix", counted)
        swept = sus_grouping(channels, oracle, 12, 4)
        assert len(calls) == 1
        monkeypatch.undo()
        runs = [sus_grouping(channels, oracle, 12, 4, SusParams(alpha=a, sweep=None))
                for a in SusParams().sweep]
        best = max(runs, key=lambda r: r.objective_value)
        assert swept.groups == best.groups

    def test_sweep_computes_each_member_basis_once(self, monkeypatch):
        channels, oracle = rician_oracle(16, 4, seed=32, sc=8)
        calls = []

        def counted(chs, members):
            calls.append(members)
            return member_basis(chs, members)

        member_basis = baselines._member_basis
        monkeypatch.setattr(baselines, "_member_basis", counted)
        sus_grouping(channels, oracle, 16, 4)
        assert calls and len(calls) == len(set(calls))
        # a batch scores each candidate exactly as a batch of one does, and
        # as a fresh QR projection per candidate does up to rounding
        for members in calls:
            basis = member_basis(channels, members)
            users = np.array(sorted(set(range(16)) - set(members)))
            batch = baselines._orthogonal_norms(channels, users, basis)
            for u, got in zip(users, batch):
                assert got == baselines._orthogonal_norms(channels, users[users == u], basis)[0]
                assert got == pytest.approx(fresh_orthogonal_norm(channels, u, members),
                                            rel=1e-12)

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    @pytest.mark.parametrize("m,nu,sc", [(10, 3, 1), (16, 4, 8), (24, 4, 1)])
    def test_matches_per_pair_reference(self, m, nu, sc, cfg):
        for seed in range(3):
            channels, _ = rician_oracle(m, nu, seed=100 + seed, sc=sc, rho=0.8,
                                        correlated=m // 2)
            oracle = RateOracle(channels, cfg, nu)
            ref_oracle = RateOracle(channels, cfg, nu)
            got = sus_grouping(channels, oracle, m, nu)
            groups, value = reference_sus(channels, ref_oracle, m, nu)
            assert got.groups == groups
            assert got.objective_value == value
            assert oracle.compute_count == ref_oracle.compute_count
            assert oracle.query_count == ref_oracle.query_count

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


class ScalarOracle(RateOracle):
    """A rate oracle whose bulk query asks one group at a time."""

    def rates(self, groups):
        return [self.rate(g) for g in groups]


class TestBulkQueries:
    @pytest.mark.parametrize("m", [24, 40])
    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_bulk_path_matches_scalar_path(self, m, cfg):
        channels, _ = rician_oracle(m, 4, seed=m, sc=8, rho=0.8, correlated=m // 2)
        solvers = {
            "blossom": lambda o: optimal_mu2_su(o, m),
            "gma3": lambda o: gma(o, m, 3),
            "gma4": lambda o: gma(o, m, 4),
            "zfs": lambda o: zfs_grouping(o, m, 4),
            "sus": lambda o: sus_grouping(channels, o, m, 4),
        }
        for name, solve in solvers.items():
            bulk = RateOracle(channels, cfg, 4)
            scalar = ScalarOracle(channels, cfg, 4)
            got, want = solve(bulk), solve(scalar)
            assert got.groups == want.groups, name
            assert got.objective_value == want.objective_value, name
            assert bulk.compute_count == scalar.compute_count, name
