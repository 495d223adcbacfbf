from itertools import product

import numpy as np
import pytest

from mugroup import baselines, phy
from mugroup.baselines import SusParams, random_grouping, sus_grouping, zfs_grouping
from mugroup.channel import ChannelSet, correlation_matrix
from mugroup.gma import gma, optimal_mu2_su
from mugroup.grouping import canonical_partition, objective, validate_partition
from mugroup.phy import PhyConfig, RateOracle, make_rate_oracle

import reference
from conftest import (MCS_WITH_MAC, FixtureOracle, identity_channels, o1, o2, random_oracle,
                      rician_oracle, vdot_correlation)


class TestZfs:
    def test_greedy_overshoots_on_o1(self):
        # the weighted-rate greedy accepts {0,1} (7 > 4) even though all-SU
        # scores 12; documented illustration of greedy suboptimality
        sol = zfs_grouping(o1(max_group_size=2))
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 11

    def test_matches_optimum_on_o2(self):
        sol = zfs_grouping(o2(max_group_size=2))
        assert sol.groups == ((0, 1), (2,))
        assert sol.objective_value == 13

    def test_orthogonal_channels_form_full_group(self, phy_unit):
        channels = identity_channels(2)
        oracle = make_rate_oracle(channels, phy_unit, 2)
        sol = zfs_grouping(oracle)
        assert sol.groups == ((0, 1),)

    def test_respects_max_size(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(2, 12))
            cap = int(rng.integers(1, 4))
            oracle = random_oracle(rng, m, cap)
            sol = zfs_grouping(oracle)
            assert validate_partition(sol.groups, m, cap) is None

    def test_cold_solve_checks_singles_only(self, check_calls):
        # the singles query checks the user range; each step's candidates
        # are canonical by construction and queried unchecked, and the
        # score of the solution reads memo hits
        _, oracle = rician_oracle(40, 4, seed=40, sc=8, rho=0.8, correlated=20,
                                  phy=MCS_WITH_MAC)
        zfs_grouping(oracle)
        assert check_calls == [(u,) for u in range(40)]


def fresh_orthogonal_norm(channels, user, members):
    """Mean over subcarriers of the user's channel norm outside the span of
    the members' channels, from a fresh QR per subcarrier."""
    vals = []
    for s in range(channels.num_subcarriers):
        h = channels.entries[user, :, s]
        q, _ = np.linalg.qr(channels.entries[list(members), :, s].T)
        vals.append(np.linalg.norm(h - q @ (q.conj().T @ h)))
    return float(np.array(vals).mean())


def lstsq_orthogonal_norm(channels, user, members):
    """Mean over subcarriers of the user's channel norm outside the span of
    the members' channels, from a least-squares fit per subcarrier; unlike
    a QR basis it stays in the span when the members are rank-deficient."""
    vals = []
    for s in range(channels.num_subcarriers):
        h = channels.entries[user, :, s]
        a = channels.entries[list(members), :, s].T
        vals.append(np.linalg.norm(h - a @ np.linalg.lstsq(a, h, rcond=None)[0]))
    return float(np.array(vals).mean())


def reference_sus(channels, oracle, num_users, max_size, params=SusParams()):
    """SUS as a per-pair loop: one correlation per (candidate, member) and
    one projection per candidate and step; scalar rate queries.  Returns
    the best (groups, objective) over the sweep."""
    norms = np.linalg.norm(channels.entries, axis=1).mean(axis=1)
    best_parts, best_value = None, -1.0
    for alpha in params.sweep:
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
            SusParams(sweep=(1.5,))
        with pytest.raises(ValueError):
            SusParams(sweep=())

    def test_orthogonal_three_users_one_group(self):
        channels = identity_channels(3)
        oracle = make_rate_oracle(channels, PhyConfig(), 3)
        sol = sus_grouping(oracle, SusParams(sweep=(0.5,)))
        assert sol.groups == ((0, 1, 2),)

    def test_ties_pick_lowest_index(self):
        # equal norms and equal orthogonal components everywhere
        channels = identity_channels(4)
        oracle = make_rate_oracle(channels, PhyConfig(), 2)
        sol = sus_grouping(oracle, SusParams(sweep=(0.5,)))
        assert sol.groups == ((0, 1), (2, 3))

    def test_collinear_users_never_grouped(self):
        h = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=complex)[:, :, None]
        channels = ChannelSet(3, 3, 1, h)
        oracle = make_rate_oracle(channels, PhyConfig(), 3)
        sol = sus_grouping(oracle, SusParams(sweep=(0.3,)))
        for g in sol.groups:
            assert not (0 in g and 1 in g)

    def test_sweep_returns_best_single_alpha_run(self):
        _, oracle = rician_oracle(8, 3, seed=30)
        alphas = (0.2, 0.4, 0.6)
        best = max(sus_grouping(oracle, SusParams(sweep=(a,))).objective_value
                   for a in alphas)
        swept = sus_grouping(oracle, SusParams(sweep=alphas))
        assert swept.objective_value == best

    def test_sweep_computes_each_correlation_once(self, monkeypatch):
        _, oracle = rician_oracle(12, 4, seed=31)
        calls = []

        def counted(chs):
            calls.append(chs)
            return correlation_matrix(chs)

        monkeypatch.setattr(baselines, "correlation_matrix", counted)
        swept = sus_grouping(oracle)
        assert len(calls) == 1
        monkeypatch.undo()
        runs = [sus_grouping(oracle, SusParams(sweep=(a,)))
                for a in SusParams().sweep]
        best = max(runs, key=lambda r: r.objective_value)
        assert swept.groups == best.groups

    def test_sweep_extends_each_member_tuple_once(self, monkeypatch):
        channels, oracle = rician_oracle(16, 4, seed=32, sc=8)
        calls = []

        def counted(residuals, members):
            calls.append(members)
            return extend(residuals, members)

        extend = baselines._Residuals.__missing__
        monkeypatch.setattr(baselines._Residuals, "__missing__", counted)
        sus_grouping(oracle)
        monkeypatch.undo()
        assert calls and len(calls) == len(set(calls))
        # a batch scores each candidate exactly as a batch of the members and
        # that candidate does, and as a fresh QR projection does up to rounding
        full = baselines._Residuals(channels.entries)
        for members in calls:
            scores = full[members][3]
            own = tuple(range(len(members)))
            for u in sorted(set(range(16)) - set(members)):
                alone = baselines._Residuals(channels.entries[list(members) + [u]])
                assert scores[u] == alone[own][3][-1]
                assert scores[u] == pytest.approx(fresh_orthogonal_norm(channels, u, members),
                                                  rel=1e-12)

    def test_member_with_zero_residual_adds_no_direction(self):
        # user 1 is zero on subcarrier 0, so members (0, 1) span e1 there and
        # e1, e2 on subcarrier 1; user 2 lies outside both spans
        h = np.zeros((3, 3, 2), dtype=complex)
        h[0, 0] = 1
        h[1, 1, 1] = 1
        h[2, 1, 0] = h[2, 2, 1] = 1
        with np.errstate(all="raise"):
            scores = baselines._Residuals(h)[(0, 1)][3]
        assert scores[2] == 1.0
        channels = ChannelSet(3, 3, 2, h)
        assert lstsq_orthogonal_norm(channels, 2, (0, 1)) == 1.0
        # the same on Rician channels where one member is zero on some
        # subcarriers and another on all of them
        channels, _ = rician_oracle(10, 4, seed=33, sc=4)
        h = channels.entries.copy()
        h[1, :, [0, 2]] = 0
        h[3] = 0
        channels = ChannelSet(10, 4, 4, h)
        residuals = baselines._Residuals(h)
        for members in [(0, 1), (1, 0, 3), (3, 1, 2), (0, 3, 1, 2)]:
            with np.errstate(all="raise"):
                scores = residuals[members][3]
            for u in sorted(set(range(10)) - set(members)):
                assert scores[u] == pytest.approx(lstsq_orthogonal_norm(channels, u, members),
                                                  rel=1e-12)

    def test_member_collinear_up_to_rounding_adds_no_direction(self):
        # user 3 is (2 - 1j) times user 0 on subcarrier 1, so after member 0
        # its residual there is rounding noise, which spans nothing
        channels, _ = rician_oracle(10, 4, seed=33, sc=4)
        h = channels.entries.copy()
        h[3, :, 1] = (2 - 1j) * h[0, :, 1]
        channels = ChannelSet(10, 4, 4, h)
        residuals = baselines._Residuals(h)
        for members in [(0, 3), (3, 0), (0, 3, 1), (2, 0, 3)]:
            scores = residuals[members][3]
            for u in sorted(set(range(10)) - set(members)):
                assert scores[u] == pytest.approx(lstsq_orthogonal_norm(channels, u, members),
                                                  rel=1e-12)

    @pytest.mark.parametrize("m,nu,sc,nt,seeds,cfg", [
        *(pytest.param(m, nu, sc, 4, 3, cfg, id=f"{m}-{nu}-{sc}-{name}")
          for m, nu, sc in [(10, 3, 1), (16, 4, 8), (24, 4, 1)]
          for name, cfg in [("shannon", PhyConfig()), ("mcs_mac", MCS_WITH_MAC)]),
        pytest.param(40, 4, 8, 4, 1, MCS_WITH_MAC, id="wideband_m40"),
        pytest.param(16, 6, 8, 8, 1, MCS_WITH_MAC, id="nt8"),
    ])
    def test_matches_per_pair_reference(self, m, nu, sc, nt, seeds, cfg):
        for seed in range(seeds):
            channels, _ = rician_oracle(m, nu, seed=100 + seed, sc=sc, nt=nt, rho=0.8,
                                        correlated=m // 2)
            oracle = RateOracle(channels, cfg, nu)
            ref_oracle = RateOracle(channels, cfg, nu)
            got = sus_grouping(oracle)
            groups, value = reference_sus(channels, ref_oracle, m, nu)
            assert got.groups == groups
            assert got.objective_value == value
            assert oracle.compute_count == ref_oracle.compute_count
            assert oracle.query_count == ref_oracle.query_count

    def test_cold_solve_checks_no_group(self, check_calls):
        # every group of the sweep comes from canonical_group over the
        # oracle's users and within its cap, so the fill checks none
        _, oracle = rician_oracle(40, 4, seed=40, sc=8, rho=0.8, correlated=20,
                                  phy=MCS_WITH_MAC)
        sus_grouping(oracle)
        assert check_calls == []

    def test_valid_partitions(self):
        for seed in range(5):
            _, oracle = rician_oracle(9, 3, seed=seed)
            sol = sus_grouping(oracle)
            assert validate_partition(sol.groups, 9, 3) is None


def recording(monkeypatch, module, name) -> list:
    """Every instance of the residual memo ``module.name`` made from now on."""
    made = []

    class Recording(getattr(module, name)):
        def __init__(self, h):
            super().__init__(h)
            made.append(self)

    monkeypatch.setattr(module, name, Recording)
    return made


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def assert_sus_matches_reference(monkeypatch, channels, cfg, cap, params=SusParams()):
    """``sus_grouping`` against ``reference.stepwise_sus_grouping`` on fresh
    oracles: the same member tuples, scores and residuals, and the same
    solve, counters and memo."""
    made, ref_made = (recording(monkeypatch, baselines, "_Residuals"),
                      recording(monkeypatch, reference, "StepwiseResiduals"))
    oracle, ref_oracle = RateOracle(channels, cfg, cap), RateOracle(channels, cfg, cap)
    got = sus_grouping(oracle, params)
    want = reference.stepwise_sus_grouping(ref_oracle, params)
    monkeypatch.undo()
    (residuals,), (ref_residuals,) = made, ref_made
    assert residuals.keys() == ref_residuals.keys()
    for members, (r, sq, norm, scores) in residuals.items():
        rr, ri, ref_sq, ref_scores = ref_residuals[members]
        # equal as numbers; only the sign of a zero residual may differ, and
        # squares drop it, so the squared norms and scores are bitwise equal
        assert np.array_equal(r[0], rr) and np.array_equal(r[1], ri)
        assert bits(sq.ravel()) == bits(ref_sq.ravel())
        assert bits(norm.ravel()) == bits(np.sqrt(ref_sq).ravel())
        if members:
            assert bits(scores) == bits(ref_scores)
    assert got.groups == want.groups
    assert got.objective_value.hex() == want.objective_value.hex()
    assert (oracle.query_count, oracle.compute_count) == (ref_oracle.query_count,
                                                         ref_oracle.compute_count)
    assert {g: v.hex() for g, v in oracle._memo.items()} == {
        g: v.hex() for g, v in ref_oracle._memo.items()}
    return got


class TestSusReference:
    """SUS matches its stepwise form (``reference.stepwise_sus_grouping``)
    bit for bit; the SIMD-free CI step runs these too."""

    @pytest.mark.parametrize("nt,sc,rho,cfg", [
        pytest.param(nt, sc, rho, cfg, id=f"nt{nt}-sc{sc}-rho{rho}-{name}")
        for nt in (4, 8) for sc in (1, 8) for rho in (0.0, 0.8)
        for name, cfg in [("shannon", PhyConfig()), ("mcs_mac", MCS_WITH_MAC)]
    ])
    def test_seeded_instances(self, monkeypatch, nt, sc, rho, cfg):
        caps = range(2, 9) if nt == 8 else range(2, 5)
        for i, (m, seed) in enumerate(product((2, 3, 7, 12, 23, 40), (500, 600))):
            channels, _ = rician_oracle(m, 2, seed=seed + i, nt=nt, sc=sc, rho=rho,
                                        correlated=m // 2)
            cap = caps[(i + sc + int(10 * rho)) % len(caps)]
            assert_sus_matches_reference(monkeypatch, channels, cfg, cap)

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_identity_channels(self, monkeypatch, cfg):
        for n, cap in [(2, 2), (4, 2), (4, 4), (8, 8)]:
            sol = assert_sus_matches_reference(monkeypatch, identity_channels(n), cfg, cap)
            assert all(len(g) == cap for g in sol.groups)
        h = np.repeat(np.eye(8, dtype=complex)[:, :, None], 8, axis=2)
        assert_sus_matches_reference(monkeypatch, ChannelSet(8, 8, 8, h), cfg, 8)

    @pytest.mark.parametrize("sc", [1, 8])
    def test_duplicated_users_tie_to_the_lowest_index(self, monkeypatch, sc):
        # users 5, 7 copy user 2 and user 9 copies user 1: exact ties in the
        # norms and in every score, which the lowest index wins
        channels, _ = rician_oracle(10, 4, seed=34, sc=sc)
        h = channels.entries.copy()
        h[[5, 7]] = h[2]
        h[9] = h[1]
        channels = ChannelSet(10, 4, sc, h)
        for cap in (2, 3, 4):
            assert_sus_matches_reference(monkeypatch, channels, MCS_WITH_MAC, cap)
        residuals = baselines._Residuals(h)
        scores = residuals[(0,)][3]
        assert scores[2] == scores[5] == scores[7] and scores[1] == scores[9]

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_users_zero_on_some_subcarriers(self, monkeypatch, cfg):
        # six subcarriers: a mean over them is a divide that no product
        # by 1/6 reproduces
        channels, _ = rician_oracle(12, 4, seed=33, sc=6)
        h = channels.entries.copy()
        h[1, :, [0, 2]] = 0
        h[6, :, 1:5] = 0
        channels = ChannelSet(12, 4, 6, h)
        for cap in (2, 3, 4):
            assert_sus_matches_reference(monkeypatch, channels, cfg, cap)

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_users_collinear_up_to_rounding(self, monkeypatch, cfg):
        # user 3 is (2 - 1j) times user 0 on subcarrier 1, and user 8 is 3
        # times user 4 everywhere: their residuals after those members are
        # rounding noise
        channels, _ = rician_oracle(10, 4, seed=33, sc=4)
        h = channels.entries.copy()
        h[3, :, 1] = (2 - 1j) * h[0, :, 1]
        h[8] = 3 * h[4]
        channels = ChannelSet(10, 4, 4, h)
        for cap in (2, 3, 4):
            assert_sus_matches_reference(monkeypatch, channels, cfg, cap)
        for members in [(0, 3), (3, 0), (4, 8, 1), (2, 0, 3)]:
            reference_scores = reference.StepwiseResiduals(h)[members][3]
            assert bits(baselines._Residuals(h)[members][3]) == bits(reference_scores)

    def test_correlation_equal_to_alpha_qualifies(self, monkeypatch):
        # users 0 and 1 correlate at 3 / 5, exactly the float 0.6, so they
        # may share a group at alpha 0.6 (not corr > alpha) and not below
        h = np.zeros((2, 4, 1), dtype=complex)
        h[0, 0, 0], h[1, :2, 0] = 1, (3, 4)
        channels = ChannelSet(2, 4, 1, h)
        assert correlation_matrix(channels)[0, 1] == 0.6
        for alpha, groups in [(0.6, ((0, 1),)), (0.5, ((0,), (1,)))]:
            sol = assert_sus_matches_reference(monkeypatch, channels, PhyConfig(), 2,
                                               SusParams(sweep=(alpha,)))
            assert sol.groups == groups


def chunk_oracle(num_users, max_group_size):
    """Every group of up to ``max_group_size`` users rates 1."""
    return FixtureOracle({}, size_defaults=dict.fromkeys(range(1, max_group_size + 1), 1.0),
                         num_users=num_users, max_group_size=max_group_size)


class TestRandomGrouping:
    def test_chunk_sizes_even(self):
        sol = random_grouping(chunk_oracle(6, 3), seed=1)
        assert sorted(len(g) for g in sol.groups) == [3, 3]

    def test_chunk_sizes_remainder(self):
        sol = random_grouping(chunk_oracle(7, 3), seed=2)
        assert sorted(len(g) for g in sol.groups) == [1, 3, 3]

    def test_deterministic_per_seed(self):
        oracle = chunk_oracle(9, 3)
        assert random_grouping(oracle, seed=3).groups == random_grouping(oracle, seed=3).groups

    def test_seeds_differ(self):
        oracle = chunk_oracle(9, 3)
        outcomes = {random_grouping(oracle, seed=s).groups for s in range(8)}
        assert len(outcomes) > 1

    def test_objective_filled_with_oracle(self):
        oracle = o1(max_group_size=1)
        sol = random_grouping(oracle, seed=0)
        assert sol.objective_value == objective(sol.groups, oracle)

    def test_valid_partition_any_seed(self):
        oracle = chunk_oracle(11, 4)
        for seed in range(10):
            sol = random_grouping(oracle, seed=seed)
            assert validate_partition(sol.groups, 11, 4) is None


class ScalarOracle(RateOracle):
    """A rate oracle whose bulk query asks one group at a time."""

    def rates(self, groups, *, checked=False):
        return [RateOracle.rates(self, [g], checked=checked)[0] for g in groups]


def counted_kernel_calls(monkeypatch) -> list[int]:
    """Group size of every ``phy._batch_rates`` call from now on."""
    calls = []
    batch_rates = phy._batch_rates

    def counted(gram, groups, *args):
        calls.append(len(groups[0]))
        return batch_rates(gram, groups, *args)

    monkeypatch.setattr(phy, "_batch_rates", counted)
    return calls


class TestKernelCalls:
    """A cold solve asks for its rates in as few kernel calls as its own
    logic allows."""

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_sus_one_call_per_group_size_of_the_sweep(self, cfg, monkeypatch):
        channels, _ = rician_oracle(40, 4, seed=40, sc=8, rho=0.8, correlated=20, phy=cfg)
        runs = [sus_grouping(make_rate_oracle(channels, cfg, 4), SusParams(sweep=(a,)))
                for a in SusParams().sweep]
        union = {g for run in runs for g in run.groups}
        sizes = {len(g) for g in union}
        calls = counted_kernel_calls(monkeypatch)
        oracle = make_rate_oracle(channels, cfg, 4)
        swept = sus_grouping(oracle)
        assert len(sizes) > 1 and sorted(calls) == sorted(sizes)
        assert oracle.compute_count == len(union)
        assert swept.objective_value == max(run.objective_value for run in runs)

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_zfs_one_call_for_singles_and_one_per_greedy_step(self, cfg, monkeypatch):
        channels, oracle = rician_oracle(40, 4, seed=41, sc=8, rho=0.8, correlated=20, phy=cfg)
        queries = []
        rates = oracle.rates

        def counted_rates(groups, *, checked=False):
            queries.append(len(groups))
            return rates(groups, checked=checked)

        monkeypatch.setattr(oracle, "rates", counted_rates)
        calls = counted_kernel_calls(monkeypatch)
        zfs_grouping(oracle)
        steps = len(queries) - 2  # the singles and the final objective
        assert steps > 0 and len(calls) == 1 + steps
        assert calls[0] == 1 and min(calls[1:]) >= 2


class TestBulkQueries:
    @pytest.mark.parametrize("m", [24, 40])
    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_bulk_path_matches_scalar_path(self, m, cfg):
        channels, _ = rician_oracle(m, 4, seed=m, sc=8, rho=0.8, correlated=m // 2)
        solvers = {
            "blossom": (optimal_mu2_su, 4),
            "gma3": (gma, 3),
            "gma4": (gma, 4),
            "zfs": (zfs_grouping, 4),
            "sus": (sus_grouping, 4),
        }
        for name, (solve, cap) in solvers.items():
            bulk = RateOracle(channels, cfg, cap)
            scalar = ScalarOracle(channels, cfg, cap)
            got, want = solve(bulk), solve(scalar)
            assert got.groups == want.groups, name
            assert got.objective_value == want.objective_value, name
            assert bulk.compute_count == scalar.compute_count, name
