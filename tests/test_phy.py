import math
import pickle
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from mugroup.channel import ChannelSet
from mugroup.errors import ConfigurationError
from mugroup.gma import gma
from mugroup.grouping import exhaustive_search
from mugroup.phy import (
    DEFAULT_MCS_TABLE,
    MAC_OVERHEAD_FACTOR,
    MAX_BANDWIDTH_HZ,
    MAX_POWER,
    MAX_POWER_RATIO,
    McsEntry,
    PhyConfig,
    RateMode,
    RateOracle,
    _mcs_rates,
    make_rate_oracle,
    phy_rate,
)

from reference import (SingularChannelError, closed_form_rate, group_rate, inverse_rate,
                       ldl_inverse_diagonal, map_sinr_to_mcs, zf_steering)
from reference import stepwise_batch_rates
from reference import zf_batch as reference_zf_batch
from conftest import MCS_WITH_MAC, identity_channels, rician_oracle


def flat_channels(rows):
    h = np.asarray(rows, dtype=complex)
    return ChannelSet(h[:, :, None])


def channels_with_duplicate(m, sc, seed, nt=4):
    """Rician channels in which the last user repeats the one before it,
    so every group holding both is rank deficient."""
    channels, _ = rician_oracle(m, 3, seed=seed, sc=sc, nt=nt)
    entries = np.array(channels.entries)
    entries[m - 1] = entries[m - 2]
    return ChannelSet(entries)


def degenerate_channels(m, sc, seed, nt=4):
    """``channels_with_duplicate`` with user 0 given an all-zero channel."""
    channels = channels_with_duplicate(m, sc, seed, nt=nt)
    entries = np.array(channels.entries)
    entries[0] = 0.0
    return ChannelSet(entries)


def conditioned_channels(conds, k=3, nt=4):
    """Flat channels of one k-user group per entry of ``conds``: group i is
    users k*i .. k*i+k-1, built as U diag(s) V^H from random unitary U and
    V, with the squared singular values spaced geometrically so that the
    group's Gram matrix has condition number ``conds[i]``."""
    rng = np.random.default_rng(0)

    def unitary(n):
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

    blocks = []
    for cond in conds:
        s = np.sqrt(np.geomspace(1.0, 1.0 / cond, k))
        blocks.append((unitary(k) * s) @ np.conj(unitary(nt)[:, :k].T))
    return flat_channels(np.concatenate(blocks))


def oracle_rate(channels, group, cfg):
    """The library's rate of one group, from a fresh oracle."""
    return make_rate_oracle(channels, cfg, len(group)).rate(group)


def assert_matches_steering(values, channels, groups, cfg):
    """Cross-check against ``reference_rate``: bit for bit in MCS mode,
    to 1e-9 relative in Shannon mode, where the closed form and the
    steering vectors round differently."""
    expected = [reference_rate(channels, g, cfg) for g in groups]
    if cfg.rate_mode is RateMode.SHANNON:
        assert values == pytest.approx(expected, rel=1e-9, abs=0.0)
    else:
        assert values == expected


def reference_rate(channels, group, cfg):
    """Scalar steering reference: one subcarrier at a time, the steering
    vectors built and the interference summed in full, SINRs mapped one
    user at a time through map_sinr_to_mcs and phy_rate; 0 when rank
    deficient."""
    members = tuple(sorted(group))
    p = cfg.total_power / len(members)
    rates = []
    for s in range(channels.num_subcarriers):
        h = channels.entries[members, :, s]
        gram = h @ h.conj().T
        if np.linalg.cond(gram) > 1e12:
            return 0.0
        w = np.linalg.solve(gram, h).conj().T
        w /= np.linalg.norm(w, axis=0, keepdims=True)
        gains = np.abs(h @ w) ** 2
        signal = np.diag(gains)
        sinr = (p * signal) / (cfg.noise_power + p * (gains.sum(axis=1) - signal))
        if cfg.rate_mode is RateMode.SHANNON:
            rates.append(cfg.bandwidth_hz * float(np.log2(1.0 + sinr).sum()))
            continue
        total = 0.0
        for value in sinr:
            entry = map_sinr_to_mcs(10.0 * math.log10(value) if value > 0 else -math.inf,
                                    cfg.mcs_table)
            if entry is not None:
                total += phy_rate(entry, cfg)
        rates.append(total)
    return float(np.mean(rates))


class TestZfSteering:
    def test_identity_channel(self):
        cs = identity_channels(2)
        sm = zf_steering(cs, (0, 1))
        w = sm.columns[0]
        assert np.allclose(w, np.eye(2))
        h = cs.entries[:, :, 0]
        assert abs(h[0] @ w[:, 0]) == pytest.approx(1.0)
        assert abs(h[0] @ w[:, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_matched_filter_norm(self):
        cs = flat_channels([[3.0, 4.0]])
        sm = zf_steering(cs, (0,))
        w = sm.columns[0][:, 0]
        assert np.allclose(w.real, [0.6, 0.8])
        assert abs(cs.entries[0, :, 0] @ w) == pytest.approx(5.0)

    def test_cross_terms_cancel(self):
        cs = flat_channels([[1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        w = zf_steering(cs, (0, 1)).columns[0]
        h = cs.entries[:, :, 0]
        assert abs(h[0] @ w[:, 1]) < 1e-12
        assert abs(h[1] @ w[:, 0]) < 1e-12

    def test_unit_norm_columns(self):
        _, oracle = rician_oracle(6, 3, seed=2)
        sm = zf_steering(oracle.channels, (0, 2, 5))
        norms = np.linalg.norm(sm.columns[0], axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_zf_orthogonality_random_groups(self):
        channels, _ = rician_oracle(8, 4, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(25):
            size = int(rng.integers(2, 5))
            group = tuple(sorted(rng.choice(8, size=size, replace=False).tolist()))
            w = zf_steering(channels, group).columns[0]
            h = channels.entries[group, :, 0]
            for a, m in enumerate(group):
                for b in range(len(group)):
                    if a != b:
                        assert abs(h[a] @ w[:, b]) <= 1e-9 * np.linalg.norm(h[a])

    def test_duplicated_channel_singular(self):
        cs = flat_channels([[1, 1], [1, 1]])
        with pytest.raises(SingularChannelError):
            zf_steering(cs, (0, 1))

    def test_group_larger_than_antennas(self):
        cs = identity_channels(2)
        with pytest.raises(ValueError):
            zf_steering(ChannelSet(np.ones((3, 2, 1), dtype=complex)), (0, 1, 2))


class TestGroupRate:
    """The rate model, through the library's oracle."""

    def test_singleton_unit_snr(self):
        cs = flat_channels([[1.0, 0.0]])
        cfg = PhyConfig(bandwidth_hz=1.0, noise_power=1.0, total_power=1.0)
        assert oracle_rate(cs, (0,), cfg) == pytest.approx(1.0)

    def test_orthogonal_pair(self, phy_unit):
        assert oracle_rate(identity_channels(2), (0, 1), phy_unit) == pytest.approx(4.0)

    def test_matches_independent_sinr_arithmetic(self):
        # re-derive via an explicit pseudo-inverse and per-user SINR loop
        h = np.array([[1, 0], [1 / math.sqrt(2), 1 / math.sqrt(2)]], dtype=complex)
        cs = flat_channels(h)
        cfg = PhyConfig(bandwidth_hz=1.0, noise_power=1.0, total_power=2.0)
        w = np.linalg.pinv(h)
        w = w / np.linalg.norm(w, axis=0, keepdims=True)
        expected = 0.0
        for m in range(2):
            p = cfg.total_power / 2
            sig = p * abs(h[m] @ w[:, m]) ** 2
            intf = sum(p * abs(h[m] @ w[:, i]) ** 2 for i in range(2) if i != m)
            expected += math.log2(1 + sig / (cfg.noise_power + intf))
        assert oracle_rate(cs, (0, 1), cfg) == pytest.approx(expected, rel=1e-9)

    def test_permutation_invariance(self):
        channels, _ = rician_oracle(6, 3, seed=4)
        cfg = PhyConfig()
        a = oracle_rate(channels, (1, 4, 5), cfg)
        b = oracle_rate(channels, (5, 1, 4), cfg)
        assert a == b  # groups are canonicalized internally

    def test_monotone_in_snr(self):
        channels, _ = rician_oracle(3, 2, seed=5)
        rates = [
            oracle_rate(channels, (0,), PhyConfig(total_power=p))
            for p in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_scaling_covariance(self):
        channels, _ = rician_oracle(3, 2, seed=6)
        cfg = PhyConfig(bandwidth_hz=1.0)
        c = 0.5 + 1.25j
        scaled = ChannelSet(channels.entries * c)
        for u in range(3):
            sinr = 2 ** oracle_rate(channels, (u,), cfg) - 1
            sinr_scaled = 2 ** oracle_rate(scaled, (u,), cfg) - 1
            assert sinr_scaled == pytest.approx(abs(c) ** 2 * sinr, rel=1e-9)

    def test_subcarrier_averaging(self):
        # two flat subcarriers, one twice the gain of the other
        h = np.zeros((1, 2, 2), dtype=complex)
        h[0, :, 0] = [1.0, 0.0]
        h[0, :, 1] = [2.0, 0.0]
        cs = ChannelSet(h)
        cfg = PhyConfig(bandwidth_hz=1.0, noise_power=1.0, total_power=1.0)
        expected = (math.log2(2.0) + math.log2(5.0)) / 2
        assert oracle_rate(cs, (0,), cfg) == pytest.approx(expected)

    def test_mcs_mapped_mode(self):
        cs = flat_channels([[1.0, 0.0]])
        # SNR 20 dB -> MCS 6 (threshold 20 inclusive) -> 135 Mbps
        cfg = PhyConfig(noise_power=1.0, total_power=100.0, rate_mode=RateMode.MCS_MAPPED)
        assert oracle_rate(cs, (0,), cfg) == pytest.approx(108 * 4.5 / 3.6e-6)


class TestRateOracle:
    def test_memoization_counts(self):
        channels, oracle = rician_oracle(5, 3, seed=7)
        r1 = oracle.rate((0, 2))
        computed = oracle.compute_count
        r2 = oracle.rate((2, 0))
        assert r1 == r2
        assert oracle.compute_count == computed
        assert oracle.query_count == 2

    def test_delegates_to_group_rate(self, phy_unit):
        cs = identity_channels(2)
        oracle = make_rate_oracle(cs, phy_unit, 2)
        assert oracle.rate((0, 1)) == group_rate(cs, (0, 1), phy_unit)

    def test_degenerate_group_rate_zero(self):
        cs = flat_channels([[1, 1], [1, 1]])
        oracle = make_rate_oracle(cs, PhyConfig(), 2)
        assert oracle.rate((0, 1)) == 0.0
        assert oracle.rate((0,)) > 0.0

    @pytest.mark.parametrize("cfg,sc,nt", [
        (PhyConfig(), 1, 4), (PhyConfig(), 8, 4), (MCS_WITH_MAC, 1, 4), (MCS_WITH_MAC, 8, 4),
        (PhyConfig(), 8, 8),
    ], ids=["shannon-sc1", "shannon-sc8", "mcs_mac-sc1", "mcs_mac-sc8", "shannon-sc8-nt8"])
    def test_precompute_matches_scalar(self, cfg, sc, nt):
        from itertools import combinations

        channels = channels_with_duplicate(8, sc, seed=8, nt=nt)
        groups = [g for s in (1, 2, 3) for g in combinations(range(8), s)]
        batched = make_rate_oracle(channels, cfg, 3)
        batched.precompute(groups)
        assert batched.compute_count == len(groups)
        fresh = make_rate_oracle(channels, cfg, 3)
        for g in groups:
            assert batched.rate(g) == fresh.rate(g) == closed_form_rate(channels, g, cfg)
        assert_matches_steering([batched.rate(g) for g in groups], channels, groups, cfg)
        assert batched.rate((6, 7)) == 0.0
        assert batched.compute_count == len(groups)

    @pytest.mark.parametrize("cfg,sc", [
        (PhyConfig(), 1), (PhyConfig(), 8), (MCS_WITH_MAC, 1), (MCS_WITH_MAC, 8),
    ], ids=["shannon-sc1", "shannon-sc8", "mcs_mac-sc1", "mcs_mac-sc8"])
    def test_rates_match_scalar(self, cfg, sc):
        from itertools import combinations

        channels = channels_with_duplicate(8, sc, seed=13)
        groups = [g for s in (1, 2, 3) for g in combinations(range(8), s)]
        bulk = make_rate_oracle(channels, cfg, 3)
        fresh = make_rate_oracle(channels, cfg, 3)
        values = bulk.rates(groups)
        assert values == [fresh.rate(g) for g in groups]
        assert values == [closed_form_rate(channels, g, cfg) for g in groups]
        assert_matches_steering(values, channels, groups, cfg)
        assert values[groups.index((6, 7))] == 0.0

    def test_rates_counts(self):
        _, oracle = rician_oracle(6, 3, seed=14, sc=8)
        oracle.rate((0, 1))
        oracle.rate((2,))
        groups = [(1, 0), (2,), (3, 4), (4, 3), (0, 2, 5)]
        oracle.rates(groups)
        assert oracle.query_count == 2 + len(groups)
        assert oracle.compute_count == 2 + 2  # (3, 4) and (0, 2, 5)
        assert oracle.rates([]) == []
        assert oracle.query_count == 2 + len(groups)

    @pytest.mark.parametrize("bad", [(0, 6), (-1,), (0, 1, 2, 3), (1, 1)],
                             ids=["out-of-range", "negative", "oversize", "repeated"])
    def test_rates_check_every_group_first(self, bad):
        _, oracle = rician_oracle(6, 3, seed=15)
        oracle.rate((0,))
        memo = dict(oracle._memo)
        with pytest.raises(ValueError):
            oracle.rates([(1,), (2, 3), bad, (4, 5)])
        assert oracle._memo == memo
        assert (oracle.query_count, oracle.compute_count) == (1, 1)

    def test_rates_across_chunks(self, monkeypatch):
        from itertools import combinations

        import mugroup.phy as phy

        # every group size up to 8; users 7 and 8 share a channel
        channels = channels_with_duplicate(9, 8, seed=16, nt=8)
        groups = [g for s in range(1, 9) for g in combinations(range(9), s)]
        calls = []
        zf_sinr = phy._zf_sinr

        def counted(gram, chunk, cfg):
            calls.append(len(chunk))
            return zf_sinr(gram, chunk, cfg)

        for cfg in (PhyConfig(), MCS_WITH_MAC):
            single = make_rate_oracle(channels, cfg, 8)
            expected = [single.rates([g])[0] for g in groups]
            assert expected == [closed_form_rate(channels, g, cfg) for g in groups]
            assert make_rate_oracle(channels, cfg, 8).rates(groups) == expected
            with monkeypatch.context() as patch:
                patch.setattr(phy, "_MAX_BATCH_ROWS", 24)  # 3 groups of 8 subcarriers
                patch.setattr(phy, "_zf_sinr", counted)
                calls.clear()
                chunked = make_rate_oracle(channels, cfg, 8)
                assert chunked.rates(groups) == expected
            assert max(calls) == 3 and sum(calls) == len(groups)
            assert chunked.compute_count == len(groups)

    def test_mcs_wide_groups_add_users_in_order(self):
        # from eight users on, numpy's pairwise sum would add in another order
        from itertools import combinations

        channels, oracle = rician_oracle(10, 8, seed=8, nt=8, phy=MCS_WITH_MAC)
        for g in combinations(range(10), 8):
            assert oracle.rate(g) == reference_rate(channels, g, MCS_WITH_MAC)
            assert oracle.rate(g) == closed_form_rate(channels, g, MCS_WITH_MAC)

    def test_mcs_table_not_ascending(self):
        # map_sinr_to_mcs stops at the first unmet threshold: an SINR of
        # 10 dB gets entry 0 here, not entry 3
        table = (McsEntry(0, 0.5, 2.0), McsEntry(1, 1.0, 14.0),
                 McsEntry(2, 2.0, 6.0), McsEntry(3, 4.0, 9.0))
        cfg = PhyConfig(total_power=10.0, rate_mode=RateMode.MCS_MAPPED, mcs_table=table)
        ascending = PhyConfig(total_power=10.0, rate_mode=RateMode.MCS_MAPPED,
                              mcs_table=tuple(sorted(table, key=lambda e: e.min_snr_db)))
        channels = channels_with_duplicate(8, 2, seed=12)
        groups = [(u,) for u in range(8)] + [(0, 1), (2, 5), (3, 4), (6, 7), (1, 2, 6)]
        oracle = make_rate_oracle(channels, cfg, 3)
        oracle.precompute(groups)
        for g in groups:
            assert oracle.rate(g) == reference_rate(channels, g, cfg)
            assert oracle.rate(g) == closed_form_rate(channels, g, cfg)
        reordered = make_rate_oracle(channels, ascending, 3)
        assert any(oracle.rate(g) != reordered.rate(g) for g in groups)

    def test_mcs_empty_table(self):
        # refused when the config is built, so no oracle or rate sees it
        with pytest.raises(ConfigurationError, match="MCS table must not be empty"):
            PhyConfig(rate_mode=RateMode.MCS_MAPPED, mcs_table=())
        assert PhyConfig(mcs_table=()).mcs_rates is None  # Shannon mode reads no table

    def test_mcs_lookup_built_once_per_config(self, monkeypatch):
        import mugroup.phy as phy

        built = []

        def counted(cfg):
            built.append(cfg)
            return _mcs_rates(cfg)

        monkeypatch.setattr(phy, "_mcs_rates", counted)
        channels, _ = rician_oracle(8, 3, seed=22, sc=8)
        for mode, builds in ((RateMode.SHANNON, 0), (RateMode.MCS_MAPPED, 1)):
            built.clear()
            cfg = PhyConfig(rate_mode=mode, mac_overhead_enabled=True)
            assert len(built) == builds  # built with the config
            oracle = make_rate_oracle(channels, cfg, 3)
            oracle.rate((0,))
            oracle.rates([(1, 2), (0, 3, 4), (5,)])
            oracle.precompute([g for s in (1, 2, 3) for g in combinations(range(8), s)])
            fresh = make_rate_oracle(channels, cfg, 3)
            assert fresh.rates([(1, 2), (0, 3, 4)]) == oracle.rates([(1, 2), (0, 3, 4)])
            assert len(built) == builds  # no oracle builds another
            # the lookup is not a field: equality, hashing and repr ignore it,
            # and the config pickles with it
            twin = pickle.loads(pickle.dumps(cfg))
            assert twin == cfg and hash(twin) == hash(cfg) and repr(twin) == repr(cfg)
            assert "mcs_rates" not in repr(cfg)
            if builds:
                sinr = np.array([[0.5, 10.0, 1e3]])
                assert twin.mcs_rates(sinr).tolist() == cfg.mcs_rates(sinr).tolist()

    def test_every_form_of_a_group_reads_one_entry_and_bad_groups_change_nothing(self):
        # a group given as a list, out of order or with numpy members reads
        # the memo entry of its canonical tuple; a bad group is refused by
        # every query that holds it, before anything is counted or stored
        _, oracle = rician_oracle(6, 3, seed=23, sc=8)
        value = oracle.rate((0, 1, 2))
        same = [[2, 0, 1], (2, 0, 1), (np.int64(0), 1, 2), (0, 1, 2)]
        assert oracle.rates(same) == [value] * len(same)
        oracle.precompute(same)
        assert (oracle.query_count, oracle.compute_count) == (1 + len(same), 1)
        bad = {(0, 0, 1): "distinct", (0, 1, 2, 3): "max group size", (0, 1, 6): "out of range",
               (-1, 0, 1): "out of range"}
        for group, message in bad.items():
            for query in (oracle.rate, lambda g: oracle.rates([(0, 1, 2), (0, 1, 2), g]),
                          lambda g: oracle.precompute([(0, 1, 2), g])):
                with pytest.raises(ValueError, match=message):
                    query(group)
                assert (oracle.query_count, oracle.compute_count) == (1 + len(same), 1)
        assert list(oracle._memo) == [(0, 1, 2)]

    def test_all_hit_query_is_read_in_one_pass(self, check_calls):
        # a query of int tuples that are all memo keys is counted and read
        # with no check; any other query checks each of its groups in order
        _, oracle = rician_oracle(6, 3, seed=24, sc=8)
        oracle.precompute([(0, 1), (2,), (3, 4, 5)])
        check_calls.clear()
        hits = [(0, 1), (2,), (3, 4, 5), (2,)]
        assert oracle.rates(hits) == [oracle._memo[g] for g in hits]
        assert check_calls == [] and oracle.query_count == 4
        queries = ([(2,), [1, 0]], [(2,), (1, 0)], [(2,), (0, 1, 2)])
        for query in queries:
            oracle.rates(query)
        assert check_calls == [g for query in queries for g in query]
        assert (oracle.query_count, oracle.compute_count) == (10, 4)

    @pytest.mark.parametrize("checked", [False, True], ids=["default", "checked"])
    def test_generator_query_matches_list_query(self, checked):
        # the groups are read once, so a one-shot iterable gets the values,
        # the counters and the memo of the same groups in a list, cold and
        # warm, and (0.0,) is refused from either unless vouched for
        by_list, by_gen = (rician_oracle(6, 3, seed=28, sc=8)[1] for _ in range(2))
        groups = [(0,), (1, 2), (0, 3, 4), (1, 2)]
        for _ in ("cold", "warm"):
            if not checked:
                for oracle, query in ((by_list, [(0.0,)]), (by_gen, (g for g in [(0.0,)]))):
                    with pytest.raises(ValueError, match="members must be integers"):
                        oracle.rates(query)
            want = by_list.rates(groups, checked=checked)
            assert len(want) == len(groups)
            assert by_gen.rates((g for g in groups), checked=checked) == want
            assert ((by_gen.query_count, by_gen.compute_count)
                    == (by_list.query_count, by_list.compute_count))
        assert by_list.query_count == 2 * len(groups)
        assert list(by_gen._memo.items()) == list(by_list._memo.items())

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_checked_query_equals_checked_fill_then_query(self, cfg):
        # a query of trusted groups leaves what a trusted fill and a query
        # leave: the same values, both counters and the memo, in its order
        channels = channels_with_duplicate(8, 8, seed=25)
        groups = [g for s in (1, 2, 3) for g in combinations(range(8), s)]
        one, two = (make_rate_oracle(channels, cfg, 3) for _ in range(2))
        for oracle in (one, two):
            oracle.rates(groups[::5])  # part of the query is warm
        values = one.rates(groups, checked=True)
        two.precompute(groups, checked=True)
        assert values == two.rates(groups)
        assert (one.query_count, one.compute_count) == (two.query_count, two.compute_count)
        assert list(one._memo.items()) == list(two._memo.items())
        assert one.rates(groups, checked=True) == values  # all hits
        assert one.query_count == two.query_count + len(groups)

    def test_checked_query_fills_through_precompute(self, check_calls, monkeypatch):
        # the misses of a trusted query go to ``precompute``, where a wrapper
        # sees every computation, and no group is checked on the way
        _, oracle = rician_oracle(6, 3, seed=26, sc=8)
        oracle.rate((0, 1))
        fills = []
        precompute = RateOracle.precompute
        monkeypatch.setattr(
            RateOracle, "precompute", lambda self, groups, *, checked=False:
            fills.append((list(groups), checked, self.compute_count))
            or precompute(self, groups, checked=checked))
        check_calls.clear()
        groups = [(0, 1), (2, 3), (0, 4, 5), (2, 3)]
        oracle.rates(groups, checked=True)
        assert fills == [(groups, True, 1)] and check_calls == []
        assert (oracle.query_count, oracle.compute_count) == (5, 3)
        oracle.rates(groups, checked=True)  # memo hits only: no fill
        assert len(fills) == 1 and oracle.query_count == 9

    def test_default_query_checks_every_group_before_counting(self, check_calls,
                                                              monkeypatch):
        _, oracle = rician_oracle(6, 3, seed=27, sc=8)
        seen = []
        precompute = RateOracle.precompute
        monkeypatch.setattr(
            RateOracle, "precompute", lambda self, groups, *, checked=False:
            seen.append((list(check_calls), self.query_count))
            or precompute(self, groups, checked=checked))
        groups = [(1,), [3, 2], (0, 4, 5)]
        assert oracle.rates(groups) == oracle.rates([(1,), (2, 3), (0, 4, 5)])
        assert seen[0] == (groups, 0)  # all three checked before the fill, counted after it

    @pytest.mark.parametrize("checked", [False, True], ids=["default", "checked"])
    def test_a_failed_fill_is_not_a_query(self, checked, monkeypatch):
        # a cold query whose fill raises leaves both counters and the memo
        # as they were: the query is counted after its values are read
        import mugroup.phy as phy

        def fail(gram, groups, cfg):
            raise RuntimeError("fill failed")

        _, oracle = rician_oracle(6, 3, seed=29, sc=8)
        monkeypatch.setattr(phy, "_batch_rates", fail)
        with pytest.raises(RuntimeError, match="fill failed"):
            oracle.rates([(0,), (1, 2), (0, 3, 4)], checked=checked)
        assert (oracle.query_count, oracle.compute_count, oracle._memo) == (0, 0, {})

    def test_each_oracle_builds_its_own_gram(self):
        channels, _ = rician_oracle(6, 3, seed=21, sc=8)
        first = make_rate_oracle(channels, MCS_WITH_MAC, 3)
        second = make_rate_oracle(channels, MCS_WITH_MAC, 3)
        assert first._gram is None and second._gram is None  # built on a first compute
        first.rate((0, 1))
        gram = first._gram
        first.rates([(2, 3), (0, 4, 5)])
        first.precompute([(1, 2, 3)])
        assert first._gram is gram and second._gram is None
        assert second.rates([(0, 1), (2, 3)]) == first.rates([(0, 1), (2, 3)])
        assert not np.shares_memory(first._gram, second._gram)
        assert np.array_equal(first._gram, second._gram)

    def test_concurrent_queries_identical(self):
        # eight threads of scalar and bulk queries: identical values, each
        # group queried counted once and each distinct group computed once
        _, oracle = rician_oracle(6, 3, seed=9)
        distinct = [(0, 1, 2), (3, 4), (5,), (0, 5), (1, 3, 5)]
        groups = distinct * 8
        batches = [groups[i:i + 3] for i in range(0, len(groups), 3)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            singles = [pool.submit(oracle.rate, g) for g in groups]
            bulk = [pool.submit(oracle.rates, b) for b in batches]
            values = [f.result() for f in singles] + [v for f in bulk for v in f.result()]
        assert oracle.query_count == 2 * len(groups)  # the batches hold each group once
        assert oracle.compute_count == len(distinct)
        want = dict(zip(distinct, rician_oracle(6, 3, seed=9)[1].rates(distinct)))
        assert values == [want[g] for g in groups * 2]

    def test_rejects_oversize_queries(self):
        _, oracle = rician_oracle(5, 2, seed=10)
        with pytest.raises(ValueError):
            oracle.rate((0, 1, 2))

    def test_rejects_cap_above_antennas(self):
        channels, _ = rician_oracle(5, 3, seed=11)
        with pytest.raises(ValueError):
            make_rate_oracle(channels, PhyConfig(), 5)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_cap_below_one(self, cap):
        channels, _ = rician_oracle(5, 3, seed=11)
        with pytest.raises(ValueError, match="max_group_size must be >= 1"):
            RateOracle(channels, PhyConfig(), cap)

    @pytest.mark.parametrize("cap", [2.5, 2.0, np.float64(2.0), "2", None])
    def test_rejects_non_integer_cap(self, cap):
        # refused when built, not deep inside a solver's first range()
        channels, _ = rician_oracle(5, 3, seed=11)
        with pytest.raises(ValueError, match="max_group_size must be >= 1 and integral"):
            RateOracle(channels, PhyConfig(), cap)

    def test_accepts_numpy_integer_cap(self):
        channels, oracle = rician_oracle(5, 3, seed=11)
        assert RateOracle(channels, PhyConfig(), np.int64(3)).rate((0, 1, 2)) == oracle.rate(
            (0, 1, 2))

    @pytest.mark.parametrize("group", [(0.5,), (1, 2.0), (np.float64(3.0),), ("1",), (0.0,),
                                       (np.float64(0.0),), (0, 1.0), ([0], 1), [[0], 1]])
    def test_refuses_non_integer_members(self, group):
        # checked before anything is computed or counted, and never a memo
        # key; (0.0,) and (0, 1.0) equal memo keys, which a warm oracle
        # must not answer them from, in a query of one or of all hits, and
        # ([0], 1) cannot be looked up at all
        _, oracle = rician_oracle(5, 2, seed=10)
        for warm_up in ([], [(0,), (0, 1)]):  # cold, then warm
            oracle.rates(warm_up)
            memo, counts = dict(oracle._memo), (oracle.query_count, oracle.compute_count)
            with pytest.raises(ValueError, match="members must be integers"):
                oracle.rate(group)
            for groups in ([group], [(0, 1), group], [(0,), group], [group, (1, 2)]):
                for query in (oracle.rates, oracle.precompute):
                    with pytest.raises(ValueError, match="members must be integers"):
                        query(groups)
            assert oracle._memo == memo and (oracle.query_count, oracle.compute_count) == counts

    def test_memo_hits_of_numpy_integers_match_ints(self):
        # not a built-in int, so checked, and then read from the memo
        _, oracle = rician_oracle(5, 2, seed=10)
        want = oracle.rates([(0,), (1, 3)])
        computes = oracle.compute_count
        assert oracle.rates([(np.int64(0),), (np.int32(1), np.int64(3))]) == want
        assert oracle.rate((np.int64(1), 3)) == want[1] and oracle.compute_count == computes


class TestZeroChannelUser:
    """A user whose channel is all zero is rank deficient in every group;
    its 0/0 stays inside ``_zf_sinr``, which turns warnings off for the
    rows it discards, and the tests' RuntimeWarning filter fails any 0/0
    outside it."""

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_oracle_scores_zero(self, cfg):
        channels = degenerate_channels(6, 8, seed=17)
        groups = [g for s in (1, 2, 3) for g in combinations(range(6), s)]
        oracle = make_rate_oracle(channels, cfg, 3)
        values = oracle.rates(groups)
        assert all((v == 0.0) == (0 in g or {4, 5} <= set(g)) for g, v in zip(groups, values))
        fresh = make_rate_oracle(channels, cfg, 3)
        assert fresh.rate((0,)) == fresh.rate((0, 3)) == 0.0

    def test_group_rate_raises(self):
        channels = degenerate_channels(6, 8, seed=17)
        for group in [(0,), (0, 3), (0, 1, 2)]:
            with pytest.raises(SingularChannelError):
                group_rate(channels, group, PhyConfig())


class TestChannelScale:
    """Rates stay finite, with no numeric warning, at the extremes of the
    channel scales that ``ChannelSet`` accepts."""

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    @pytest.mark.parametrize("scale", [1e-160, 1e99])
    def test_rates_finite(self, scale, cfg):
        channels, _ = rician_oracle(4, 2, seed=1, sc=8)
        scaled = ChannelSet(channels.entries * scale)
        groups = [g for s in (1, 2) for g in combinations(range(4), s)]
        oracle = make_rate_oracle(scaled, cfg, 2)
        values = [oracle.rate(g) for g in groups]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        if scale > 1.0:
            assert all(v > 0.0 for v in values)

    @pytest.mark.parametrize("scale,cfg", [
        (1e-160, PhyConfig()), (1e-160, MCS_WITH_MAC), (1e-150, PhyConfig(noise_power=1e20)),
    ], ids=["shannon", "mcs_mac", "loud_noise"])
    def test_mixed_scales_in_one_group(self, scale, cfg):
        # beside unit users, a 1e-160 user leaves a subnormal pivot, which
        # overflows the rest of that elimination row; at 1e-150 the pivot is
        # tiny but normal, and the SINR of that discarded row must not overflow
        channels, _ = rician_oracle(4, 4, seed=1, sc=8)
        h = channels.entries.copy()
        h[1] *= scale
        oracle = make_rate_oracle(ChannelSet(h), cfg, 4)
        groups = [g for s in range(1, 5) for g in combinations(range(4), s)]
        values = oracle.rates(groups)
        assert all(math.isfinite(v) and v >= 0.0 for v in values)
        assert all(v == 0.0 for g, v in zip(groups, values) if 1 in g and len(g) > 1)


class TestConditioningMask:
    """``_zf_sinr`` certifies most rows from trace and determinant and
    sends the rest to an SVD; its ``ok`` must be the SVD rule's on every
    row, and its rates bit for bit those of ``closed_form_rate``, which
    applies the SVD rule alone."""

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e99])
    @pytest.mark.parametrize("nt", [4, 8])
    def test_mask_matches_svd_rule(self, nt, scale):
        import mugroup.phy as phy

        channels = degenerate_channels(10, 2, seed=18, nt=nt)
        channels = ChannelSet(channels.entries * scale)
        for k in range(1, nt + 1):
            groups = list(combinations(range(10), k))
            ok = phy._zf_sinr(phy._user_gram(channels), groups, PhyConfig())[1]
            expected = reference_zf_batch(channels, groups)[2]
            assert np.array_equal(ok, expected) and not expected.all()

    def test_mask_at_the_condition_limit(self):
        import mugroup.phy as phy

        conds = [1e9, 1e11, 0.99e12, 1.01e12, 1e13]
        channels = conditioned_channels(conds)
        groups = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(len(conds))]
        expected = reference_zf_batch(channels, groups)[2]
        assert expected.tolist() == [True, True, True, False, False]
        ok = phy._zf_sinr(phy._user_gram(channels), groups, PhyConfig())[1]
        assert np.array_equal(ok, expected)

    @pytest.mark.parametrize("cfg,sc", [
        (PhyConfig(), 1), (PhyConfig(), 8), (MCS_WITH_MAC, 1), (MCS_WITH_MAC, 8),
    ], ids=["shannon-sc1", "shannon-sc8", "mcs_mac-sc1", "mcs_mac-sc8"])
    def test_rates_bit_identical_to_svd_rule(self, cfg, sc):
        import mugroup.phy as phy

        channels = degenerate_channels(9, sc, seed=19)
        gram = phy._user_gram(channels)
        for k in (1, 2, 3, 4):
            groups = list(combinations(range(9), k))
            expected = [closed_form_rate(channels, g, cfg) for g in groups]
            assert phy._batch_rates(gram, groups, cfg).tolist() == expected

    def test_svd_only_for_uncertified_rows(self, monkeypatch):
        svd_rows = []
        cond = np.linalg.cond

        def counted(x, *args, **kwargs):
            svd_rows.append(len(x))
            return cond(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counted)
        _, oracle = rician_oracle(12, 4, seed=20, sc=8)
        oracle.precompute([g for s in (1, 2, 3, 4) for g in combinations(range(12), s)])
        assert oracle.compute_count == 793 and sum(svd_rows) == 0
        channels = conditioned_channels([1e11])
        assert make_rate_oracle(channels, PhyConfig(), 3).rate((0, 1, 2)) > 0.0
        assert svd_rows == [1]


def bits(values):
    """The bit patterns of float64 values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestKernelReference:
    """The rate kernel against ``stepwise_batch_rates``, the same kernel
    with one numpy call per elementwise step: the memo must hold its bits.
    Random batches of every group size, single groups and batches past
    ``_MAX_BATCH_ROWS``; near-identical (rho 0.999999), identical and
    all-zero channels send rows to the SVD rule and to rate 0."""

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    @pytest.mark.parametrize("sc", [1, 8])
    @pytest.mark.parametrize("nt,sizes", [(4, (1, 2, 3, 4)), (8, (5, 6, 7, 8))],
                             ids=["nt4", "nt8"])
    @pytest.mark.parametrize("rho", [0.0, 0.999999])
    def test_memo_bits_match_stepwise_kernel(self, cfg, sc, nt, sizes, rho, monkeypatch):
        import mugroup.phy as phy

        conds = []
        cond = np.linalg.cond

        def recorded(x, *args, **kwargs):
            values = cond(x, *args, **kwargs)
            conds.extend(values.tolist())
            return values

        monkeypatch.setattr(np.linalg, "cond", recorded)

        m = 16
        channels, _ = rician_oracle(m, 1, seed=25, sc=sc, nt=nt, rho=rho, correlated=m)
        entries = np.array(channels.entries)
        entries[m - 1] = entries[m - 2]  # identical channels
        entries[0] = 0.0  # an all-zero channel
        channels = ChannelSet(entries)
        gram = phy._user_gram(channels)
        rng = np.random.default_rng(26)
        rows = phy._MAX_BATCH_ROWS // sc
        for k in sizes:
            everything = list(combinations(range(m), k))
            for n in (rows + 3, 2, 37):
                picked = rng.choice(len(everything), min(n, len(everything)), replace=False)
                groups = [everything[i] for i in sorted(picked)]
                expected = bits(stepwise_batch_rates(gram, groups, cfg))
                assert bits(phy._batch_rates(gram, groups, cfg)) == expected
                oracle = make_rate_oracle(channels, cfg, nt)
                oracle.precompute(groups)
                assert bits(list(oracle._memo.values())) == expected
            # the last 37 again, one query each: single rows when sc is 1
            oracle = make_rate_oracle(channels, cfg, nt)
            assert bits([oracle.rate(g) for g in groups]) == expected
        # rows the SVD rule rejects occur, and near-identical channels
        # also give uncertified rows that it clears
        assert any(not c <= phy._COND_LIMIT for c in conds)
        assert any(c <= phy._COND_LIMIT for c in conds) or rho == 0.0


class TestInverseAgreement:
    """The elimination against one LAPACK inverse per row
    (``inverse_rate``), which rounds differently."""

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    @pytest.mark.parametrize("sc", [1, 8])
    @pytest.mark.parametrize("nt", [4, 8])
    def test_every_group_size(self, nt, sc, cfg):
        # to 1e-9 relative, as the steering cross-check; users 8 and 9
        # share a channel, so groups holding both score 0 on both sides
        channels = channels_with_duplicate(10, sc, seed=22, nt=nt)
        oracle = make_rate_oracle(channels, cfg, nt)
        for k in range(1, nt + 1):
            groups = list(combinations(range(10), k))[::5]
            expected = [inverse_rate(channels, g, cfg) for g in groups]
            assert oracle.rates(groups) == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    def test_conditioned_groups(self, cfg):
        """Near the condition limit any two backward-stable inversions
        differ by about cond * eps, so 1e-9 cannot hold there (the two
        differ by 2.6e-6 at cond 1e11).  Both SINRs are checked against
        the exact inverse of the same A = G / tr G, in rational
        arithmetic, to 10 cond eps, and the rates against each other to
        twice that."""
        import mugroup.phy as phy

        conds = [1e9, 1e11, 0.99e12]
        channels = conditioned_channels(conds)
        groups = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(len(conds))]
        gram = phy._user_gram(channels)
        sinr, ok = phy._zf_sinr(gram, groups, cfg)
        assert ok.all()
        oracle = make_rate_oracle(channels, cfg, 3)
        p = cfg.total_power / 3
        for g, cond, row in zip(groups, conds, sinr):
            bound = 10 * cond * np.finfo(float).eps
            block = gram[np.ix_(g, g)][:, :, 0]
            tr = 0.0
            for m in range(3):
                tr += block[m, m].real
            unit = (block.view(np.float64) / tr).view(np.complex128)
            exact = ldl_inverse_diagonal(*([[Fraction(v) for v in r] for r in part.tolist()]
                                           for part in (unit.real, unit.imag)))
            exact_sinr = np.array([(p * tr) / (cfg.noise_power * float(v)) for v in exact])
            lapack_sinr = (p * tr) / (cfg.noise_power * np.diag(np.linalg.inv(unit)).real)
            assert row == pytest.approx(exact_sinr, rel=bound, abs=0.0)
            assert lapack_sinr == pytest.approx(exact_sinr, rel=bound, abs=0.0)
            assert oracle.rate(g) == pytest.approx(inverse_rate(channels, g, cfg),
                                                   rel=2 * bound, abs=0.0)


class TestMcsMapping:
    def test_table_invariant(self):
        bits = [e.bits_per_subcarrier for e in DEFAULT_MCS_TABLE]
        snrs = [e.min_snr_db for e in DEFAULT_MCS_TABLE]
        assert bits == sorted(bits) and len(set(bits)) == len(bits)
        assert snrs == sorted(snrs) and len(set(snrs)) == len(snrs)

    def test_below_lowest_threshold(self):
        assert map_sinr_to_mcs(1.9) is None

    def test_inclusive_threshold(self):
        assert map_sinr_to_mcs(15.0).index == 4
        assert map_sinr_to_mcs(14.999).index == 3

    def test_saturation(self):
        assert map_sinr_to_mcs(60.0).index == 9

    def test_empty_table(self):
        with pytest.raises(ConfigurationError):
            map_sinr_to_mcs(10.0, table=())

    @pytest.mark.parametrize("bits, threshold", [
        (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf),
        (-1.0, 2.0), (math.inf, 2.0), (math.nan, 2.0),
    ])
    def test_entry_values_checked(self, bits, threshold):
        # a NaN threshold would score every group 0, negative or infinite
        # bits a negative or infinite objective
        with pytest.raises(ValueError, match="MCS entry 3 needs finite values and bits >= 0"):
            McsEntry(3, bits, threshold)
        McsEntry(3, 0.0, -40.0)  # a zero-rate entry and a negative threshold are fine

    @pytest.mark.parametrize("order", ["default", "ascending", "shuffled", "descending",
                                       "repeated"])
    def test_array_lookup_matches_map_sinr_to_mcs(self, order):
        rng = np.random.default_rng(len(order))
        sinr = np.concatenate([[0.0, 1e-300, 1e300], 10 ** rng.uniform(-1, 4, 4000)])
        if order == "default":
            table = DEFAULT_MCS_TABLE
            at = 10 ** (np.array([e.min_snr_db for e in table]) / 10)
            sinr = np.concatenate([sinr, at, np.nextafter(at, 0), np.nextafter(at, np.inf)])
        with np.errstate(divide="ignore"):
            sinr_db = 10.0 * np.log10(sinr)  # as the lookup computes it
        if order != "default":
            # thresholds drawn from the SINRs themselves, so some are met exactly
            thresholds = sorted(rng.choice(sinr_db[3:], 8, replace=False))
            if order == "shuffled":
                thresholds = rng.permutation(thresholds)
            elif order == "descending":
                thresholds = thresholds[::-1]
            elif order == "repeated":
                thresholds = [thresholds[i] for i in (0, 3, 3, 1, 6, 5, 7, 7)]
            table = tuple(McsEntry(i, 0.5 * (i + 1), float(t))
                          for i, t in enumerate(thresholds))
        cfg = PhyConfig(rate_mode=RateMode.MCS_MAPPED, mcs_table=table)
        met = np.isin(sinr_db, [e.min_snr_db for e in table])
        assert met.any()
        want = []
        for db in sinr_db.tolist():
            entry = map_sinr_to_mcs(db, table)
            want.append(0.0 if entry is None else phy_rate(entry, cfg))
        assert _mcs_rates(cfg)(sinr).tolist() == want

    @pytest.mark.parametrize("entry,expected_mbps", [
        (McsEntry(0, 0.5, 2.0), 15.0),
        (McsEntry(7, 5.0, 25.0), 150.0),
        (McsEntry(9, 20.0 / 3.0, 31.0), 200.0),
    ])
    def test_phy_rate_values(self, entry, expected_mbps):
        assert phy_rate(entry, PhyConfig()) == pytest.approx(expected_mbps * 1e6)

    def test_mac_overhead(self):
        cfg = PhyConfig(mac_overhead_enabled=True)
        entry = McsEntry(7, 5.0, 25.0)
        assert phy_rate(entry, cfg) == pytest.approx(150e6 * MAC_OVERHEAD_FACTOR)
        assert MAC_OVERHEAD_FACTOR == pytest.approx((1508 / 1556) * (2.0 / 2.016))


class TestPhyConfig:
    def test_overflowing_power_ratio_refused(self):
        # P / N0 = 1e600 used to overflow the SINR to inf
        with pytest.raises(ValueError, match="1e\\+60"):
            PhyConfig(noise_power=1e-300, total_power=1e300)
        with pytest.raises(ValueError, match="total_power / noise_power .* 1e\\+60"):
            PhyConfig(noise_power=1e-50, total_power=1e11)
        with pytest.raises(ValueError, match="noise_power and total_power .* 1e\\+60"):
            PhyConfig(noise_power=1e61, total_power=1e61)

    @pytest.mark.parametrize("cfg", [PhyConfig(), MCS_WITH_MAC], ids=["shannon", "mcs_mac"])
    @pytest.mark.parametrize("noise", [MAX_POWER / MAX_POWER_RATIO, MAX_POWER])
    def test_largest_accepted_corner_stays_finite(self, cfg, noise):
        import dataclasses

        import mugroup.phy as phy

        corner = dataclasses.replace(cfg, total_power=MAX_POWER, noise_power=noise)
        channels, _ = rician_oracle(8, 4, seed=24, sc=8, nt=4)
        h = channels.entries / np.abs(channels.entries.view(np.float64)).max() * 1e100
        scaled = ChannelSet(h)
        assert np.abs(scaled.entries.view(np.float64)).max() == 1e100
        groups = [g for s in (1, 2, 3, 4) for g in combinations(range(8), s)]
        with np.errstate(all="raise"):
            gram = phy._user_gram(scaled)
            for k in (1, 2, 3, 4):
                sinr, ok = phy._zf_sinr(gram, [g for g in groups if len(g) == k], corner)
                assert np.isfinite(sinr).all() and ok.all()
            values = make_rate_oracle(scaled, corner, 4).rates(groups)
        assert all(math.isfinite(v) and v > 0.0 for v in values)

    @pytest.mark.parametrize("mode", ["shannon", "mcs"])
    def test_largest_accepted_rates_stay_finite(self, mode):
        # the largest power ratio, bandwidth and MCS bits, on channels at the
        # magnitude bound: every rate and the objective of every partition
        # the solvers return stay finite
        top = McsEntry(0, 1e3, -300.0)  # met by every SINR
        cfg = PhyConfig(bandwidth_hz=MAX_BANDWIDTH_HZ, noise_power=MAX_POWER / MAX_POWER_RATIO,
                        total_power=MAX_POWER, rate_mode=mode, mcs_table=(top,))
        channels, _ = rician_oracle(8, 4, seed=24, sc=8, nt=4)
        h = channels.entries / np.abs(channels.entries.view(np.float64)).max() * 1e100
        oracle = make_rate_oracle(ChannelSet(h), cfg, 4)
        with np.errstate(all="raise"):
            rates = oracle.rates([g for s in (1, 2, 3, 4) for g in combinations(range(8), s)])
            values = [solve(oracle).objective_value for solve in (exhaustive_search, gma)]
        assert all(math.isfinite(v) and v > 0.0 for v in rates + values)
        if mode == "mcs":  # 108 tones * 1000 bits / 3.6 us per member
            assert oracle.rate((0,)) == pytest.approx(108 * 1e3 / 3.6e-6)

    def test_bounds_on_bandwidth_and_mcs_bits(self):
        # the bounds themselves are admitted; above them a rate could overflow
        assert PhyConfig(bandwidth_hz=MAX_BANDWIDTH_HZ).bandwidth_hz == 1e12
        assert McsEntry(0, 1e3, 2.0).bits_per_subcarrier == 1e3
        for bandwidth in (np.nextafter(MAX_BANDWIDTH_HZ, math.inf), 1e307):
            with pytest.raises(ValueError, match="bandwidth_hz must be at most 1e\\+12"):
                PhyConfig(bandwidth_hz=bandwidth)
        for bits in (np.nextafter(1e3, math.inf), 1e300):
            with pytest.raises(ValueError, match="bits >= 0, at most 1000"):
                McsEntry(0, bits, 2.0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            PhyConfig(bandwidth_hz=0)
        with pytest.raises(ValueError):
            PhyConfig(noise_power=-1)

    @pytest.mark.parametrize("field", ["bandwidth_hz", "noise_power", "total_power"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_finite_parameters(self, field, value):
        # NaN passes a bare "<= 0" check and would leave every rate NaN
        with pytest.raises(ValueError, match="finite"):
            PhyConfig(**{field: value})
