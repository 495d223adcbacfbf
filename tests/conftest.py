import numpy as np
import pytest

from mugroup.channel import ChannelSet, CorrelatedRicianSpec, generate_rician
from mugroup.phy import PhyConfig, RateMode, RateOracle, make_rate_oracle


class FixtureOracle:
    """Mapping-backed rate oracle for hand-built test instances.

    Unlisted groups fall back to a per-size default so solvers can query
    any subset.
    """

    def __init__(self, table, size_defaults=None, num_users=None, max_group_size=3):
        self.table = {tuple(sorted(k)): float(v) for k, v in table.items()}
        self.size_defaults = size_defaults or {}
        self.num_users = num_users or max(max(k) for k in self.table) + 1
        self.max_group_size = max_group_size
        self.query_count = 0

    def rate(self, group):
        self.query_count += 1
        g = tuple(sorted(group))
        if g in self.table:
            return self.table[g]
        if len(g) in self.size_defaults:
            return self.size_defaults[len(g)]
        raise KeyError(f"no rate for group {g}")

    def rates(self, groups, *, checked=False):
        return [self.rate(g) for g in groups]

    def precompute(self, groups, *, checked=False):
        """Nothing to fill: every rate is in the table already, and only
        queries count."""


def vdot_correlation(channels, i, j):
    """Per-pair correlation reference: the complex inner product of the two
    users' channels per subcarrier, normalized and averaged."""
    vals = []
    for s in range(channels.num_subcarriers):
        hi, hj = channels.entries[i, :, s], channels.entries[j, :, s]
        ni, nj = np.linalg.norm(hi), np.linalg.norm(hj)
        vals.append(0.0 if ni == 0.0 or nj == 0.0 else abs(np.vdot(hi, hj)) / (ni * nj))
    return min(float(np.mean(vals)), 1.0)


def random_oracle(rng, num_users, max_group_size, low=1.0, high=10.0):
    """Random rate table over all subsets up to the cap; rates shrink per
    user as groups grow, like interference-limited links do."""
    from itertools import combinations

    table = {}
    for size in range(1, max_group_size + 1):
        for subset in combinations(range(num_users), size):
            table[subset] = rng.uniform(low, high) / size * (1 + 0.5 * size)
    return FixtureOracle(table, num_users=num_users, max_group_size=max_group_size)


def o1(max_group_size=3):
    """Three users whose every grouping scores below serving all alone."""
    return FixtureOracle(
        {(0,): 4, (1,): 4, (2,): 4, (0, 1): 3.5, (0, 2): 1, (1, 2): 1, (0, 1, 2): 0.8},
        num_users=3, max_group_size=max_group_size,
    )


def o2(max_group_size=3):
    """Three users where only the pair (0, 1) pays off."""
    return FixtureOracle(
        {(0,): 4, (1,): 4, (2,): 4, (0, 1): 4.5, (0, 2): 1, (1, 2): 1, (0, 1, 2): 0.8},
        num_users=3, max_group_size=max_group_size,
    )


@pytest.fixture
def oracle_o1():
    return o1()


@pytest.fixture
def oracle_o2():
    return o2()


# Twelve stations A..L = 0..11.  Designed so the pairing stage yields
# (AG)(EH)(BJ)(DK)(FI) with C and L single, the merge stage proposes
# EH+F, AG+I, BJ+L, DK+C, and only the first three merges pay off.
STATION = {c: i for i, c in enumerate("ABCDEFGHIJKL")}


def _g(letters):
    return tuple(sorted(STATION[c] for c in letters))


TWELVE_STATION_RESULT = sorted([_g("EFH"), _g("AGI"), _g("BJL"), _g("DK"), _g("C")])
TWELVE_STATION_PAIRS = sorted([_g("AG"), _g("EH"), _g("BJ"), _g("DK"), _g("FI")])


@pytest.fixture
def twelve_station_oracle():
    table = {(u,): 4.0 for u in range(12)}
    table[_g("C")] = 4.8
    table[_g("L")] = 4.5
    table[_g("F")] = 4.2
    table[_g("I")] = 4.0
    table[_g("AG")] = 9.5
    table[_g("EH")] = 10.0
    table[_g("BJ")] = 9.0
    table[_g("DK")] = 8.5
    table[_g("FI")] = 5.0
    table[_g("EFH")] = 9.0
    table[_g("AGI")] = 8.0
    table[_g("BJL")] = 8.5
    table[_g("CDK")] = 4.0
    return FixtureOracle(table, size_defaults={2: 3.0, 3: 1.0}, num_users=12)


def identity_channels(n=2):
    return ChannelSet(n, n, 1, np.eye(n, dtype=complex)[:, :, None])


@pytest.fixture
def phy_unit():
    return PhyConfig(bandwidth_hz=1.0, noise_power=1.0, total_power=6.0)


MCS_WITH_MAC = PhyConfig(rate_mode=RateMode.MCS_MAPPED, mac_overhead_enabled=True)


@pytest.fixture
def check_calls(monkeypatch) -> list:
    """The group of every ``RateOracle._check`` call from now on."""
    calls = []
    check = RateOracle._check

    def counted(self, group):
        calls.append(group)
        return check(self, group)

    monkeypatch.setattr(RateOracle, "_check", counted)
    return calls


def rician_oracle(m, nu, seed, *, k_db=8.0, rho=0.0, correlated=0, nt=4, sc=1,
                  phy=None):
    spec = CorrelatedRicianSpec(num_users=m, num_tx_antennas=nt, num_subcarriers=sc,
                                k_factor_db=k_db, rho=rho,
                                correlated_user_count=correlated, seed=seed)
    channels = generate_rician(spec)
    return channels, make_rate_oracle(channels, phy or PhyConfig(), nu)
