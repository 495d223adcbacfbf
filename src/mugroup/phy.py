"""Zero-forcing precoding, the group-rate estimate, and the rate oracle.

The estimated capacity of serving a user group simultaneously is

    R(G) = B * sum_{m in G} log2(1 + P_m |h_m w_m|^2 /
                                 (N0 + sum_{i != m} P_i |h_m w_i|^2))

with equal power split P_m = P/|G| and unit-norm zero-forcing steering
columns.  Rates are averaged over subcarriers with the bandwidth applied
once.  An optional mode maps per-user SINR through an 802.11ac-style
MCS table instead of the Shannon log term.

One vectorized implementation computes every rate: ``_zf_batch`` stacks
the channels of a batch of same-size groups over all subcarriers and
solves for their steering, and ``_zf_rates`` turns that into group rates
in either rate mode.  ``_batch_rates`` hands these at most
``_MAX_BATCH_ROWS`` (group, subcarrier) rows per call, so the memory of a
batch does not grow with its length.  ``zf_steering`` and ``group_rate``
are batches of one that raise on rank-deficient groups.  The oracle
scores those 0: ``RateOracle.rate`` is a batch of one, ``RateOracle.rates``
answers a list of groups in one bulk query, and ``RateOracle.precompute``
fills the memo per group size.  Every row gets its own LAPACK call, so a
rate does not depend on the batch it was computed in.  Groups are
checked and put in canonical order by ``grouping.canonical_group``.

A group is rank deficient on a subcarrier when the condition number of
H H^H exceeds ``_COND_LIMIT``.  The bound cond(G) <= tr(G)^k / det(G),
with a 100x margin, clears most rows; only the rest pay for an SVD.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelSet
from .errors import ConfigurationError, SingularChannelError
from .grouping import canonical_group

__all__ = [
    "RateMode",
    "PhyConfig",
    "SteeringMatrix",
    "McsEntry",
    "DEFAULT_MCS_TABLE",
    "zf_steering",
    "group_rate",
    "RateOracle",
    "make_rate_oracle",
    "map_sinr_to_mcs",
    "phy_rate",
]

# condition-number limit for HH^H before a group counts as rank deficient
_COND_LIMIT = 1e12

# bound on tr^k / det that certifies HH^H well conditioned without an SVD;
# 100x below _COND_LIMIT, so rounding cannot carry a certified row past it
_CERT_LIMIT = _COND_LIMIT / 100

# most (group, subcarrier) rows that one ``_zf_batch`` call stacks
_MAX_BATCH_ROWS = 1024

# 40 MHz OFDM numerology and MAC framing constants
DATA_SUBCARRIERS = 108
SYMBOL_SECONDS = 3.6e-6  # 3.2 us core symbol + 0.4 us guard interval
MSDU_BYTES = 1508
MPDU_BYTES = 1556
AMPDU_SECONDS = 2.0e-3
SIFS_SECONDS = 16e-6
MAC_OVERHEAD_FACTOR = (MSDU_BYTES / MPDU_BYTES) * (AMPDU_SECONDS / (AMPDU_SECONDS + SIFS_SECONDS))


class RateMode(Enum):
    SHANNON = "shannon"
    MCS_MAPPED = "mcs"


@dataclass(frozen=True)
class McsEntry:
    """One row of the link-adaptation table."""

    index: int
    bits_per_subcarrier: float  # modulation bits times coding rate
    min_snr_db: float


# Modulation ladder BPSK..256-QAM with the usual coding rates; the SNR
# thresholds are this package's documented defaults and can be overridden
# through PhyConfig.
DEFAULT_MCS_TABLE: tuple[McsEntry, ...] = (
    McsEntry(0, 0.5, 2.0),      # BPSK 1/2
    McsEntry(1, 1.0, 5.0),      # QPSK 1/2
    McsEntry(2, 1.5, 9.0),      # QPSK 3/4
    McsEntry(3, 2.0, 11.0),     # 16-QAM 1/2
    McsEntry(4, 3.0, 15.0),     # 16-QAM 3/4
    McsEntry(5, 4.0, 18.0),     # 64-QAM 2/3
    McsEntry(6, 4.5, 20.0),     # 64-QAM 3/4
    McsEntry(7, 5.0, 25.0),     # 64-QAM 5/6
    McsEntry(8, 6.0, 29.0),     # 256-QAM 3/4
    McsEntry(9, 20.0 / 3.0, 31.0),  # 256-QAM 5/6
)


@dataclass(frozen=True)
class PhyConfig:
    """Link-budget and rate-model parameters."""

    bandwidth_hz: float = 40e6
    noise_power: float = 1.0
    total_power: float = 100.0
    rate_mode: RateMode = RateMode.SHANNON
    mac_overhead_enabled: bool = False
    mcs_table: tuple[McsEntry, ...] = DEFAULT_MCS_TABLE

    def __post_init__(self):
        if self.bandwidth_hz <= 0 or self.noise_power <= 0 or self.total_power <= 0:
            raise ValueError("bandwidth_hz, noise_power and total_power must be positive")


@dataclass(frozen=True)
class SteeringMatrix:
    """Unit-norm steering columns for one group, per subcarrier.

    ``columns`` has shape (num_subcarriers, num_tx_antennas, group size);
    column m serves ``group[m]``.
    """

    group: tuple[int, ...]
    columns: np.ndarray
    per_subcarrier: bool


def _zf_batch(channels: ChannelSet, groups: list[tuple[int, ...]]):
    """Zero-forcing for same-size groups on every subcarrier at once.

    Returns ``(h, w, ok)`` with one row per (group, subcarrier), group
    major: ``h`` (n*sc, k, Nt) holds the stacked channels, ``w``
    (n*sc, Nt, k) the steering H^H (H H^H)^-1 with unit-norm columns, and
    ``ok`` (n*sc,) marks rows whose Gram matrix G = H H^H has condition
    number at most ``_COND_LIMIT``.  Rows that are not ok are solved
    against the identity and mean nothing (a zero column there stays
    zero).  Every row gets its own LAPACK call, so a group's values do not
    depend on which other groups share the batch.

    For positive-definite G, lambda_max <= tr G and lambda_min >=
    det G / tr(G)^(k-1), so cond(G) <= tr(G)^k / det G.  A row with
    det(G / tr G) >= 1 / ``_CERT_LIMIT`` has cond at most 1e10, 100x
    below the limit, which rounding cannot bridge: it is ok without an
    SVD.  G / tr G has entries of magnitude at most 1, so its det cannot
    overflow, as det G and tr(G)^k can at large channel scales, and it
    underflows only far below the bound.  The rows left, singular and
    near-singular ones, get the exact rule, one SVD each, so ``ok`` is
    the mask that rule alone gives.
    """
    n, k = len(groups), len(groups[0])
    sc, nt = channels.num_subcarriers, channels.num_tx_antennas
    h = channels.entries[np.asarray(groups)]  # (n, k, Nt, sc)
    # a contiguous copy whatever n is: a strided view would make matmul
    # take another summation order for a batch of one
    h = np.ascontiguousarray(np.moveaxis(h, 3, 1).reshape(n * sc, k, nt))
    gram = h @ np.conj(np.swapaxes(h, 1, 2))
    tr = np.einsum("ijj->i", gram).real
    # real and imaginary parts divided as reals: numpy's complex divide
    # takes 1/tr first, which overflows for a subnormal trace
    unit = gram.view(np.float64) / np.where(tr > 0, tr, 1.0)[:, None, None]
    ok = np.linalg.det(unit.view(gram.dtype)).real >= 1 / _CERT_LIMIT
    if not ok.all():
        rest = ~ok
        ok[rest] = np.linalg.cond(gram[rest]) <= _COND_LIMIT
        gram[~ok] = np.eye(k)
    w = np.conj(np.swapaxes(np.linalg.solve(gram, h), 1, 2))
    norm = np.linalg.norm(w, axis=1, keepdims=True)
    norm[~ok] = 1.0  # a zero channel leaves a zero column there, not 0/0
    w /= norm
    return h, w, ok


def _mcs_rates(sinr: np.ndarray, cfg: PhyConfig) -> np.ndarray:
    """Elementwise ``phy_rate(map_sinr_to_mcs(dB(sinr)))``, 0 below MCS 0.

    The entry chosen is the last one before the first unmet threshold, as
    in ``map_sinr_to_mcs``, so tables that are not ascending map alike.
    """
    if not cfg.mcs_table:
        raise ConfigurationError("MCS table must not be empty")
    # the +inf sentinel is never met, so argmin finds a first unmet one
    thresholds = np.array([e.min_snr_db for e in cfg.mcs_table] + [np.inf])
    values = np.array([0.0] + [phy_rate(e, cfg) for e in cfg.mcs_table])
    with np.errstate(divide="ignore"):
        sinr_db = 10.0 * np.log10(sinr)
    return values[np.argmin(sinr_db[..., None] >= thresholds, axis=-1)]


def _zf_rates(h: np.ndarray, w: np.ndarray, ok: np.ndarray, num_groups: int,
              cfg: PhyConfig) -> np.ndarray:
    """Group rates from ``_zf_batch`` output, averaged over subcarriers;
    0 for a group that is rank deficient on any subcarrier.

    The interference sum is always evaluated in full even though exact ZF
    drives it to numerical zero on flat channels.
    """
    k = h.shape[1]
    gains = np.abs(h @ w) ** 2  # (n*sc, k, k): |h_m w_i|^2
    p = cfg.total_power / k
    signal = np.diagonal(gains, axis1=1, axis2=2)
    interference = gains.sum(axis=2) - signal
    sinr = (p * signal) / (cfg.noise_power + p * interference)
    if cfg.rate_mode is RateMode.SHANNON:
        per_sc = cfg.bandwidth_hz * np.log2(1.0 + sinr).sum(axis=1)
    else:
        # summed user by user in order, like a scalar loop over the users
        per_sc = np.add.accumulate(_mcs_rates(sinr, cfg), axis=1)[:, -1]
    rates = per_sc.reshape(num_groups, -1).mean(axis=1)
    rates[~ok.reshape(num_groups, -1).all(axis=1)] = 0.0
    return rates


def _batch_rates(channels: ChannelSet, groups: list[tuple[int, ...]],
                 cfg: PhyConfig) -> np.ndarray:
    """Rates of same-size groups, in chunks of at most ``_MAX_BATCH_ROWS``
    rows (whole groups, at least one per chunk)."""
    step = max(1, _MAX_BATCH_ROWS // channels.num_subcarriers)
    chunks = (groups[i:i + step] for i in range(0, len(groups), step))
    return np.concatenate([
        _zf_rates(*_zf_batch(channels, chunk), len(chunk), cfg) for chunk in chunks
    ])


def _zf_group(channels: ChannelSet, group):
    """``_zf_batch`` for one validated group; raises SingularChannelError
    if it is rank deficient on any subcarrier."""
    members = canonical_group(group)
    if len(members) > channels.num_tx_antennas:
        raise ValueError(
            f"group size {len(members)} exceeds {channels.num_tx_antennas} transmit antennas"
        )
    for u in members:
        if not 0 <= u < channels.num_users:
            raise ValueError(f"user index {u} out of range")
    h, w, ok = _zf_batch(channels, [members])
    if not ok.all():
        raise SingularChannelError(
            f"rank-deficient channel for group {members} on subcarrier {int(np.argmin(ok))}"
        )
    return members, h, w, ok


def zf_steering(channels: ChannelSet, group) -> SteeringMatrix:
    """Channel-inversion steering W = H^H (H H^H)^-1, columns renormalized.

    For a singleton this reduces to the matched direction h^H/||h||.
    Raises SingularChannelError if the stacked group channel is rank
    deficient on any subcarrier.
    """
    members, _, w, _ = _zf_group(channels, group)
    return SteeringMatrix(members, w, per_subcarrier=channels.num_subcarriers > 1)


def group_rate(channels: ChannelSet, group, cfg: PhyConfig) -> float:
    """Estimated group capacity in bits/s, averaged over subcarriers.

    Raises SingularChannelError for a rank-deficient group.
    """
    _, h, w, ok = _zf_group(channels, group)
    return float(_zf_rates(h, w, ok, 1, cfg)[0])


class RateOracle:
    """Memoized map from user groups to their estimated rate.

    Rank-deficient groups get rate 0 instead of an error so that search
    algorithms stay total over all subsets.  ``rate(g)`` answers one group;
    ``rates(groups)`` answers a list in one bulk query and computes its
    misses through ``precompute``, which batches them per group size in
    chunks of at most ``_MAX_BATCH_ROWS`` (group, subcarrier) rows.  Each
    query adds one to ``query_count`` and each computed group one to
    ``compute_count``; values are the same whichever path computed them.
    Thread safe: concurrent identical queries return identical values.
    """

    def __init__(self, channels: ChannelSet, cfg: PhyConfig, max_group_size: int):
        if max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        if max_group_size > channels.num_tx_antennas:
            raise ValueError(
                f"max_group_size {max_group_size} exceeds "
                f"{channels.num_tx_antennas} transmit antennas"
            )
        self.channels = channels
        self.cfg = cfg
        self.max_group_size = max_group_size
        self.num_users = channels.num_users
        self.query_count = 0
        self.compute_count = 0
        self._memo: dict[tuple[int, ...], float] = {}
        self._lock = threading.Lock()

    def _check(self, group) -> tuple[int, ...]:
        members = canonical_group(group)
        if len(members) > self.max_group_size:
            raise ValueError(
                f"group {members} exceeds max group size {self.max_group_size}"
            )
        if members[-1] >= self.num_users or members[0] < 0:
            raise ValueError(f"group {members} out of range for {self.num_users} users")
        return members

    def rate(self, group) -> float:
        members = self._check(group)
        with self._lock:
            self.query_count += 1
            value = self._memo.get(members)
            if value is None:
                self.compute_count += 1
                value = float(_batch_rates(self.channels, [members], self.cfg)[0])
                self._memo[members] = value
            return value

    def rates(self, groups) -> list[float]:
        """``[rate(g) for g in groups]`` as one bulk query.

        Every group is checked before anything is computed or counted, so
        a bad group leaves the memo and both counters as they were.  The
        groups not yet memoized go through ``precompute``.
        """
        members = [self._check(g) for g in groups]
        with self._lock:
            self.query_count += len(members)
            missing = [m for m in members if m not in self._memo]
        if missing:
            self.precompute(missing)
        memo = self._memo  # entries are never removed or changed
        return [memo[m] for m in members]

    def precompute(self, groups) -> None:
        """Batch-fill the memo: vectorized computations per group size,
        each of at most ``_MAX_BATCH_ROWS`` (group, subcarrier) rows."""
        todo: dict[int, set[tuple[int, ...]]] = {}
        with self._lock:
            for group in groups:
                members = self._check(group)
                if members not in self._memo:
                    todo.setdefault(len(members), set()).add(members)
            for size_groups in todo.values():
                unique = sorted(size_groups)
                rates = _batch_rates(self.channels, unique, self.cfg)
                self.compute_count += len(unique)
                self._memo.update(zip(unique, rates.tolist()))


def make_rate_oracle(channels: ChannelSet, cfg: PhyConfig, max_group_size: int) -> RateOracle:
    """Lazily memoized rate oracle over groups of size <= max_group_size."""
    return RateOracle(channels, cfg, max_group_size)


def map_sinr_to_mcs(sinr_db: float, table=DEFAULT_MCS_TABLE) -> McsEntry | None:
    """Highest entry whose threshold is met (inclusive); None below MCS 0."""
    if not table:
        raise ConfigurationError("MCS table must not be empty")
    chosen = None
    for entry in table:
        if sinr_db >= entry.min_snr_db:
            chosen = entry
        else:
            break
    return chosen


def phy_rate(entry: McsEntry, cfg: PhyConfig) -> float:
    """PHY data rate in bits/s for the 40 MHz numerology (108 data tones,
    3.6 us symbol), times the MAC efficiency factor when enabled."""
    rate = DATA_SUBCARRIERS * entry.bits_per_subcarrier / SYMBOL_SECONDS
    if cfg.mac_overhead_enabled:
        rate *= MAC_OVERHEAD_FACTOR
    return rate
