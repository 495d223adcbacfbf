"""Zero-forcing group rates in closed form, and the rate oracle.

The estimated capacity of serving a user group simultaneously is

    R(G) = B * sum_{m in G} log2(1 + P_m |h_m w_m|^2 /
                                 (N0 + sum_{i != m} P_i |h_m w_i|^2))

with equal power split P_m = p = P/|G| and unit-norm zero-forcing
steering columns.  Rates are averaged over subcarriers with the bandwidth
applied once.  An optional mode maps per-user SINR through an
802.11ac-style MCS table instead of the Shannon log term.

No steering vector is ever built.  The unnormalized ZF steering
W = H^H G^-1, with G = H H^H the group's k x k Gram matrix, gives
H W = I, so the interference terms vanish, and the column for member m
has squared norm (G^-1 G G^-1)_mm = [G^-1]_mm.  After unit-norm scaling
|h_m w_m|^2 = 1 / [G^-1]_mm, so

    SINR_m = p / (N0 [G^-1]_mm) = p tr(G) / (N0 [(G / tr G)^-1]_mm)

(Spencer, Swindlehurst and Haardt, "Zero-forcing methods for downlink
spatial multiplexing in multiuser MIMO channels", IEEE TSP 2004).  The
scaled A = G / tr G has entries of magnitude at most 1, so nothing in its
factorization overflows at any channel scale that ``ChannelSet`` accepts.

One LDL^H elimination A = L D L^H (Golub and Van Loan, Matrix
Computations, 4.1) gives [A^-1]_mm = sum_{j >= m} |(L^-1)_jm|^2 / D_j,
and its pivots D_j multiply to det A.  A group is rank deficient on a
subcarrier, and has rate 0 there, when cond(G) exceeds ``_COND_LIMIT``;
since cond(G) <= 1 / det A, the pivots clear most rows with a 100x
margin and only the rest pay for an SVD (``_zf_sinr``).

Each ``RateOracle`` builds one user Gram U[i, j, s] = <h_i, h_j> per
subcarrier on its first computation (``_user_gram``), which takes
SC*M^2*16 bytes and lives as long as the oracle.  No two oracles share
one, so every solve on a fresh oracle starts cold.  A batch of same-size
groups gathers its Gram matrices from U and eliminates them together, at
most ``_MAX_BATCH_ROWS`` (group, subcarrier) rows per chunk, so the
memory of a batch does not grow with its length.  With no LAPACK call,
each numpy call applies one real operation to all rows alike, and sums
over members run in member order on an axis that numpy does not sum
pairwise, so a rate does not depend on the batch it was computed in (the
tests hold it to the bits of one call per step, ``stepwise_batch_rates``).
``RateOracle.rate`` answers one group, ``RateOracle.rates`` a list of
groups in one bulk query, and ``RateOracle.precompute`` fills the memo.
Groups are checked and put in canonical order by
``grouping.canonical_group``, except a tuple already in the memo (memo
keys were checked when they were stored) and a batch that its caller
passes to ``rates`` or ``precompute`` as checked.  The MCS lookup
(``_mcs_rates``) is built once per ``PhyConfig``, when the config is.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from itertools import chain

import numpy as np

from .channel import ChannelSet
from .errors import ConfigurationError
from .grouping import canonical_group

__all__ = [
    "RateMode",
    "PhyConfig",
    "McsEntry",
    "DEFAULT_MCS_TABLE",
    "MAX_POWER",
    "MAX_POWER_RATIO",
    "RateOracle",
    "make_rate_oracle",
    "phy_rate",
]

# condition-number limit for HH^H before a group counts as rank deficient
_COND_LIMIT = 1e12

# bound on tr^k / det that certifies HH^H well conditioned without an SVD;
# 100x below _COND_LIMIT, so rounding cannot carry a certified row past it
_CERT_LIMIT = _COND_LIMIT / 100

# most (group, subcarrier) rows that one ``_zf_sinr`` call gathers
_MAX_BATCH_ROWS = 1024

# largest total_power or noise_power, and largest total_power / noise_power
# (600 dB); ``PhyConfig`` derives why every SINR intermediate stays finite
MAX_POWER = 1e60
MAX_POWER_RATIO = 1e60

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

    def __post_init__(self):
        if not (0 <= self.bits_per_subcarrier < math.inf and math.isfinite(self.min_snr_db)):
            raise ValueError(f"MCS entry {self.index} needs finite values and bits >= 0")


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
    """Link-budget and rate-model parameters.

    ``total_power`` and ``noise_power`` are at most ``MAX_POWER`` and their
    ratio P / N0 at most ``MAX_POWER_RATIO``, so that every intermediate of
    ``_zf_sinr``, SINR = (p tr G) / (N0 [A^-1]_mm) with p = P / k and
    A = G / tr G, is finite for channels within ``MAX_CHANNEL_MAGNITUDE``
    (1e100 per real or imaginary part) and any antenna count Nt < 1e40:

    * a Gram diagonal entry is at most 2e200 Nt, so p tr G <= P 2e200 Nt
      <= 2e260 Nt;
    * [A^-1]_mm >= 1 / A_mm >= 1, and on a kept row (cond G <= 1e12)
      [A^-1]_mm <= 1 / lambda_min(A) <= k 1e12 (a discarded row is set to
      1), so N0 [A^-1]_mm <= 1e72 k;
    * SINR <= (P / N0) 2e200 Nt <= 2e260 Nt.

    All three stay below 1e301, far from overflow at 1.8e308.  ``mcs_rates``,
    not a field, is the MCS lookup (``_mcs_rates``) in MCS mode, else None.
    """

    bandwidth_hz: float = 40e6
    noise_power: float = 1.0
    total_power: float = 100.0
    rate_mode: RateMode = RateMode.SHANNON
    mac_overhead_enabled: bool = False
    mcs_table: tuple[McsEntry, ...] = DEFAULT_MCS_TABLE

    def __post_init__(self):
        if not all(0 < v < math.inf
                   for v in (self.bandwidth_hz, self.noise_power, self.total_power)):
            raise ValueError(
                "bandwidth_hz, noise_power and total_power must be finite and positive")
        if not (self.total_power <= MAX_POWER and self.noise_power <= MAX_POWER):
            raise ValueError(f"noise_power and total_power must be at most {MAX_POWER:g}")
        if not self.total_power / self.noise_power <= MAX_POWER_RATIO:
            raise ValueError(
                f"total_power / noise_power must be at most {MAX_POWER_RATIO:g}")
        mcs = self.rate_mode is RateMode.MCS_MAPPED  # an empty table raises in _mcs_rates
        object.__setattr__(self, "mcs_rates", _mcs_rates(self) if mcs else None)


def _user_gram(channels: ChannelSet) -> np.ndarray:
    """Inner products of every pair of users on every subcarrier.

    ``U[i, j, s] = sum_t h_i[t, s] * conj(h_j[t, s])``, shape (M, M, SC),
    the antennas summed in index order, so an entry has the same value
    whichever groups it is gathered for.
    """
    m, sc = channels.num_users, channels.num_subcarriers
    gram = np.zeros((m, m, sc), dtype=np.complex128)
    term = np.empty_like(gram)  # one product buffer for every antenna
    for t in range(channels.num_tx_antennas):
        h = channels.entries[:, t, :]
        gram += np.multiply(h[:, None, :], np.conj(h[None, :, :]), out=term)
    return gram


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _zf_sinr(gram: np.ndarray, groups: list[tuple[int, ...]], cfg: PhyConfig):
    """Zero-forcing SINR of same-size groups on every subcarrier at once.

    Returns ``(sinr, ok)`` with one row per (group, subcarrier), group
    major: ``sinr`` (n*sc, k) holds p tr(G) / (N0 [(G / tr G)^-1]_mm) for
    member m, with G the group's k x k Gram matrix gathered from ``gram``
    (``_user_gram``), and ``ok`` (n*sc,) marks rows whose G has condition
    number at most ``_COND_LIMIT``, the only rows whose SINR means anything.

    ``_ldl_inv_diag`` factors every A = G / tr G.  For positive-definite
    G, cond(G) <= tr(G)^k / det G = 1 / det A (lambda_max <= tr G and
    lambda_min >= det G / tr(G)^(k-1)), so a row with det A >= 1 /
    ``_CERT_LIMIT`` has cond at most 1e10, 100x below the limit, which
    rounding cannot bridge: it is ok without an SVD.  The rest get the
    exact rule, one SVD each, so ``ok`` is that rule's mask.  The rows it
    clears keep the values of the one elimination, whose pivots are at
    least lambda_min(A) >= 1 / (k ``_COND_LIMIT``) > 0 there.  Other rows
    (zero trace, a pivot not positive or subnormal) may hold inf or NaN on
    the way, with warnings off; they get [A^-1]_mm = 1 and rate 0 anyway.
    """
    n, k = len(groups), len(groups[0])
    # member-major and C-ordered, so the gathered g is C-contiguous
    idx = np.fromiter(chain.from_iterable(zip(*groups)), np.intp, n * k).reshape(k, n)
    g = gram[idx[:, None, :], idx[None, :, :]].reshape(k, k, -1)  # (k, k, n*sc)
    # summed member by member: beside the (re, im) axis the member axis stays outer
    tr = np.add.reduce(g.view(np.float64).reshape(k * k, -1)[::k + 1], axis=0)[::2]
    inv_diag, ok = _ldl_inv_diag(g, tr)
    if not ok.all():
        rest = np.flatnonzero(~ok)
        ok[rest] = np.linalg.cond(np.moveaxis(g[:, :, rest], 2, 0)) <= _COND_LIMIT
        inv_diag[~ok] = 1.0
    p = cfg.total_power / k
    return (p * tr[:, None]) / (cfg.noise_power * inv_diag), ok


def _ldl_inv_diag(g: np.ndarray, scale: np.ndarray):
    """Diagonal of A^-1 for A = g / scale, g (k, k, rows) Hermitian.

    Gaussian elimination without pivoting on [A | I] leaves D L^H on the
    left and L^-1 on the right (Golub and Van Loan, 4.1), so [A^-1]_mm =
    sum_{j >= m} |(L^-1)_jm|^2 / D_j.  Returns ``inv_diag`` (rows, k) and
    ``cert`` (rows,), true where the pivots are all positive and multiply
    to det A >= 1 / ``_CERT_LIMIT``.  Parts are divided as reals (a
    complex divide takes 1/scale first, which overflows for a subnormal
    trace); each numpy call applies one real operation to all rows alike,
    and each sum over members runs over an outer axis, so in index order.
    """
    k, rows = g.shape[0], g.shape[2]
    a = np.zeros((2, k, 2 * k, rows))  # real and imaginary parts of [A | I]
    np.divide(g.real, scale, out=a[0, :, :k])
    np.divide(g.imag, scale, out=a[1, :, :k])
    a[0].reshape(2 * k * k, rows)[k::2 * k + 1] = 1.0  # the diagonal of I
    work = np.empty(max(4 * (k - 1), 2 * k) * k * rows)
    for j in range(k - 1):
        # rows i > j: row i -= (a_ij / d) row j, on the k columns where row
        # j is not yet zero; p[x, y] = l_x r_y over re/im parts x and y.
        # Only this step reads column j below the pivot: l is divided in place.
        n, cols = k - j - 1, slice(j + 1, k + j + 1)
        l, r = a[:, j + 1:, j], a[:, j, cols]
        l /= a[0, j, j]
        p = np.multiply(l[:, None, :, None], r[None, :, None],
                        out=work[:4 * n * k * rows].reshape(2, 2, n, k, rows))
        np.subtract(p[0, 0], p[1, 1], out=p[0, 0])
        np.add(p[0, 1], p[1, 0], out=p[0, 1])
        a[:, j + 1:, cols] -= p[0]
    # the pivots stay on the diagonal: later steps change later rows only
    pivots = a[0].reshape(2 * k * k, rows)[::2 * k + 1]
    cert = np.maximum(pivots, 0.0).prod(axis=0) >= 1 / _CERT_LIMIT
    # t[j, m] = |(L^-1)_jm|^2 / D_j, exactly 0 for j < m
    sq = np.square(a[:, :, k:], out=work[:2 * k * k * rows].reshape(2, k, k, rows))
    t = np.add(sq[0], sq[1], out=sq[0])
    t /= pivots[:, None]
    return np.ascontiguousarray(np.add.reduce(t, axis=0).T), cert


def _mcs_rates(cfg: PhyConfig):
    """Elementwise MCS rate of SINR arrays; the table's arrays are built once.

    An SINR gets the ``phy_rate`` of the last table entry before the first
    one whose ``min_snr_db`` it does not meet (thresholds are inclusive,
    in dB), and 0 when it misses the first, so a table that is not
    ascending stops at its first unmet threshold.  The entries met are
    those whose running maximum threshold is met, counted by a binary
    search.  An SINR of +inf or NaN gets the top entry; neither occurs for
    channels within ``MAX_CHANNEL_MAGNITUDE``.
    """
    if not cfg.mcs_table:
        raise ConfigurationError("MCS table must not be empty")
    thresholds = np.maximum.accumulate([e.min_snr_db for e in cfg.mcs_table])
    values = np.array([0.0] + [phy_rate(e, cfg) for e in cfg.mcs_table])
    return partial(_mcs_lookup, thresholds, values)  # unlike a closure, a partial pickles


@np.errstate(divide="ignore")
def _mcs_lookup(thresholds: np.ndarray, values: np.ndarray, sinr: np.ndarray) -> np.ndarray:
    return values[np.searchsorted(thresholds, 10.0 * np.log10(sinr), side="right")]


def _batch_rates(gram: np.ndarray, groups: list[tuple[int, ...]], cfg: PhyConfig) -> np.ndarray:
    """Rates of same-size groups, averaged over subcarriers; 0 for a group
    that is rank deficient on any subcarrier.  ``_zf_sinr`` takes them in
    chunks of at most ``_MAX_BATCH_ROWS`` rows (whole groups, at least one
    per chunk)."""
    sc, mcs = gram.shape[2], cfg.mcs_rates
    step = max(1, _MAX_BATCH_ROWS // sc)
    rates = np.empty(len(groups))
    for i in range(0, len(groups), step):
        chunk = groups[i:i + step]
        sinr, ok = _zf_sinr(gram, chunk, cfg)
        if mcs is None:
            per_sc = cfg.bandwidth_hz * np.log2(1.0 + sinr).sum(axis=1)
        else:
            # summed user by user in order, like a scalar loop over the users
            per_sc = reduce(np.add, mcs(sinr).T)
        # the sum and divide of mean(axis=1), without its Python wrapper
        chunk_rates = np.divide(per_sc.reshape(-1, sc).sum(axis=1), sc, out=rates[i:i + step])
        if not ok.all():
            chunk_rates[~ok.reshape(-1, sc).all(axis=1)] = 0.0
    return rates


class RateOracle:
    """Memoized map from user groups to their estimated rate.

    Rank-deficient groups get rate 0 instead of an error so that search
    algorithms stay total over all subsets.  ``rates(groups)`` answers a
    list in one bulk query and computes its misses through ``precompute``,
    which batches them per group size in chunks of at most
    ``_MAX_BATCH_ROWS`` (group, subcarrier) rows; ``rate(g)`` is a query
    of one.  Each query adds one to ``query_count`` and each computed
    group one to ``compute_count``.  A group is checked by ``_check``
    unless it is a tuple already in the memo, whose keys were checked
    when they were stored, or its caller passes it as checked.

    The first computation builds the oracle's user Gram (``_user_gram``,
    SC*M^2*16 bytes), from which ``_zf_sinr`` gathers every group's Gram
    matrix for its LDL^H elimination.  It belongs to this oracle alone
    and lives as long as it does, so a solve on a fresh oracle starts
    cold.  Thread safe: concurrent identical queries return identical
    values.
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
        self._gram: np.ndarray | None = None
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

    def _members(self, groups) -> list[tuple[int, ...]]:
        """Each group checked, except a tuple already in the memo."""
        memo, check = self._memo, self._check
        return [g if type(g) is tuple and g in memo else check(g) for g in groups]

    def rate(self, group) -> float:
        return self.rates([group])[0]

    def rates(self, groups, *, checked: bool = False) -> list[float]:
        """``[rate(g) for g in groups]`` as one bulk query, in one pass when
        every group equals a memo key.  Otherwise every group is checked,
        unless ``checked`` vouches for them as in ``precompute``, before
        anything is computed or counted (a bad group leaves the memo and
        both counters as they were) and goes to ``precompute`` unchecked,
        which computes the misses."""
        memo = self._memo  # entries are never removed or changed
        try:
            values = [memo[g] for g in groups]
        except (KeyError, TypeError):  # a miss, or an unhashable group
            pass
        else:
            with self._lock:
                self.query_count += len(values)
            return values
        members = groups if checked else self._members(groups)
        with self._lock:
            self.query_count += len(members)
        self.precompute(members, checked=True)
        return [memo[m] for m in members]

    def precompute(self, groups, *, checked: bool = False) -> None:
        """Batch-fill the memo: vectorized computations per group size,
        each of at most ``_MAX_BATCH_ROWS`` (group, subcarrier) rows.

        Every group is checked first, unless ``checked`` says the groups
        are canonical, in range and within the cap already: the groups
        ``rates`` passes on, and those built from the oracle's users and cap
        that ``grouping._rates_by_mask``, ``gma._pairing``, ``gma._merge_pass``
        and ``baselines.zfs_grouping`` pass to ``rates`` as checked and
        ``baselines.sus_grouping`` passes here.
        """
        members = groups if checked else self._members(groups)
        memo = self._memo
        with self._lock:
            todo: dict[int, dict[tuple[int, ...], None]] = {}
            for m in members:
                if m not in memo:
                    todo.setdefault(len(m), {})[m] = None
            if todo and self._gram is None:
                self._gram = _user_gram(self.channels)
            for size_groups in todo.values():
                unique = sorted(size_groups)
                rates = _batch_rates(self._gram, unique, self.cfg)
                self.compute_count += len(unique)
                memo.update(zip(unique, rates.tolist()))


def make_rate_oracle(channels: ChannelSet, cfg: PhyConfig, max_group_size: int) -> RateOracle:
    """Lazily memoized rate oracle over groups of size <= max_group_size."""
    return RateOracle(channels, cfg, max_group_size)


def phy_rate(entry: McsEntry, cfg: PhyConfig) -> float:
    """PHY data rate in bits/s for the 40 MHz numerology (108 data tones,
    3.6 us symbol), times the MAC efficiency factor when enabled."""
    rate = DATA_SUBCARRIERS * entry.bits_per_subcarrier / SYMBOL_SECONDS
    if cfg.mac_overhead_enabled:
        rate *= MAC_OVERHEAD_FACTOR
    return rate
