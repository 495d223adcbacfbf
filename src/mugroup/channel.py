"""Downlink channel generation and interchange.

Channels are complex gains indexed ``[user][tx_antenna][subcarrier]``,
and a ``ChannelSet`` reads its three sizes from that array's shape.
Synthetic channels follow a Rician model with a uniform-linear-array
line-of-sight steering vector and an optional shared scattered component
that correlates a chosen subset of users, with unit average power per
entry; the link budget lives in the PHY configuration, not here.
``correlation_matrix`` gives the normalized channel correlation of every
pair of users as one array; ``pairwise_correlation`` reads one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChannelFormatError

__all__ = [
    "MAX_CHANNEL_MAGNITUDE",
    "ChannelSet",
    "CorrelatedRicianSpec",
    "generate_rician",
    "rician_components",
    "correlation_matrix",
    "pairwise_correlation",
    "load_channels",
    "write_channels",
]

# largest real or imaginary part of a channel entry; a rate sums products
# of two entries over the antennas, which stays far from overflow below it
MAX_CHANNEL_MAGNITUDE = 1e100


@dataclass(frozen=True)
class ChannelSet:
    """Dense set of downlink channel vectors for every station.

    ``entries``, of shape (M, Nt, SC) with all three positive, is frozen
    after construction so instances can be shared freely; its shape gives
    ``num_users``, ``num_tx_antennas`` and ``num_subcarriers``, not fields.
    Entries must be finite, with real and imaginary parts of magnitude at
    most ``MAX_CHANNEL_MAGNITUDE``.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, order="C")  # a copy
        if arr.ndim != 3 or 0 in arr.shape:
            raise ValueError(
                f"channel entries must be a 3-D array with positive sides, got shape {arr.shape}")
        if not np.abs(arr.view(np.float64)).max() <= MAX_CHANNEL_MAGNITUDE:
            raise ValueError(
                f"channel entries must be finite, with real and imaginary parts "
                f"of magnitude at most {MAX_CHANNEL_MAGNITUDE:g}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        for name, size in zip(("num_users", "num_tx_antennas", "num_subcarriers"), arr.shape):
            object.__setattr__(self, name, size)


@dataclass(frozen=True)
class CorrelatedRicianSpec:
    """Parameters of the synthetic correlated Rician channel.

    The first ``correlated_user_count`` users share a common scattered
    component mixed in with weight ``sqrt(rho)``; everyone else fades
    independently.  ``k_factor_db`` is the LOS-to-scattered power ratio,
    at most 3000 dB; a large negative one leaves pure scattering.
    """

    num_users: int
    num_tx_antennas: int
    num_subcarriers: int = 1
    k_factor_db: float = 8.0
    rho: float = 0.0
    correlated_user_count: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.num_users <= 0 or self.num_tx_antennas <= 0 or self.num_subcarriers <= 0:
            raise ValueError("spec dimensions must be positive")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if not 0 <= self.correlated_user_count <= self.num_users:
            raise ValueError("correlated_user_count must be in [0, num_users]")
        if not -math.inf < self.k_factor_db <= 3000.0:  # K = 1e300 keeps K + 1 finite
            raise ValueError(
                f"k_factor_db must be finite and at most 3000 dB, got {self.k_factor_db}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must not be negative")

    @property
    def k_linear(self) -> float:
        return 10.0 ** (self.k_factor_db / 10.0)


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    # circularly-symmetric complex Gaussian, unit variance per entry
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def rician_components(spec: CorrelatedRicianSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled LOS and scattered parts, each shape (M, Nt, SC).

    The LOS part is a unit-modulus steering vector for a half-wavelength
    ULA at a per-user departure angle drawn uniformly on [-pi/2, pi/2).
    The scattered part has unit variance per entry; users below
    ``correlated_user_count`` mix a shared draw with weight sqrt(rho).
    """
    rng = np.random.default_rng(spec.seed)
    m, nt, sc = spec.num_users, spec.num_tx_antennas, spec.num_subcarriers

    angles = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=m)
    ant = np.arange(nt)
    los = np.exp(1j * np.pi * np.outer(np.sin(angles), ant))  # (M, Nt)
    los = np.repeat(los[:, :, None], sc, axis=2)

    shared = _crandn(rng, (nt, sc))
    private = _crandn(rng, (m, nt, sc))
    nlos = private.copy()
    c = spec.correlated_user_count
    if c > 0:
        nlos[:c] = math.sqrt(spec.rho) * shared + math.sqrt(1.0 - spec.rho) * private[:c]
    return los, nlos


def generate_rician(spec: CorrelatedRicianSpec) -> ChannelSet:
    """Draw one deterministic channel realization for ``spec``.

    Per user: h = sqrt(K/(K+1)) * los + sqrt(1/(K+1)) * scattered, so the
    expected squared norm per subcarrier equals the antenna count.
    """
    los, nlos = rician_components(spec)
    k = spec.k_linear
    h = math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * nlos
    return ChannelSet(h)


def _pair_terms(r: np.ndarray, w: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """One antenna's terms x_i x_j + y_i y_j and x_i y_j + y_i (-x_j) of
    the pairs (i, j), (2, pairs, SC), from r = (x, y) and w = (y, -x),
    each (2, M, SC)."""
    ri = r.take(i, axis=1)
    terms = ri[:1] * r.take(j, axis=1)
    terms += ri[1:] * w.take(j, axis=1)
    return terms


def correlation_matrix(channels: ChannelSet) -> np.ndarray:
    """Normalized inner-product magnitudes of all users' channels, (M, M).

    Entry (i, j) is |<h_i, h_j>| / (||h_i|| ||h_j||) per subcarrier,
    averaged over subcarriers and capped at 1; a zero-norm vector
    contributes 0.  With entries x + iy, antenna a adds x_i x_j + y_i y_j
    to the real part of <h_i, h_j> and x_i y_j + y_i (-x_j) to the
    imaginary part, real products that swapping i and j keeps and negates
    exactly.  So the terms are formed only for the pairs i <= j, one
    antenna at a time in antenna order, and (j, i) takes the value of
    (i, j): the matrix is exactly symmetric, with the bits of the full
    per-antenna sum over every (i, j).  Starting from the first antenna's
    terms, not +0.0, can change only the sign of a zero, which the
    magnitude drops.  Memory is O(M^2) per subcarrier.
    """
    h = channels.entries  # (M, Nt, SC)
    n, nt, sc = h.shape
    r = np.ascontiguousarray(h.view(np.float64).reshape(n, nt, sc, 2).transpose(1, 3, 0, 2))
    w = np.concatenate((r[:, 1:], -r[:, :1]), axis=1)  # r is (Nt, 2, M, SC): x, y; w is y, -x
    u = np.arange(n)
    own = u * n - u * (u - 1) // 2  # pair (u, u) follows the n - v pairs of each row v < u
    i = np.repeat(u, n - u)  # the pairs i <= j in row order
    j = np.arange(i.size) - own.take(i) + i
    total = _pair_terms(r[0], w[0], i, j)
    for a in range(1, nt):
        total += _pair_terms(r[a], w[a], i, j)
    re, im = total
    power = re.take(own, axis=0)  # (M, SC): squared norms
    p_i, p_j = power.take(i, axis=0), power.take(j, axis=0)
    if 2.0 ** -511 <= power.min() and power.max() < 2.0 ** 511:  # every p_i p_j a normal float
        denom = np.sqrt(p_i * p_j)
    else:  # sqrt(p_i) sqrt(p_j) where p_i p_j overflows or underflows
        with np.errstate(over="ignore"):
            prod = p_i * p_j
        normal = (prod >= 2.0 ** -1022) & (prod < math.inf)
        denom = np.where(normal, np.sqrt(prod), np.sqrt(p_i) * np.sqrt(p_j))
    vals = np.divide(np.hypot(re, im), denom, out=np.zeros(denom.shape), where=denom > 0.0)
    out = np.empty((n, n))
    out[i, j] = out[j, i] = np.minimum(vals.mean(axis=1), 1.0)
    return out


def pairwise_correlation(channels: ChannelSet, i: int, j: int) -> float:
    """Normalized inner-product magnitude of two users' channels in [0, 1]:
    entry (i, j) of ``correlation_matrix``, which it builds whole."""
    if i == j:
        raise ValueError("pairwise correlation requires two distinct users")
    for u in (i, j):
        if not 0 <= u < channels.num_users:
            raise ValueError(f"user index {u} out of range [0, {channels.num_users})")
    return float(correlation_matrix(channels)[i, j])


# ---------------------------------------------------------------------------
# Interchange format (text, line oriented):
#   header:  chset v1 M=<int> NT=<int> SC=<int>
#   then one line per (user, antenna, subcarrier), lexicographic order:
#   <user> <ant> <sc> <re> <im>
# ---------------------------------------------------------------------------

_HEADER_PREFIX = "chset v1"


def write_channels(channels: ChannelSet, dest) -> None:
    """Write ``channels`` to a path or text file object.

    Floats are emitted with 17 significant digits so a load round-trips
    bit-exactly.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="ascii") as fh:
            write_channels(channels, fh)
        return
    dest.write("{} M={} NT={} SC={}\n".format(_HEADER_PREFIX, *channels.entries.shape))
    for (u, a, s), z in np.ndenumerate(channels.entries):
        dest.write(f"{u} {a} {s} {z.real:.17g} {z.imag:.17g}\n")


def load_channels(source) -> ChannelSet:
    """Parse a channel set from a path or an open text stream.

    The stream must follow the interchange format exactly; errors name the
    offending line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as fh:
            return load_channels(fh)

    raw = list(map(str.strip, source))
    lines = [line for line in raw if line]
    if not lines:
        raise ChannelFormatError("empty channel stream")

    parts, dims = lines[0].split(), []
    if len(parts) != 5 or parts[0] != "chset" or parts[1] != "v1":
        raise ChannelFormatError(f"bad header line: {lines[0]!r}")
    for token, key in zip(parts[2:], ("M", "NT", "SC")):
        name, _, value = token.partition("=")
        if name != key or not value:
            raise ChannelFormatError(f"bad header field {token!r} (expected {key}=<int>)")
        try:
            dims.append(int(value))
        except ValueError:
            raise ChannelFormatError(f"non-integer header field {token!r}") from None
        if dims[-1] <= 0:
            raise ChannelFormatError(f"header field {token!r} must be positive")
    (m, nt, sc), records = dims, lines[1:]
    if len(records) != (expected := m * nt * sc):
        raise ChannelFormatError(
            f"expected {expected} entry lines for M={m} NT={nt} SC={sc}, got {len(records)}"
        )

    entries = np.empty(expected, dtype=np.complex128)
    indices = np.ndindex(m, nt, sc)
    try:
        for idx, (line, (u, a, s)) in enumerate(zip(records, indices)):
            parts = line.split()
            if len(parts) != 5:
                raise ChannelFormatError(f"expected 5 fields, got {line!r}")
            try:
                lu, la, ls = int(parts[0]), int(parts[1]), int(parts[2])
                re, im = float(parts[3]), float(parts[4])
            except ValueError:
                raise ChannelFormatError(f"unparsable fields in {line!r}") from None
            if (lu, la, ls) != (u, a, s):
                raise ChannelFormatError(
                    f"index ({lu},{la},{ls}) out of order, expected ({u},{a},{s})")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ChannelFormatError(f"non-finite value in {line!r}")
            entries[idx] = complex(re, im)
    except ChannelFormatError as err:  # name the physical line, blank lines counted
        number = [n for n, text in enumerate(raw, 1) if text][idx + 1]
        raise ChannelFormatError(f"line {number}: {err}") from None
    return ChannelSet(entries.reshape(m, nt, sc))
