"""Downlink channel generation and interchange.

Channels are complex gains indexed ``[user][tx_antenna][subcarrier]``.
Synthetic channels follow a Rician model with a uniform-linear-array
line-of-sight steering vector and an optional shared scattered component
that correlates a chosen subset of users.  Entries have unit average
power; the link budget lives in the PHY configuration, not here.
``correlation_matrix`` gives the normalized channel correlation of every
pair of users as one array; ``pairwise_correlation`` reads one pair.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChannelFormatError

__all__ = [
    "ChannelSet",
    "CorrelatedRicianSpec",
    "generate_rician",
    "rician_components",
    "correlation_matrix",
    "pairwise_correlation",
    "load_channels",
    "write_channels",
]


@dataclass(frozen=True)
class ChannelSet:
    """Dense set of downlink channel vectors for every station.

    ``entries`` has shape ``(num_users, num_tx_antennas, num_subcarriers)``
    and is frozen after construction so instances can be shared freely.
    """

    num_users: int
    num_tx_antennas: int
    num_subcarriers: int
    entries: np.ndarray

    def __post_init__(self):
        if self.num_users <= 0 or self.num_tx_antennas <= 0 or self.num_subcarriers <= 0:
            raise ValueError(
                f"channel dimensions must be positive, got "
                f"({self.num_users}, {self.num_tx_antennas}, {self.num_subcarriers})"
            )
        arr = np.asarray(self.entries, dtype=np.complex128)
        shape = (self.num_users, self.num_tx_antennas, self.num_subcarriers)
        if arr.shape != shape:
            raise ValueError(f"entries shape {arr.shape} does not match declared {shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("channel entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def user_channel(self, user: int) -> np.ndarray:
        """Channel matrix of one user, shape (num_tx_antennas, num_subcarriers)."""
        if not 0 <= user < self.num_users:
            raise ValueError(f"user index {user} out of range [0, {self.num_users})")
        return self.entries[user]


@dataclass(frozen=True)
class CorrelatedRicianSpec:
    """Parameters of the synthetic correlated Rician channel.

    The first ``correlated_user_count`` users share a common scattered
    component mixed in with weight ``sqrt(rho)``; everyone else fades
    independently.  ``k_factor_db`` is the LOS-to-scattered power ratio.
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
        if not math.isfinite(self.k_factor_db):
            raise ValueError("k_factor_db must be finite")

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
    return ChannelSet(spec.num_users, spec.num_tx_antennas, spec.num_subcarriers, h)


def correlation_matrix(channels: ChannelSet, users=None) -> np.ndarray:
    """Normalized inner-product magnitudes of the users' channels, (n, n).

    Entry (i, j) is |<h_i, h_j>| / (||h_i|| ||h_j||) per subcarrier,
    averaged over subcarriers and capped at 1; a zero-norm vector
    contributes 0.  ``users`` picks the rows and columns (default: every
    user).  The inner products are summed per antenna in real arithmetic,
    so the matrix is exactly symmetric and an entry does not depend on
    which other users are in ``users``.  Memory is O(n^2) per subcarrier.
    """
    users = list(range(channels.num_users)) if users is None else list(users)
    for u in users:
        if not 0 <= u < channels.num_users:
            raise ValueError(f"user index {u} out of range [0, {channels.num_users})")
    h = channels.entries[users]  # (n, Nt, SC)
    n, sc = len(users), channels.num_subcarriers
    re = np.zeros((n, n, sc))
    im = np.zeros((n, n, sc))
    for a in range(channels.num_tx_antennas):
        x = h[:, a].real
        y = h[:, a].imag
        re += x[:, None] * x[None] + y[:, None] * y[None]
        im += x[:, None] * y[None] - y[:, None] * x[None]
    power = np.diagonal(re).T  # (n, SC): squared norms
    denom = np.sqrt(power[:, None] * power[None])
    vals = np.divide(np.hypot(re, im), denom, out=np.zeros_like(re), where=denom > 0.0)
    return np.minimum(vals.mean(axis=2), 1.0)


def pairwise_correlation(channels: ChannelSet, i: int, j: int) -> float:
    """Normalized inner-product magnitude of two users' channels in [0, 1]:
    the off-diagonal entry of ``correlation_matrix`` for the two users."""
    if i == j:
        raise ValueError("pairwise correlation requires two distinct users")
    return float(correlation_matrix(channels, (i, j))[0, 1])


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
    dest.write(
        f"{_HEADER_PREFIX} M={channels.num_users} "
        f"NT={channels.num_tx_antennas} SC={channels.num_subcarriers}\n"
    )
    for u in range(channels.num_users):
        for a in range(channels.num_tx_antennas):
            for s in range(channels.num_subcarriers):
                z = channels.entries[u, a, s]
                dest.write(f"{u} {a} {s} {z.real:.17g} {z.imag:.17g}\n")


def _parse_header(line: str) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 5 or parts[0] != "chset" or parts[1] != "v1":
        raise ChannelFormatError(f"bad header line: {line!r}")
    dims = {}
    for token, key in zip(parts[2:], ("M", "NT", "SC")):
        name, _, value = token.partition("=")
        if name != key or not value:
            raise ChannelFormatError(f"bad header field {token!r} (expected {key}=<int>)")
        try:
            dims[key] = int(value)
        except ValueError:
            raise ChannelFormatError(f"non-integer header field {token!r}") from None
        if dims[key] <= 0:
            raise ChannelFormatError(f"header field {token!r} must be positive")
    return dims["M"], dims["NT"], dims["SC"]


def load_channels(source) -> ChannelSet:
    """Parse a channel set from a path, text/byte stream, or str/bytes.

    The stream must follow the interchange format exactly; errors name the
    offending line.
    """
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(source, "r", encoding="ascii") as fh:
            return load_channels(fh)
    if isinstance(source, bytes):
        source = source.decode("ascii")
    if isinstance(source, str):
        source = io.StringIO(source)

    lines = []
    for raw in source:
        if isinstance(raw, bytes):
            raw = raw.decode("ascii")
        if raw.strip():
            lines.append(raw.strip())
    if not lines:
        raise ChannelFormatError("empty channel stream")

    m, nt, sc = _parse_header(lines[0])
    expected = m * nt * sc
    records = lines[1:]
    if len(records) != expected:
        raise ChannelFormatError(
            f"expected {expected} entry lines for M={m} NT={nt} SC={sc}, got {len(records)}"
        )

    entries = np.empty((m, nt, sc), dtype=np.complex128)
    idx = 0
    for u in range(m):
        for a in range(nt):
            for s in range(sc):
                line = records[idx]
                parts = line.split()
                if len(parts) != 5:
                    raise ChannelFormatError(f"line {idx + 2}: expected 5 fields, got {line!r}")
                try:
                    lu, la, ls = int(parts[0]), int(parts[1]), int(parts[2])
                    re, im = float(parts[3]), float(parts[4])
                except ValueError:
                    raise ChannelFormatError(f"line {idx + 2}: unparsable fields in {line!r}") from None
                if (lu, la, ls) != (u, a, s):
                    raise ChannelFormatError(
                        f"line {idx + 2}: index ({lu},{la},{ls}) out of order, expected ({u},{a},{s})"
                    )
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise ChannelFormatError(f"line {idx + 2}: non-finite value in {line!r}")
                entries[u, a, s] = complex(re, im)
                idx += 1
    return ChannelSet(m, nt, sc, entries)
