"""Air-time-fair scheduling, experiment sweeps, and result reporting.

Under air-time fairness a group of size n holds the channel for n
single-user slots, so system throughput is objective / M: total bits per
cycle divided by the M equal slots that make up the cycle.

``run_experiment`` reproduces the comparison sweeps (throughput versus
network size, versus channel correlation, and runtime scaling) over
seeded channel realizations and emits deterministic CSV rows.  All three
run through one loop and differ in the oracle policy only: a user or rho
sweep scores the algorithms of a seed on one shared memoized oracle, full
search first; a runtime sweep gives each solve a fresh oracle and times
random selection first as its 0 dB reference.
A config is checked whole when built, before any solve: its channel file
is read then, once, and full search is refused (a runtime sweep skips it)
wherever ``grouping.search_refusal`` refuses (M, Nu).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from pathlib import Path

import numpy as np

from .baselines import SusParams, random_grouping, sus_grouping, zfs_grouping
from .channel import ChannelSet, CorrelatedRicianSpec, generate_rician, load_channels
from .errors import ConfigurationError
from .gma import gma, optimal_mu2_su
from .grouping import GroupingSolution, exhaustive_search, search_refusal
# Unused here; kept because the benchmark trace wraps ``bench.objective`` by name.
from .grouping import objective  # noqa: F401
from .phy import McsEntry, PhyConfig, make_rate_oracle

__all__ = [
    "Scenario",
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = ("scenario,M,Nu,rho,algorithm,seed_count,"
              "mean_mbps,p10_mbps,p90_mbps,ratio_to_opt,runtime_ms")

ALGORITHMS = ("full_search", "blossom", "gma", "zfs", "sus", "random")


class Scenario(Enum):
    USER_SWEEP = "user_sweep"
    RHO_SWEEP = "rho_sweep"
    RUNTIME_SWEEP = "runtime_sweep"


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: scenario grid, channel model, PHY, algorithms, seeds.
    An invalid one raises ConfigurationError on construction.  ``scenario``
    takes a ``Scenario`` or its value.  ``file_channels``, not a field, is
    the set read from ``channel_file`` (else None) that every seed draws from.
    """

    scenario: Scenario
    m_values: tuple[int, ...]
    nu_values: tuple[int, ...]
    rho_values: tuple[float, ...] = (0.0,)
    correlated_users: int = 0
    num_tx_antennas: int = 4
    num_subcarriers: int = CorrelatedRicianSpec.num_subcarriers
    k_factor_db: float = CorrelatedRicianSpec.k_factor_db
    channel_file: str | None = None
    phy: PhyConfig = field(default_factory=PhyConfig)
    algorithms: tuple[str, ...] = ("full_search", "gma", "zfs", "sus", "random")
    seeds: tuple[int, ...] = tuple(range(50))
    output: str | None = None
    sus_params: SusParams = field(default_factory=SusParams)

    def __post_init__(self):
        try:
            object.__setattr__(self, "scenario", Scenario(self.scenario))
        except ValueError:
            raise ConfigurationError(
                f"scenario must be one of {[s.value for s in Scenario]}") from None
        if not self.seeds:
            raise ConfigurationError("seed list must not be empty")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seed {min(self.seeds)} must not be negative")
        if not self.m_values or not self.nu_values or not self.rho_values:
            raise ConfigurationError(
                "m_values, nu_values and rho_values must not be empty")
        for k, name in enumerate(self.algorithms):
            if name not in ALGORITHMS:
                raise ConfigurationError(
                    f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
            if name in self.algorithms[:k]:
                raise ConfigurationError(f"repeated algorithm {name!r}")
        if min(self.m_values) < 1:
            raise ConfigurationError(f"M={min(self.m_values)} must be at least 1")
        if len(self.rho_values) > 1 and self.scenario is not Scenario.RHO_SWEEP:
            raise ConfigurationError(f"rho_values {list(self.rho_values)} need a rho_sweep")
        antennas, loaded = self.num_tx_antennas, None
        if self.channel_file is not None:
            if not Path(self.channel_file).is_file():
                raise ConfigurationError(f"channel file not found: {self.channel_file}")
            loaded = load_channels(self.channel_file)  # once: the run draws from this set
            antennas = loaded.num_tx_antennas
            if max(self.m_values) > loaded.num_users:
                raise ConfigurationError(
                    f"channel file holds {loaded.num_users} users, need {max(self.m_values)}")
            if self.scenario is Scenario.RHO_SWEEP or self.correlated_users:
                raise ConfigurationError(
                    "a rho_sweep or correlated_users needs drawn channels, not a channel_file")
        else:  # the spec checks the channel model, one rho at a time
            for rho in self.rho_values:
                try:
                    _rician_spec(self, max(self.m_values), rho, 0)
                except ValueError as exc:
                    raise ConfigurationError(f"invalid channel model: {exc}") from None
        pairing = " and ".join(a for a in ("blossom", "gma") if a in self.algorithms)
        for nu in self.nu_values:
            if nu < 1 or nu < 2 and pairing:
                raise ConfigurationError(
                    f"Nu={nu} must be at least {f'2 for {pairing}' if pairing else 1}")
            if nu > antennas:
                raise ConfigurationError(f"Nu={nu} exceeds {antennas} transmit antennas")
        if "full_search" in self.algorithms and self.scenario is not Scenario.RUNTIME_SWEEP:
            for m, nu in product(self.m_values, self.nu_values):
                if refusal := search_refusal(m, nu):
                    raise ConfigurationError(refusal)
        object.__setattr__(self, "file_channels", loaded)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        """Build a config from the JSON object in the file at ``path``.

        Required keys: ``scenario`` ("user_sweep", "rho_sweep" or
        "runtime_sweep"), ``m_values`` and ``nu_values`` (lists of ints).
        Optional keys, with the field each sets:

        * ``rho_values`` (list of floats), ``correlated_users`` (int);
        * ``channel``: ``num_tx_antennas``, ``num_subcarriers``,
          ``k_factor_db``;
        * ``channel_file``: path of a channel file to draw users from;
        * ``phy``: ``bandwidth_hz``, ``noise_power``, ``total_power``,
          ``rate_mode`` ("shannon" or "mcs"), ``mac_overhead`` (bool; the
          MAC factor scales MCS rates only, Shannon rates never read it),
          ``mcs_table`` (list of ``[index, bits_per_subcarrier,
          min_snr_db]``); MCS rates use the 40 MHz numerology (108 data
          tones, 3.6 us symbols) whatever ``bandwidth_hz`` says;
        * ``algorithms`` (list of names from ``ALGORITHMS``);
        * ``seeds``: ``{"count": n, "base": b}`` or a list of ints;
        * ``output`` (CSV path);
        * ``sus``: ``sweep`` (list of floats, one alpha per SUS run).

        An absent optional key takes its field's default.  Unknown keys are
        ignored, but ``sus.alpha`` is refused, and so is ``channel`` beside
        ``channel_file``, which fixes the channel.  Raises
        ConfigurationError on a missing or invalid value.
        """
        return _config_from_dict(json.loads(Path(path).read_text()))


_JSON_TYPES = {list: "array", bool: "boolean", int: "integer", float: "finite number",
               str: "string"}


def _json(value, kind: type, name: str):
    """``value`` when its JSON type is ``kind`` (list, bool, int, float or
    str; true and false are not numbers), else a ConfigurationError naming it.
    A float field takes any finite JSON number and returns it as a float."""
    if kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    raise ConfigurationError(
        f"{name} must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(value)}")


def _json_list(value, kind: type, name: str) -> tuple:
    """``value``, a JSON array of ``kind`` values, as a tuple; errors name ``name``."""
    return tuple(_json(v, kind, name) for v in _json(value, list, name))


def _config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    channel, phy_raw, sus_raw = (raw.get(key, {}) for key in ("channel", "phy", "sus"))
    if not all(isinstance(section, dict) for section in (channel, phy_raw, sus_raw)):
        raise ConfigurationError("channel, phy and sus must be JSON objects")
    if "alpha" in sus_raw:
        raise ConfigurationError('sus takes no "alpha"; give one threshold as "sweep": [alpha]')
    if "channel" in raw and "channel_file" in raw:
        raise ConfigurationError("a channel section needs drawn channels, not a channel_file")
    if not all(isinstance(raw.get(key), (str, type(None)))
               for key in ("channel_file", "output")):
        raise ConfigurationError("channel_file and output must be strings")
    try:
        fields = dict(scenario=raw.get("scenario"),
                      m_values=_json_list(raw["m_values"], int, "m_values"),
                      nu_values=_json_list(raw["nu_values"], int, "nu_values"))
        phy_kwargs = {key: _json(phy_raw[key], float, key)
                      for key in ("bandwidth_hz", "noise_power", "total_power")
                      if key in phy_raw}
        if "rate_mode" in phy_raw:
            phy_kwargs["rate_mode"] = phy_raw["rate_mode"]
        if "mac_overhead" in phy_raw:
            phy_kwargs["mac_overhead_enabled"] = _json(phy_raw["mac_overhead"], bool,
                                                       "mac_overhead")
        if "mcs_table" in phy_raw:
            phy_kwargs["mcs_table"] = tuple(
                McsEntry(_json(i, int, "MCS index"), _json(b, float, "MCS bits"),
                         _json(s, float, "MCS threshold"))
                for i, b, s in _json(phy_raw["mcs_table"], list, "mcs_table"))
        seeds = raw.get("seeds")
        if isinstance(seeds, dict):
            base = _json(seeds.get("base", 0), int, "seeds base")
            fields["seeds"] = tuple(range(base, base + _json(seeds["count"], int, "seeds count")))
        for key, kind in (("seeds", int), ("rho_values", float), ("algorithms", str)):
            if key in raw and key not in fields:  # not seeds read from an object
                fields[key] = _json_list(raw[key], kind, key)
        scalars = {"correlated_users": (raw, int), "num_tx_antennas": (channel, int),
                   "num_subcarriers": (channel, int), "k_factor_db": (channel, float)}
        for key, (section, kind) in scalars.items():
            if key in section:
                fields[key] = _json(section[key], kind, key)
        fields.update((key, raw[key]) for key in ("channel_file", "output") if key in raw)
        if "sweep" in sus_raw:
            fields["sus_params"] = SusParams(_json_list(sus_raw["sweep"], float, "sus sweep"))
        fields["phy"] = PhyConfig(**phy_kwargs)
    except KeyError as exc:
        raise ConfigurationError(f"missing config field {exc}") from None
    except (TypeError, ValueError) as exc:
        # a value out of range, an unknown rate mode or a malformed MCS entry
        raise ConfigurationError(f"invalid config value: {exc}") from None
    return ExperimentConfig(**fields)


@dataclass(frozen=True)
class ResultRow:
    """Aggregated result for one (scenario point, algorithm)."""

    scenario: str
    m: int
    nu: int
    rho: float
    algorithm: str
    seed_count: int
    mean_mbps: float
    p10_mbps: float
    p90_mbps: float
    ratio_to_opt: float  # NaN when full search was not run
    runtime_ms: float
    runtime_db_vs_random: float = math.nan
    skipped: bool = False


def _channels_for(cfg: ExperimentConfig, m: int, rho: float, seed: int) -> ChannelSet:
    if (file := cfg.file_channels) is None:
        return generate_rician(_rician_spec(cfg, m, rho, seed))
    pick = np.sort(np.random.default_rng(seed).choice(file.num_users, size=m, replace=False))
    return ChannelSet(file.entries[pick])


def _rician_spec(cfg: ExperimentConfig, m: int, rho: float, seed: int) -> CorrelatedRicianSpec:
    """Spec of the channels drawn for ``m`` users; ValueError if it cannot be drawn."""
    return CorrelatedRicianSpec(
        num_users=m,
        num_tx_antennas=cfg.num_tx_antennas,
        num_subcarriers=cfg.num_subcarriers,
        k_factor_db=cfg.k_factor_db,
        rho=rho,
        correlated_user_count=min(cfg.correlated_users, m),
        seed=seed,
    )


def _run_algorithm(name: str, oracle, seed: int, cfg: ExperimentConfig) -> GroupingSolution:
    if name == "sus":
        return sus_grouping(oracle, cfg.sus_params)
    if name == "random":
        return random_grouping(oracle, seed)
    # read at each call: the benchmark wraps these bindings of this module
    return {"full_search": exhaustive_search, "blossom": optimal_mu2_su, "gma": gma,
            "zfs": zfs_grouping}[name](oracle)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Score every configured algorithm over the scenario grid.

    Oracle policy: in a user or rho sweep all algorithms of a seed share
    one memoized oracle, full search first, so identical groups are
    scored identically and ``runtime_ms`` after full search counts warm
    lookups.  In a runtime sweep every solve gets a fresh oracle, so each
    pays for exactly the rate queries it makes, and random selection is
    timed first as the 0 dB reference of ``runtime_db_vs_random``.
    Throughput is ``objective_value`` / M, as the solver scored it.
    ratio-to-optimal is the mean over seeds of the per-seed ratio against
    full search.  p10 and p90 are numpy's linear-method percentiles of the
    per-seed throughputs, computed by ``_percentile`` without
    ``np.percentile``, whose first call imports ``numpy.ma`` (about 1 MB of
    peak memory and 10 ms per process).  Full search gets a row of empty
    cells, marked ``skipped``, wherever ``search_refusal`` refuses the
    network size; the config admits that case for a runtime sweep only.
    """
    fresh = cfg.scenario is Scenario.RUNTIME_SWEEP
    first = "random" if fresh else "full_search"
    ordered = sorted(cfg.algorithms, key=lambda a: a != first)
    if fresh and first not in ordered:
        ordered.insert(0, first)
    rows = []
    for m, nu, rho in product(cfg.m_values, cfg.nu_values, cfg.rho_values):
        solved = [a for a in ordered if a != "full_search" or not search_refusal(m, nu)]
        tput = {name: [] for name in solved}
        runtime = {name: [] for name in solved}
        for seed in cfg.seeds:
            channels = _channels_for(cfg, m, rho, seed)
            shared = None if fresh else make_rate_oracle(channels, cfg.phy, nu)
            for name in solved:
                oracle = make_rate_oracle(channels, cfg.phy, nu) if fresh else shared
                start = time.perf_counter()
                solution = _run_algorithm(name, oracle, seed, cfg)
                runtime[name].append((time.perf_counter() - start) * 1e3)
                tput[name].append(solution.objective_value / m / 1e6)
        opt = np.asarray(tput.get("full_search", math.nan))  # NaN: full search not run
        base = float(np.mean(runtime["random"])) if fresh else math.nan
        for name in cfg.algorithms:
            # a skipped full search aggregates one NaN, so its cells stay empty
            vals = np.asarray(tput.get(name, [math.nan]))
            mean_ms = float(np.mean(runtime.get(name, math.nan)))
            rows.append(ResultRow(
                scenario=cfg.scenario.value, m=m, nu=nu, rho=rho, algorithm=name,
                seed_count=len(cfg.seeds),
                mean_mbps=float(vals.mean()),
                p10_mbps=_percentile(vals, 10),
                p90_mbps=_percentile(vals, 90),
                ratio_to_opt=float((vals / opt).mean()),
                runtime_ms=mean_ms,
                runtime_db_vs_random=10.0 * math.log10(mean_ms / base),
                skipped=name not in tput,
            ))
    return rows


def _percentile(values, q: float) -> float:
    """``np.percentile(values, q)`` with its default linear method, bit for
    bit: the sorted values at the virtual index (n - 1) * (q / 100), joined
    by numpy's two-sided lerp; NaN if any value is NaN.  Only where zeros of
    both signs tie may the sign of a zero result differ, since numpy's
    partition leaves their order open; a throughput is never -0.0."""
    xs = sorted(map(float, values))
    if any(map(math.isnan, xs)):
        return math.nan
    pos = (len(xs) - 1) * (q / 100)
    # at or past the last index numpy takes the last value at both ends,
    # with the weight measured from index -1
    lo = math.floor(pos) if pos < len(xs) - 1 else -1
    a, b = xs[lo], xs[lo + 1 if lo >= 0 else -1]
    g, d = pos - lo, b - a
    return a + d * g if g < 0.5 else b - d * (1 - g)


def _fmt(value: float, spec: str) -> str:
    return "" if math.isnan(value) else format(value, spec)


def write_csv(rows: list[ResultRow], dest) -> None:
    """Emit rows under the fixed header; NaN cells are left empty."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="ascii") as fh:
            write_csv(rows, fh)
        return
    dest.write(CSV_HEADER + "\n")
    for r in rows:
        dest.write(",".join([
            r.scenario, str(r.m), str(r.nu), _fmt(r.rho, ".3g"), r.algorithm,
            str(r.seed_count), _fmt(r.mean_mbps, ".6f"), _fmt(r.p10_mbps, ".6f"),
            _fmt(r.p90_mbps, ".6f"), _fmt(r.ratio_to_opt, ".6f"),
            _fmt(r.runtime_ms, ".3f"),
        ]) + "\n")
