import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mugroup.bench import (
    CSV_HEADER,
    ExperimentConfig,
    Scenario,
    run_experiment,
    write_csv,
)
from mugroup import bench, channel, cli, grouping
from mugroup.baselines import SusParams
from mugroup.channel import CorrelatedRicianSpec, generate_rician, write_channels
from mugroup.errors import ChannelFormatError, ConfigurationError, SearchSpaceError
from mugroup.grouping import exhaustive_search, objective
from mugroup.phy import PhyConfig, RateMode, RateOracle, make_rate_oracle

from conftest import rician_oracle

SOLVER_BINDINGS = {"full_search": "exhaustive_search", "blossom": "optimal_mu2_su",
                   "gma": "gma", "zfs": "zfs_grouping", "sus": "sus_grouping",
                   "random": "random_grouping"}


def small_config(**overrides):
    base = dict(
        scenario=Scenario.USER_SWEEP,
        m_values=(5,),
        nu_values=(2,),
        algorithms=("full_search", "blossom", "gma", "zfs", "sus", "random"),
        seeds=(0, 1, 2),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def from_text(tmp_path, text):
    """``ExperimentConfig.from_json`` of ``text`` written to a file."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return ExperimentConfig.from_json(path)


@pytest.fixture
def solves(monkeypatch):
    """Names of the solver bindings of ``mugroup.bench`` called from now on."""
    calls = []
    for attr in SOLVER_BINDINGS.values():
        def solve(*args, _fn=getattr(bench, attr), _attr=attr):
            calls.append(_attr)
            return _fn(*args)
        monkeypatch.setattr(bench, attr, solve)
    return calls


def channel_file(tmp_path, num_users, num_tx_antennas, seed=5):
    path = tmp_path / "chan.txt"
    write_channels(generate_rician(CorrelatedRicianSpec(
        num_users=num_users, num_tx_antennas=num_tx_antennas, seed=seed)), path)
    return str(path)


WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads"


def pinned_config(name, tmp_path):
    """The benchmark workload ``name`` as pinned; a channel file is drawn
    from its spec with the seed of its first seed, as the benchmark does."""
    raw = json.loads((WORKLOADS / f"{name}.json").read_text())
    if "channel_file" in raw:
        spec = json.loads((WORKLOADS / f"{name}.channels.json").read_text())
        spec["seed"] = raw["seeds"]["base"]
        raw["channel_file"] = str(tmp_path / "channels.txt")
        write_channels(generate_rician(CorrelatedRicianSpec(**spec)), raw["channel_file"])
    return bench._config_from_dict(raw)


def untimed(rows):
    """``rows`` with the timing cells zeroed, so that equal results compare equal."""
    return [replace(r, runtime_ms=0.0, runtime_db_vs_random=0.0) for r in rows]


class TestRunExperiment:
    def test_rows_are_well_formed(self):
        rows = run_experiment(small_config())
        assert len(rows) == 6
        by_alg = {r.algorithm: r for r in rows}
        assert by_alg["full_search"].ratio_to_opt == pytest.approx(1.0)
        for r in rows:
            assert r.seed_count == 3
            assert r.ratio_to_opt <= 1.0 + 1e-9
            assert r.p10_mbps <= r.mean_mbps <= r.p90_mbps + 1e-9

    def test_pairing_solver_matches_full_search_at_cap_two(self):
        rows = run_experiment(small_config(m_values=(4, 6)))
        for m in (4, 6):
            at_m = {r.algorithm: r for r in rows if r.m == m}
            assert at_m["blossom"].mean_mbps == at_m["full_search"].mean_mbps
            assert at_m["blossom"].ratio_to_opt == pytest.approx(1.0)

    @pytest.mark.parametrize("scenario", [Scenario.USER_SWEEP, Scenario.RUNTIME_SWEEP])
    def test_throughput_is_objective_per_user(self, scenario, monkeypatch):
        # each row's mean is the seed mean of objective / M in Mbit/s, the
        # objective recomputed on a fresh oracle from the solve's groups
        solved = {}
        for name, attr in SOLVER_BINDINGS.items():
            def solve(oracle, *args, _fn=getattr(bench, attr), _name=name):
                solution = _fn(oracle, *args)
                fresh = make_rate_oracle(oracle.channels, oracle.cfg, oracle.max_group_size)
                solved.setdefault((oracle.num_users, oracle.max_group_size, _name), []).append(
                    objective(solution.groups, fresh) / oracle.num_users / 1e6)
                return solution
            monkeypatch.setattr(bench, attr, solve)
        rows = run_experiment(small_config(scenario=scenario, m_values=(5, 7),
                                           nu_values=(2, 3)))
        assert len(rows) == 24
        for r in rows:
            tput = solved[(r.m, r.nu, r.algorithm)]
            assert len(tput) == 3
            assert r.mean_mbps == np.mean(tput)

    def test_rho_sweep_grid(self):
        cfg = small_config(scenario=Scenario.RHO_SWEEP,
                           m_values=(6,), nu_values=(3,),
                           rho_values=(0.0, 0.5, 1.0),
                           correlated_users=3,
                           algorithms=("full_search", "random"),
                           seeds=(0, 1))
        rows = run_experiment(cfg)
        assert len(rows) == 6
        assert sorted({r.rho for r in rows}) == [0.0, 0.5, 1.0]

    def test_csv_deterministic_except_runtime(self):
        cfg = small_config(seeds=(3, 4))
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_csv(run_experiment(cfg), buf_a)
        write_csv(run_experiment(cfg), buf_b)

        def strip_runtime(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert strip_runtime(buf_a.getvalue()) == strip_runtime(buf_b.getvalue())
        assert buf_a.getvalue().splitlines()[0] == CSV_HEADER

    def test_channel_file_source(self, tmp_path):
        cfg = small_config(channel_file=channel_file(tmp_path, 8, 4), m_values=(5,),
                           algorithms=("gma", "random"))
        rows = run_experiment(cfg)
        assert {r.algorithm for r in rows} == {"gma", "random"}
        assert all(math.isnan(r.ratio_to_opt) for r in rows)


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestPercentile:
    """``bench._percentile`` is ``np.percentile``'s default linear method, bit
    for bit; np.percentile runs only here."""

    def draws(self, rng, kind, n):
        if kind == "normal":
            return rng.normal(size=n)
        if kind == "ties":  # few distinct values, zeros of one sign
            return rng.choice([0.0, 1.5, -2.0, 3.0, 1e-300], size=n)
        if kind == "magnitudes":
            return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
        if kind == "negative_zeros":
            return np.full(n, -0.0)
        # NaN: alone, or mixed with numbers
        return np.where((rng.random(n) < 0.3) | (n == 1), math.nan, rng.normal(size=n))

    @pytest.mark.parametrize("kind", ["normal", "ties", "magnitudes", "negative_zeros", "nan"])
    def test_matches_numpy(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(3000):
            values = self.draws(rng, kind, int(rng.integers(1, 13)))
            for q in (10, 90):
                assert same_bits(bench._percentile(values, q), np.percentile(values, q)), (
                    values, q)

    @pytest.mark.parametrize("workload", ["exact_m10", "wideband_m40"])
    def test_rows_hold_numpy_percentiles_of_seed_throughputs(self, workload, tmp_path,
                                                             monkeypatch):
        solved = {}
        for name, attr in SOLVER_BINDINGS.items():
            def solve(oracle, *args, _fn=getattr(bench, attr), _name=name):
                solution = _fn(oracle, *args)
                solved.setdefault((oracle.num_users, _name), []).append(
                    solution.objective_value / oracle.num_users / 1e6)
                return solution
            monkeypatch.setattr(bench, attr, solve)
        cfg = pinned_config(workload, tmp_path)
        rows = run_experiment(cfg)
        assert len(rows) == len(cfg.algorithms)
        for r in rows:
            tput = solved[(r.m, r.algorithm)]
            assert len(tput) == r.seed_count > 1
            assert same_bits(r.p10_mbps, np.percentile(tput, 10))
            assert same_bits(r.p90_mbps, np.percentile(tput, 90))


class TestConfigValidation:
    def test_empty_seeds(self):
        with pytest.raises(ConfigurationError):
            small_config(seeds=())

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            small_config(algorithms=("gma", "simulated_annealing"))

    def test_nu_above_antennas(self):
        with pytest.raises(ConfigurationError):
            small_config(nu_values=(5,))

    def test_empty_rho_values(self):
        with pytest.raises(ConfigurationError):
            small_config(rho_values=())

    def test_missing_channel_file(self):
        with pytest.raises(ConfigurationError):
            small_config(channel_file="/nonexistent/chan.txt")

    def test_cap_blocks_full_search_upfront(self):
        with pytest.raises(ConfigurationError):
            small_config(m_values=(17,), nu_values=(3,), num_tx_antennas=4)
        small_config(m_values=(16,), nu_values=(4,), num_tx_antennas=4)
        small_config(m_values=(17,), nu_values=(1,), num_tx_antennas=4,
                     algorithms=("full_search", "zfs", "sus", "random"))

    @pytest.mark.parametrize("algorithms", [("blossom",), ("gma", "random")])
    def test_pairing_solvers_need_nu_two(self, algorithms):
        with pytest.raises(ConfigurationError, match="Nu=1"):
            small_config(nu_values=(1,), algorithms=algorithms)
        small_config(nu_values=(2,), algorithms=algorithms)

    @pytest.mark.parametrize("field, value, named", [
        ("m_values", (0,), "M=0"), ("m_values", (5, -1), "M=-1"), ("nu_values", (0,), "Nu=0"),
    ])
    def test_sizes_below_one(self, field, value, named):
        with pytest.raises(ConfigurationError, match=named):
            small_config(**{field: value}, algorithms=("full_search", "zfs", "random"))

    @pytest.mark.parametrize("scenario", [Scenario.USER_SWEEP, Scenario.RUNTIME_SWEEP])
    def test_several_rho_values_need_rho_sweep(self, scenario):
        with pytest.raises(ConfigurationError, match=r"rho_values \[0.0, 0.9\]"):
            small_config(scenario=scenario, rho_values=(0.0, 0.9))
        small_config(scenario=scenario, rho_values=(0.9,))
        small_config(scenario=Scenario.RHO_SWEEP, rho_values=(0.0, 0.9))

    @pytest.mark.parametrize("patch, named", [
        ({"m_values": "78"}, "m_values"),
        ({"m_values": [6.0]}, "m_values"),
        ({"nu_values": [True]}, "nu_values"),
        ({"rho_values": "0"}, "rho_values"),
        ({"seeds": "12"}, "seeds"),
        ({"seeds": [0, 1.5]}, "seeds"),
        ({"seeds": {"count": 2.0}}, "seeds count"),
        ({"seeds": {"count": 2, "base": "1"}}, "seeds base"),
        ({"algorithms": "gma"}, "algorithms"),
        ({"correlated_users": 1.5}, "correlated_users"),
        ({"channel": {"num_tx_antennas": 4.7}}, "num_tx_antennas"),
        ({"channel": {"num_subcarriers": "8"}}, "num_subcarriers"),
        ({"phy": {"mac_overhead": "false"}}, "mac_overhead"),
        ({"phy": {"mac_overhead": 1}}, "mac_overhead"),
        ({"phy": {"mcs_table": "abc"}}, "mcs_table"),
        ({"phy": {"mcs_table": [[0.0, 0.5, 2.0]]}}, "MCS index"),
        ({"rho_values": ["0.5"]}, "rho_values"),
        ({"channel": {"k_factor_db": "8"}}, "k_factor_db"),
        ({"phy": {"total_power": "1e2"}}, "total_power"),
        ({"phy": {"bandwidth_hz": True}}, "bandwidth_hz"),
        ({"phy": {"bandwidth_hz": float("nan")}}, "bandwidth_hz"),
        ({"phy": {"noise_power": [1.0]}}, "noise_power"),
        ({"phy": {"total_power": 10 ** 400}}, "total_power"),
        ({"phy": {"mcs_table": [[0, "0.5", 2.0]]}}, "MCS bits"),
        ({"phy": {"mcs_table": [[0, 0.5, False]]}}, "MCS threshold"),
        ({"sus": {"sweep": 0.3}}, "sus sweep"),
        ({"sus": {"sweep": ["0.3"]}}, "sus sweep"),
    ])
    def test_from_json_refuses_wrong_types(self, patch, named, tmp_path):
        raw = {"scenario": "user_sweep", "m_values": [6], "nu_values": [2], **patch}
        with pytest.raises(ConfigurationError, match=f"{named} must be a JSON"):
            from_text(tmp_path, json.dumps(raw))

    def test_from_json_typed_values(self, tmp_path):
        cfg = from_text(tmp_path, json.dumps({
            "scenario": "user_sweep", "m_values": [6], "nu_values": [2],
            "channel": {"num_tx_antennas": 4, "num_subcarriers": 2},
            "phy": {"rate_mode": "mcs", "mac_overhead": False, "mcs_table": [[0, 1, 2]],
                    "bandwidth_hz": 20000000},
            "sus": {"sweep": [0.25]},
            "seeds": {"count": 2, "base": 3}}))
        # a JSON integer is a number, read as a float
        assert type(cfg.phy.bandwidth_hz) is float and cfg.phy.bandwidth_hz == 2e7
        assert type(cfg.phy.mcs_table[0].bits_per_subcarrier) is float
        assert cfg.sus_params.sweep == (0.25,)
        assert cfg.phy.mac_overhead_enabled is False
        assert cfg.phy.mcs_table[0].index == 0
        assert cfg.seeds == (3, 4)
        assert cfg.algorithms == ExperimentConfig.algorithms

    def test_from_json_round_trip(self, tmp_path):
        raw = {
            "scenario": "rho_sweep",
            "m_values": [6],
            "nu_values": [3],
            "rho_values": [0.0, 0.5],
            "correlated_users": 3,
            "channel": {"num_tx_antennas": 4, "k_factor_db": 0.0},
            "phy": {"total_power": 50.0, "rate_mode": "shannon"},
            "algorithms": ["gma", "random"],
            "seeds": [0, 1],
            "output": "out.csv",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.scenario is Scenario.RHO_SWEEP
        assert cfg.rho_values == (0.0, 0.5)
        assert cfg.phy.total_power == 50.0
        assert cfg.output == "out.csv"

    def test_from_json_ignores_unknown_keys(self, tmp_path):
        cfg = from_text(tmp_path, json.dumps(
            {"scenario": "user_sweep", "m_values": [6], "nu_values": [2],
             "retired_option": 100}))
        assert cfg.m_values == (6,)

    def test_from_json_str_or_path(self, tmp_path):
        raw = {"scenario": "user_sweep", "m_values": [6], "nu_values": [2],
               "seeds": list(range(60))}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert ExperimentConfig.from_json(str(path)).seeds == tuple(range(60))
        assert ExperimentConfig.from_json(path).seeds == tuple(range(60))
        # JSON text is not a path
        with pytest.raises(OSError):
            ExperimentConfig.from_json(json.dumps(raw))

    def test_validation_error_is_not_rewrapped(self, tmp_path):
        with pytest.raises(ConfigurationError) as info:
            from_text(tmp_path, json.dumps(
                {"scenario": "user_sweep", "m_values": [6], "nu_values": [5]}))
        assert str(info.value) == "Nu=5 exceeds 4 transmit antennas"

    @pytest.mark.parametrize("seeds", [(-1,), (0, 1, -3)])
    def test_negative_seed(self, seeds):
        with pytest.raises(ConfigurationError, match=f"seed {min(seeds)} must not be negative"):
            small_config(seeds=seeds)


    def test_from_json_sus_sweep_and_no_alpha(self, tmp_path):
        base = {"scenario": "user_sweep", "m_values": [6], "nu_values": [2]}
        cfg = from_text(tmp_path, json.dumps({**base, "sus": {"sweep": [0.3]}}))
        assert cfg.sus_params == SusParams(sweep=(0.3,))
        assert from_text(tmp_path, json.dumps(base)).sus_params == SusParams()
        with pytest.raises(ConfigurationError, match="sweep"):
            from_text(tmp_path, json.dumps({**base, "sus": {"alpha": 0.3}}))

    def test_from_json_defaults_are_the_dataclass_defaults(self, tmp_path):
        base = {"scenario": "user_sweep", "m_values": [6], "nu_values": [2]}
        want = ExperimentConfig(Scenario.USER_SWEEP, (6,), (2,))
        assert from_text(tmp_path, json.dumps(base)) == want
        sections = {"channel": {}, "phy": {}, "sus": {}, "seeds": {"count": 50}}
        assert from_text(tmp_path, json.dumps({**base, **sections})) == want

    def test_channels_drawn_with_the_spec_defaults(self):
        # a config that leaves out the channel fields draws what a spec
        # that leaves them out draws: the defaults are the spec's own
        cfg = ExperimentConfig(Scenario.USER_SWEEP, (6,), (2,))
        for seed in (0, 3):
            got = bench._channels_for(cfg, 6, 0.0, seed)
            want = generate_rician(CorrelatedRicianSpec(num_users=6, num_tx_antennas=4,
                                                        seed=seed))
            assert got.num_subcarriers == want.num_subcarriers
            assert np.array_equal(got.entries, want.entries)

    def test_from_json_bad_scenario(self, tmp_path):
        with pytest.raises(ConfigurationError):
            from_text(tmp_path, json.dumps({"scenario": "bogus"}))


class TestEnumSettings:
    """``scenario`` and ``rate_mode`` take the enum or its value; their
    dataclasses convert or refuse it when built."""

    def test_value_and_enum_build_equal_configs(self):
        by_value = ExperimentConfig("user_sweep", (6,), (2,), phy=PhyConfig(rate_mode="mcs"))
        by_enum = ExperimentConfig(Scenario.USER_SWEEP, (6,), (2,),
                                   phy=PhyConfig(rate_mode=RateMode.MCS_MAPPED))
        assert by_value == by_enum
        assert by_value.scenario is Scenario.USER_SWEEP
        assert by_value.phy.rate_mode is RateMode.MCS_MAPPED

    @pytest.mark.parametrize("mode", list(RateMode))
    def test_value_and_enum_give_bit_identical_rates(self, mode):
        channels = generate_rician(CorrelatedRicianSpec(6, 4, 2, seed=1))
        groups = [(0, 1), (2, 3, 4), (0, 2, 4, 5), (5,)]
        by_value, by_enum = (
            np.array(make_rate_oracle(channels, PhyConfig(rate_mode=m), 4).rates(groups))
            for m in (mode.value, mode))
        assert by_value.view(np.int64).tolist() == by_enum.view(np.int64).tolist()
        # the value "mcs" used to compute Shannon rates, 604.25 Mbit/s here
        assert by_value[0] == {"mcs": 270e6, "shannon": 604252970.9795822}[mode.value]

    def test_unknown_values_refused_before_any_solve(self, solves, tmp_path):
        with pytest.raises(ConfigurationError, match=(
                r"^scenario must be one of \['user_sweep', 'rho_sweep', 'runtime_sweep'\]$")):
            ExperimentConfig("user sweep", (6,), (2,), algorithms=("gma",), seeds=(0, 1, 2))
        with pytest.raises(ValueError, match="^'MCS' is not a valid RateMode$"):
            PhyConfig(rate_mode="MCS")
        base = {"scenario": "user_sweep", "m_values": [6], "nu_values": [2]}
        with pytest.raises(ConfigurationError, match=(
                "^invalid config value: 'MCS' is not a valid RateMode$")):
            from_text(tmp_path, json.dumps({**base, "phy": {"rate_mode": "MCS"}}))
        for scenario in ("bogus", None, ["user_sweep"]):
            with pytest.raises(ConfigurationError, match="^scenario must be one of"):
                from_text(tmp_path, json.dumps({**base, "scenario": scenario}))
        with pytest.raises(ConfigurationError, match="^scenario must be one of"):
            from_text(tmp_path, json.dumps({"m_values": [6], "nu_values": [2]}))
        assert solves == []


class TestRefusedWhenBuilt:
    """A channel model or MCS table that the run could not use is refused
    when the config is built, before the first grid point is solved."""

    @pytest.mark.parametrize("patch, named", [
        ({"scenario": "rho_sweep", "rho_values": [0.0, 1.5]}, r"rho must be in \[0, 1\], got 1.5"),
        ({"correlated_users": -2}, "correlated_user_count"),
        ({"channel": {"num_subcarriers": 0}}, "dimensions must be positive"),
        ({"phy": {"rate_mode": "mcs", "mcs_table": []}}, "MCS table must not be empty"),
        ({"phy": {"mcs_table": [[0, -1, 2.0]]}}, "MCS entry 0 needs finite values"),
        # each of these once wrote an infinite rate or objective, or overflowed
        ({"channel": {"k_factor_db": 4000}},
         "k_factor_db must be finite and at most 3000 dB, got 4000.0"),
        ({"phy": {"bandwidth_hz": 1e307}}, r"bandwidth_hz must be at most 1e\+12"),
        ({"phy": {"rate_mode": "mcs", "mcs_table": [[0, 1e300, 2.0]]}},
         "MCS entry 0 needs finite values and bits >= 0, at most 1000"),
    ], ids=["rho_above_one", "negative_correlated_users", "no_subcarriers", "empty_mcs_table",
            "negative_mcs_bits", "k_factor_overflow", "bandwidth_overflow", "mcs_bits_overflow"])
    def test_from_json(self, tmp_path, solves, patch, named):
        raw = {"scenario": "user_sweep", "m_values": [4, 6], "nu_values": [2],
               "algorithms": ["full_search", "gma", "random"], "seeds": [0, 1], **patch}
        with pytest.raises(ConfigurationError, match=named):
            run_experiment(from_text(tmp_path, json.dumps(raw)))
        assert solves == []

    @pytest.mark.parametrize("overrides, named", [
        (dict(scenario=Scenario.RHO_SWEEP, rho_values=(0.0, 1.5)), "rho must be in"),
        (dict(correlated_users=-2), "correlated_user_count"),
        (dict(num_subcarriers=0), "spec dimensions must be positive"),
        (dict(k_factor_db=math.inf), "k_factor_db must be finite"),
        (dict(k_factor_db=math.nan), "k_factor_db must be finite"),
        (dict(k_factor_db=3000.5), "k_factor_db must be finite and at most 3000 dB, got 3000.5"),
    ], ids=["rho_above_one", "negative_correlated_users", "no_subcarriers", "infinite_k_factor",
            "nan_k_factor", "k_factor_above_limit"])
    def test_python_api(self, solves, overrides, named):
        # JSON holds no infinite number, so an infinite K factor comes only this way
        with pytest.raises(ConfigurationError, match=f"invalid channel model: {named}"):
            run_experiment(small_config(**overrides))
        assert solves == []


class TestChannelFileConfig:
    """A channel file fixes the users and antennas: a config reads it once
    when it is built, is checked against the set it holds before any solve,
    and draws every seed's users from that set."""

    def run(self, tmp_path, **raw):
        raw = {"scenario": "user_sweep", "m_values": [5], "nu_values": [2],
               "algorithms": ["gma", "random"], "seeds": [0, 1], **raw}
        return run_experiment(from_text(tmp_path, json.dumps(raw)))

    def test_nu_checked_against_file_antennas(self, tmp_path, solves):
        # the synthetic default of 4 antennas does not apply
        rows = self.run(tmp_path, channel_file=channel_file(tmp_path, 12, 8),
                        m_values=[12], nu_values=[6], algorithms=["gma", "zfs", "random"])
        assert len(rows) == 3 and all(r.mean_mbps > 0 for r in rows)
        assert len(solves) == 6

    def test_nu_above_file_antennas(self, tmp_path, solves):
        with pytest.raises(ConfigurationError, match="Nu=4 exceeds 2 transmit antennas"):
            self.run(tmp_path, channel_file=channel_file(tmp_path, 8, 2), nu_values=[2, 4])
        assert solves == []

    def test_too_few_users_in_file(self, tmp_path, solves):
        with pytest.raises(ConfigurationError, match="channel file holds 8 users, need 9"):
            self.run(tmp_path, channel_file=channel_file(tmp_path, 8, 4), m_values=[5, 9])
        assert solves == []

    @pytest.mark.parametrize("raw", [
        {"scenario": "rho_sweep", "rho_values": [0.0, 0.9]},
        {"scenario": "rho_sweep"},
        {"correlated_users": 2},
    ], ids=["rho_sweep", "one_rho_sweep", "correlated_users"])
    def test_drawn_channel_options_refused(self, tmp_path, solves, raw):
        with pytest.raises(ConfigurationError, match="needs drawn channels"):
            self.run(tmp_path, channel_file=channel_file(tmp_path, 8, 4), **raw)
        assert solves == []

    @pytest.mark.parametrize("section", [
        {"num_tx_antennas": 2, "num_subcarriers": 4, "k_factor_db": 30.0}, {}])
    def test_channel_section_refused(self, tmp_path, solves, monkeypatch, section):
        # the file fixes antennas, subcarriers and fading: a channel section
        # beside it would be read and then ignored, so the reader refuses it
        # before the file is opened
        path = channel_file(tmp_path, 12, 8)
        monkeypatch.setattr(bench, "load_channels", lambda path: pytest.fail("file read"))
        with pytest.raises(ConfigurationError, match="a channel section needs drawn channels"):
            self.run(tmp_path, channel_file=path, channel=section,
                     m_values=[12], nu_values=[6])
        assert solves == []

    def test_directory_refused_when_built(self, tmp_path):
        with pytest.raises(ConfigurationError, match="channel file not found"):
            small_config(channel_file=str(tmp_path))

    def test_bad_header_refused_when_built(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("chset v1 M=8 NT=4\n")
        with pytest.raises(ChannelFormatError, match="bad header line"):
            small_config(channel_file=str(path))

    def test_cli_run_loads_the_file_once(self, tmp_path, monkeypatch):
        path = channel_file(tmp_path, 8, 4)
        calls, opened = [], []

        def counted(path, _fn=bench.load_channels):
            calls.append(path)
            return _fn(path)

        def counted_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)
        monkeypatch.setattr(bench, "load_channels", counted)
        monkeypatch.setattr(channel, "open", counted_open, raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "user_sweep", "m_values": [5, 6], "nu_values": [2],
            "channel_file": path, "algorithms": ["gma", "random"], "seeds": [0, 1],
            "output": str(tmp_path / "out.csv")}))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert calls == opened == [path]

    def test_file_rewritten_after_build_leaves_rows(self, tmp_path):
        path = channel_file(tmp_path, 8, 4)
        point = dict(m_values=(5,), algorithms=("full_search", "gma", "random"))
        cfg = small_config(channel_file=path, **point)
        before = run_experiment(cfg)
        channel_file(tmp_path, 8, 4, seed=6)  # same shape, other channels
        assert untimed(run_experiment(cfg)) == untimed(before)
        assert untimed(run_experiment(small_config(channel_file=path, **point))) != untimed(
            before)
        open(path, "w").close()  # even an empty file changes nothing now
        assert untimed(run_experiment(cfg)) == untimed(before)


class TestSearchRefusal:
    """Full search, config validation, the runtime sweep's skip and the
    CLI's skipped line all follow one rule, ``grouping.search_refusal``:
    a stub that refuses M=5 alone, at every cap, moves all four."""

    @pytest.fixture
    def stub(self, monkeypatch):
        def refusal(num_users, max_size):
            return f"stub refuses M={num_users}" if num_users == 5 else None
        assert bench.search_refusal is cli.search_refusal is grouping.search_refusal
        for module in (grouping, bench, cli):
            monkeypatch.setattr(module, "search_refusal", refusal)

    def test_exhaustive_search(self, stub):
        _, oracle = rician_oracle(5, 1, seed=0)
        with pytest.raises(SearchSpaceError, match="^stub refuses M=5$"):
            exhaustive_search(oracle)
        assert oracle.query_count == 0
        _, oracle = rician_oracle(4, 2, seed=0)
        assert exhaustive_search(oracle).num_users == 4

    def test_config_validation(self, stub, solves):
        with pytest.raises(ConfigurationError, match="^stub refuses M=5$"):
            small_config(m_values=(4, 5))
        assert solves == []
        small_config(m_values=(4, 6), nu_values=(2,))

    def test_runtime_sweep_skip_and_cli_line(self, stub, solves, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "scenario": "runtime_sweep", "m_values": [4, 5], "nu_values": [2],
            "algorithms": ["full_search", "random"], "seeds": [0],
            "output": str(tmp_path / "rt.csv")}))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        assert solves.count("exhaustive_search") == 1  # at M=4 only
        lines = capsys.readouterr().out.splitlines()
        assert "  M=5    full_search  skipped (stub refuses M=5)" in lines
        assert not any("M=4" in line and "skipped" in line for line in lines)
        csv = (tmp_path / "rt.csv").read_text().splitlines()
        assert [line.endswith(",,,,,") for line in csv[1:]] == [False, False, True, False]


@pytest.fixture(scope="module")
def rows():
    cfg = ExperimentConfig(
        scenario=Scenario.RUNTIME_SWEEP,
        m_values=(6,),
        nu_values=(3,),
        algorithms=("full_search", "gma", "random"),
        seeds=(0, 1),
    )
    return run_experiment(cfg)


class TestRuntimeComparison:
    def test_random_is_zero_db(self, rows):
        random_row = next(r for r in rows if r.algorithm == "random")
        assert random_row.runtime_db_vs_random == pytest.approx(0.0)

    def test_other_algorithms_have_finite_db(self, rows):
        for r in rows:
            if not r.skipped:
                assert math.isfinite(r.runtime_db_vs_random)

    def test_ratio_to_full_search(self, rows):
        by_alg = {r.algorithm: r for r in rows}
        assert by_alg["full_search"].ratio_to_opt == 1.0
        for r in rows:
            assert r.ratio_to_opt <= 1.0

    def test_random_timed_but_not_reported_when_omitted(self, monkeypatch):
        solved = []

        def timed_random(oracle, seed, _fn=bench.random_grouping):
            solved.append(seed)
            return _fn(oracle, seed)
        monkeypatch.setattr(bench, "random_grouping", timed_random)
        rows = run_experiment(small_config(scenario=Scenario.RUNTIME_SWEEP,
                                           algorithms=("gma", "zfs"), seeds=(0, 1)))
        assert solved == [0, 1]  # the 0 dB reference is still timed per seed
        assert [r.algorithm for r in rows] == ["gma", "zfs"]
        assert all(math.isfinite(r.runtime_db_vs_random) for r in rows)

    def test_full_search_skip_marker_above_cap(self):
        cfg = ExperimentConfig(
            scenario=Scenario.RUNTIME_SWEEP,
            m_values=(17,),
            nu_values=(3,),
            algorithms=("full_search", "random"),
            seeds=(0,),
        )
        rows = run_experiment(cfg)
        full = next(r for r in rows if r.algorithm == "full_search")
        assert full.skipped
        for value in (full.mean_mbps, full.p10_mbps, full.p90_mbps,
                      full.ratio_to_opt, full.runtime_ms):
            assert math.isnan(value)
        other = next(r for r in rows if r.algorithm == "random")
        assert not other.skipped and math.isnan(other.ratio_to_opt)
        buf = io.StringIO()
        write_csv(rows, buf)
        line = next(l for l in buf.getvalue().splitlines() if "full_search" in l)
        assert line.endswith(",,,,,")  # empty cells, runtime last, mark the skip


class TestOraclePolicy:
    def test_throughput_independent_of_scenario(self):
        point = dict(m_values=(6,), nu_values=(3,), seeds=(0, 1, 2))
        user = run_experiment(small_config(**point))
        runtime = run_experiment(small_config(scenario=Scenario.RUNTIME_SWEEP, **point))
        assert [r.algorithm for r in user] == [r.algorithm for r in runtime]
        for a, b in zip(user, runtime):
            assert (a.mean_mbps, a.p10_mbps, a.p90_mbps) == (
                b.mean_mbps, b.p10_mbps, b.p90_mbps)

    def record_solves(self, monkeypatch):
        """Wrap the six solver bindings; log (algorithm, oracle, queries
        made before the solve) per call."""
        log = []
        for attr in ("exhaustive_search", "optimal_mu2_su", "gma",
                     "zfs_grouping", "sus_grouping", "random_grouping"):
            def solve(*args, _fn=getattr(bench, attr), _attr=attr):
                oracle = next(a for a in args if isinstance(a, RateOracle))
                log.append((_attr, oracle, oracle.query_count))
                return _fn(*args)
            monkeypatch.setattr(bench, attr, solve)
        return log

    def test_runtime_sweep_solves_on_fresh_oracles(self, monkeypatch):
        log = self.record_solves(monkeypatch)
        run_experiment(small_config(scenario=Scenario.RUNTIME_SWEEP,
                                    seeds=(0, 1)))
        assert [attr for attr, _, _ in log[:6]] == [
            "random_grouping", "exhaustive_search", "optimal_mu2_su", "gma",
            "zfs_grouping", "sus_grouping"]
        assert len(log) == 12
        assert all(queries == 0 for _, _, queries in log)
        assert len({id(oracle) for _, oracle, _ in log}) == 12

    def test_user_sweep_shares_one_oracle_per_seed(self, monkeypatch):
        log = self.record_solves(monkeypatch)
        run_experiment(small_config(seeds=(0, 1)))
        assert [attr for attr, _, _ in log[:6]] == [
            "exhaustive_search", "optimal_mu2_su", "gma", "zfs_grouping",
            "sus_grouping", "random_grouping"]
        assert len(log) == 12
        for seed_log in (log[:6], log[6:]):
            assert len({id(oracle) for _, oracle, _ in seed_log}) == 1
        assert log[0][1] is not log[6][1]
