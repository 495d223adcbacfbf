import io
import json
import math

import numpy as np
import pytest

from mugroup.bench import (
    CSV_HEADER,
    ExperimentConfig,
    Scenario,
    run_experiment,
    write_csv,
)
from mugroup import bench
from mugroup.baselines import SusParams
from mugroup.channel import CorrelatedRicianSpec, generate_rician, write_channels
from mugroup.errors import ChannelFormatError, ConfigurationError
from mugroup.grouping import objective
from mugroup.phy import RateOracle, make_rate_oracle

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


def channel_file(tmp_path, num_users, num_tx_antennas):
    path = tmp_path / "chan.txt"
    write_channels(generate_rician(CorrelatedRicianSpec(
        num_users=num_users, num_tx_antennas=num_tx_antennas, seed=5)), path)
    return str(path)


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

    def test_from_json_bad_scenario(self, tmp_path):
        with pytest.raises(ConfigurationError):
            from_text(tmp_path, json.dumps({"scenario": "bogus"}))


class TestChannelFileConfig:
    """A channel file fixes the users and antennas: a config is checked
    against its header when it is built, before any solve."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        for attr in SOLVER_BINDINGS.values():
            def solve(*args, _fn=getattr(bench, attr), _attr=attr):
                calls.append(_attr)
                return _fn(*args)
            monkeypatch.setattr(bench, attr, solve)
        return calls

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

    def test_bad_header_refused_when_built(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("chset v1 M=8 NT=4\n")
        with pytest.raises(ChannelFormatError, match="bad header line"):
            small_config(channel_file=str(path))


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
