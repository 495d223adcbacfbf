import json

import numpy as np
import pytest

from mugroup.channel import (ChannelSet, CorrelatedRicianSpec, generate_rician,
                             load_channels, write_channels)
from mugroup.cli import main


def test_partitions_count(capsys):
    assert main(["partitions", "--m", "6", "--max-size", "3"]) == 0
    assert capsys.readouterr().out.strip() == "166"


def test_partitions_count_pairs(capsys):
    main(["partitions", "--m", "6", "--max-size", "2"])
    assert capsys.readouterr().out.strip() == "76"


def test_gen_channels_round_trip(tmp_path, capsys):
    spec = {"num_users": 4, "num_tx_antennas": 4, "k_factor_db": 8.0,
            "rho": 0.3, "correlated_user_count": 2, "seed": 7}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "chan.txt"
    assert main(["gen-channels", "--spec", str(spec_path), "--out", str(out_path)]) == 0
    channels = load_channels(out_path)
    assert channels.num_users == 4
    assert channels.num_tx_antennas == 4


def test_run_experiment_to_csv(tmp_path, capsys):
    cfg = {
        "scenario": "user_sweep",
        "m_values": [4],
        "nu_values": [2],
        "algorithms": ["full_search", "gma", "random"],
        "seeds": [0, 1],
        "output": str(tmp_path / "results.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == ("scenario,M,Nu,rho,algorithm,seed_count,"
                        "mean_mbps,p10_mbps,p90_mbps,ratio_to_opt,runtime_ms")
    assert len(lines) == 4


def test_run_writes_to_stdout_without_output(tmp_path, capsys):
    cfg = {
        "scenario": "user_sweep",
        "m_values": [3],
        "nu_values": [2],
        "algorithms": ["random"],
        "seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,")


def test_bad_config_exits_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "bogus"}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


BASE_CONFIG = {"scenario": "user_sweep", "m_values": [4], "nu_values": [2],
               "algorithms": ["random"], "seeds": [0]}


def test_repeated_algorithm_exits_nonzero(tmp_path, capsys):
    # a solver listed twice would report its seeds twice per row
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {**BASE_CONFIG, "algorithms": ["full_search", "gma", "gma"], "seeds": [0, 1]}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "repeated" in err


@pytest.mark.parametrize("raw", [
    [1, 2],
    {**BASE_CONFIG, "m_values": 5},
    {**BASE_CONFIG, "seeds": {"base": 3}},
    {**BASE_CONFIG, "channel": []},
    {**BASE_CONFIG, "rho_values": []},
    {**BASE_CONFIG, "channel_file": 5},
    {**BASE_CONFIG, "output": 7},
], ids=["top_level_list", "m_values_number", "seeds_without_count",
        "channel_list", "empty_rho_values", "channel_file_number", "output_number"])
def test_malformed_config_exits_nonzero(tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_channels_spec_not_an_object(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps([60, 4]))
    out_path = tmp_path / "chan.txt"
    assert main(["gen-channels", "--spec", str(spec_path), "--out", str(out_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize("field, value", [
    ("num_users", [6]), ("num_tx_antennas", {"n": 4}), ("rho", [0.5]), ("seed", None),
    # numbers of the wrong kind are refused too, not rounded or coerced
    ("num_users", 6.7), ("seed", True), ("num_tx_antennas", "4"), ("rho", "0.5"),
])
def test_gen_channels_wrong_typed_field(tmp_path, capsys, field, value):
    spec = {"num_users": 6, "num_tx_antennas": 4, field: value}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "chan.txt"
    assert main(["gen-channels", "--spec", str(spec_path), "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid channel spec value") and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("spec, message", [
    ({"num_users": 6}, "error: channel spec is missing field 'num_tx_antennas'"),
    ({"num_users": 6, "num_tx_antennas": 4, "seed": -1}, "error: seed -1 must not be negative"),
])
def test_gen_channels_refused_spec(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "chan.txt"
    assert main(["gen-channels", "--spec", str(spec_path), "--out", str(out_path)]) == 1
    assert capsys.readouterr().err.strip() == message
    assert not out_path.exists()


@pytest.mark.parametrize("patch", [
    {"m_values": [4, 6], "nu_values": [1], "algorithms": ["random", "blossom"]},
    {"phy": {"rate_mode": "mcs", "mac_overhead": "false"}},
    {"scenario": "user_sweep", "rho_values": [0.0, 0.9]},
    {"seeds": [0, -2]},
], ids=["nu_one_blossom", "mac_overhead_string", "two_rho_user_sweep", "negative_seed"])
def test_refused_config_runs_nothing(tmp_path, capsys, patch):
    # refused before the first grid point, so no CSV is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {**BASE_CONFIG, **patch, "output": str(tmp_path / "results.csv")}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "results.csv").exists()


def test_missing_config_file_exits_nonzero(capsys):
    assert main(["run", "--config", "/nonexistent.json"]) == 1


def test_runtime_sweep_prints_db_table(tmp_path, capsys):
    cfg = {
        "scenario": "runtime_sweep",
        "m_values": [5],
        "nu_values": [2],
        "algorithms": ["gma", "random"],
        "seeds": [0],
        "output": str(tmp_path / "rt.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "dB" in out


def test_runtime_sweep_marks_skipped_full_search(tmp_path, capsys):
    cfg = {
        "scenario": "runtime_sweep",
        "m_values": [17],
        "nu_values": [2],
        "algorithms": ["full_search", "random"],
        "seeds": [0],
        "output": str(tmp_path / "rt.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "full_search  skipped (more than 16 users)" in capsys.readouterr().out


def test_run_with_zero_channel_user(tmp_path, capsys):
    # every group holding user 3 is rank deficient; the tests' RuntimeWarning
    # filter fails the run on any 0/0 in its steering
    channels = generate_rician(CorrelatedRicianSpec(
        num_users=8, num_tx_antennas=4, num_subcarriers=2, seed=5))
    entries = np.array(channels.entries)
    entries[3] = 0.0
    chan_path = tmp_path / "chan.txt"
    write_channels(ChannelSet(8, 4, 2, entries), chan_path)
    cfg = {**BASE_CONFIG, "m_values": [8], "nu_values": [3], "channel_file": str(chan_path),
           "algorithms": ["full_search", "blossom", "gma", "zfs", "sus", "random"],
           "output": str(tmp_path / "results.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert len((tmp_path / "results.csv").read_text().splitlines()) == 7
