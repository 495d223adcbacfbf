"""Tests of the benchmark itself.

    python3 -m pytest -q benchmarks/selftest.py

Kept out of the default test collection because the smoke runs start
``mugroup run`` processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gate import gma_shortfalls, golden_mismatches, solve_failures
from tracing import COUNT_METRICS, Tracer, layer_metrics, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def span(name, start, end, parent=-1, extra=None):
    return [name, start, end, parent, None, extra]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("bench.run_experiment", 0.0, 10.0),
        span("gma.gma", 1.0, 6.0, 0),
        span("matching.hungarian", 2.0, 3.0, 1),
        span("phy.rate", 3.5, 4.0, 1),
        span("cli.write_csv", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.5, 1.0, 0.5, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 5.0, 0),
        span("c", 4.0, 7.0, 0),   # overlaps b by 1
        span("d", 9.0, 12.0, 0),  # runs past the parent's end by 2
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        span("gma.gma", 0.0, 0.010),
        span("gma.optimal_mu2_su", 0.001, 0.006, 0),
        span("phy.rate", 0.002, 0.003, 1, {"computes": 1}),
        span("phy.rate", 0.003, 0.0031, 1, {}),
        span("phy.rate", 0.0031, 0.0032, 1, {"zero": [0, 1, 2]}),
        span("phy.rate", 0.0032, 0.0033, 1, {"zero": [0, 1, 2]}),
        span("matching.max_weight_matching", 0.004, 0.005, 1, {"edges": 7}),
        span("phy.precompute", 0.007, 0.008, 0, {"computes": 5}),
    ]
    layers = layer_metrics(spans)
    assert layers["phy.rate_queries"] == 4
    assert layers["phy.rate_computes"] == 6
    assert layers["phy.precompute_groups"] == 5
    assert layers["phy.zero_rate_groups"] == 1
    assert layers["phy.memo_hit_ratio"] == pytest.approx(0.75)
    assert layers["phy.rate_compute_ms"] == pytest.approx(1.0)
    assert layers["matching.blossom_edges"] == 7
    assert layers["matching.blossom_ms"] == pytest.approx(1.0)
    assert layers["gma.pairing_self_ms"] == pytest.approx(5.0 - 1.3 - 1.0)
    assert layers["gma.merge_self_ms"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert layers["kernels.partitions"] == 0


def test_tracer_nests_spans_and_tags_the_solve():
    tracer = Tracer("w")
    inner = tracer.wrap(lambda x: x + 1, "phy.rate")
    solve = tracer.open("gma.gma", "gma", 3)
    assert inner(1) == 2
    tracer.close(solve)
    assert inner(2) == 3
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("gma.gma", -1, ("w", 3, "gma")),
                     ("phy.rate", 0, ("w", 3, "gma")),
                     ("phy.rate", -1, None)]


GOLDEN = (BENCH / "golden" / "exact_m10.csv").read_text()


def test_golden_gate_accepts_other_runtimes():
    lines = GOLDEN.splitlines()
    retimed = [lines[0]] + [line.rsplit(",", 1)[0] + ",1.000" for line in lines[1:]]
    assert golden_mismatches("\n".join(retimed) + "\n", GOLDEN) == {}


def test_golden_gate_rejects_a_perturbed_csv():
    perturbed = GOLDEN.replace("720.566287", "720.566288")
    wrong = golden_mismatches(perturbed, GOLDEN)
    assert list(wrong) == ["gma"]
    dropped = "".join(GOLDEN.splitlines(keepends=True)[:-1])
    assert list(golden_mismatches(dropped, GOLDEN)) == ["*"]


def test_perturbed_csv_counts_as_failed_solves():
    record = {"csv": GOLDEN.replace("720.566287", "1.0"), "solves": [
        {"algorithm": a, "seed": 0, "objective": 1.0, "recomputed": 1.0, "error": None,
         "singles": 1.0}
        for a in ("full_search", "gma")]}
    attempted, failed, messages = run.gate([record], record, GOLDEN)
    assert (attempted, failed) == (2, 1)
    assert any("golden CSV differs for gma" in m for m in messages)


def solve(algorithm, objective, seed=0, recomputed=None, error=None, singles=3.0):
    return {"algorithm": algorithm, "seed": seed, "objective": objective,
            "recomputed": objective if recomputed is None else recomputed, "error": error,
            "singles": singles}


def test_solve_checks():
    solves = [
        solve("full_search", 10.0),
        solve("blossom", 8.0),
        solve("gma", 7.5),                    # below blossom: reported, not failed
        solve("zfs", 10.5),                   # above the optimum
        solve("sus", 9.0, recomputed=9.5),    # reported objective is stale
        solve("random", None, error="ValueError()"),
        solve("gma", 4.0, seed=1),            # no blossom or optimum on seed 1
        solve("gma", 2.5, seed=2),            # below serving every user alone
        solve("random", 2.5, seed=2),         # may score below that
    ]
    reasons = solve_failures(solves)
    assert [bool(r) for r in reasons] == [False, False, False, True, True, True, False,
                                          True, False]
    assert "above full_search" in reasons[3][0]
    assert "recomputation" in reasons[4][0]
    assert "every user alone" in reasons[7][0]
    assert gma_shortfalls(solves) == [(0, 7.5, 8.0)]


def test_end_to_end_scales_times_to_the_reference_host():
    def record(seed, host_ref_ms):
        return {"setup_s": 0.5, "run_s": 4.0, "peak_rss_mb": 50.0, "host_ref_ms": host_ref_ms,
                "solves": [{"algorithm": a, "seed": seed, "ms": 100.0, "objective": obj}
                           for a, obj in (("blossom", 2.0), ("gma", 3.0),
                                          ("zfs", 2.5), ("sus", 2.5))]}
    config = {"algorithms": ["blossom", "gma", "zfs", "sus"], "m_values": [10]}
    slow = 2 * run.HOST_REFERENCE_MS
    metrics, notes = run.end_to_end([record(0, slow), record(1, slow)], config)
    assert metrics["setup_s"] == pytest.approx(0.25)
    assert metrics["run_s"] == pytest.approx(2.0)
    assert metrics["gma_ms_p50"] == metrics["exact_ms_p50"] == pytest.approx(50.0)
    assert metrics["peak_rss_mb"] == 50.0
    assert metrics["gma_ratio_to_exact"] == pytest.approx(1.5)
    assert any("unscaled wall p50=100.000 ms" in line for line in notes)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(COUNT_METRICS) <= set(run.PER_LAYER_UNITS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_of_each_workload_config(workload, tmp_path):
    runner = run.Runner(workload, tmp_path)
    runner.config["seeds"]["count"] = 1
    plain = runner.run(0)
    traced = runner.run(0, trace=True)
    for record in (plain, traced):
        assert record["rc"] == 0
        assert not any(solve_failures(record["solves"]))
        assert 0 < record["setup_s"] < record["run_s"]
        assert record["host_ref_ms"] > 0
        assert {s["algorithm"] for s in record["solves"]} == set(runner.config["algorithms"])
    assert record["csv"].startswith("scenario,M,Nu,rho,algorithm,")
    work = [(s["algorithm"], s["queries"], s["computes"]) for s in plain["solves"]]
    assert work == [(s["algorithm"], s["queries"], s["computes"]) for s in traced["solves"]]
    layers = traced["layers"]
    assert layers["phy.rate_queries"] > 0
    assert (layers["kernels.partitions"] > 0) == (workload == "exact_m10")
    assert (layers["channel.load_ms"] > 0) == (workload == "wideband_m40")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "exact_m10",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
