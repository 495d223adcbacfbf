"""Benchmark of ``mugroup run`` on two pinned workloads.

    python3 benchmarks/run.py --workload exact_m10 --seed 3 --seconds 45 --trace 0

Run from the repository root.  Each workload is one JSON config under
``benchmarks/workloads/`` run through ``mugroup.cli.main`` in a process of
its own (``worker.py``), with BLAS threads pinned to 1.  Processes run one
after another, so solves run back to back in a closed loop, one at a
time.  Process k runs the config with ``seeds.base = 1000*seed + k*count``;
for seed 0 the first process runs the config exactly as pinned.  New
processes start while the run would end near ``--seconds`` (at least three).

Workloads, and why each was chosen:

* ``exact_m10``: user sweep, M=10, Nu=4, Shannon rates, all six
  algorithms on one shared oracle.  Reproduces throughput against the
  optimum; the ``kernels`` partition walk dominates.
* ``wideband_m40``: runtime sweep, M=40 of 60 users from a channel file
  (8 subcarriers, rho=0.8 over 30 users), MCS rates with MAC overhead.
  Scalar MCS rate computes and SUS correlation loops dominate; the only
  workload that loads a channel file.  Each process reads its own file,
  written before it starts from a generator seeded with its ``seeds.base``.

A flat M=100 workload is left out: its 1.5-2 s solves give about five
samples per algorithm in a run, too few to be steady on a 2-vCPU host
whose speed drifts by about 20% over 5-10 s.

Times in the metrics are wall times scaled to a reference host speed:
after its run each process times a fixed task that shares no code with
``mugroup`` (``worker.host_reference_ms``), and its times are multiplied
by ``HOST_REFERENCE_MS`` over that time.  Unscaled medians are printed too.

With ``--trace 0`` the end-to-end metrics are printed; ``exact_*`` and
``gma_ratio_to_exact`` refer to ``full_search`` on ``exact_m10`` and to
``blossom`` (the exact pairs-or-singles optimum) on ``wideband_m40``, and
on ``exact_m10`` the heuristics' times are warm-oracle times.  With
``--trace 1`` untraced and traced processes alternate on one config and
the per-layer metrics are printed, with ``trace.overhead_s``.

Every run checks every solve (see ``gate.py``); with the default seed 0
it also compares the CSV of the pinned config with
``benchmarks/golden/<workload>.csv``.  Failures are printed, with
``failed_share``; seeds on which ``gma`` scores below ``blossom`` are
printed too, with their share, but are not failures.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Files go to ``benchmarks/.work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import gma_shortfalls, golden_mismatches, solve_failures
from tracing import COUNT_METRICS, SELF_MS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact_m10", "wideband_m40")
P50_ALGORITHMS = ("blossom", "gma", "zfs", "sus")
END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "exact_ms_p50": "ms",
    **{f"{a}_ms_p50": "ms" for a in P50_ALGORITHMS},
    "gma_ratio_to_exact": "ratio", "gma_mbps_mean": "Mbit/s",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in SELF_MS},
    **{name: "count" for name in COUNT_METRICS},
    "phy.rate_compute_ms": "ms", "phy.memo_hit_ratio": "ratio", "trace.overhead_s": "s",
}
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
}
# Reported times are wall times scaled to a host on which worker.py's
# reference task takes this long, so that the speed of a shared host,
# which changes by up to 1.8x within minutes, cancels out of the metrics.
HOST_REFERENCE_MS = 10.0
SEED_STRIDE = 1000
MIN_PROCESSES = 3
MIN_TRACE_PAIRS = 2
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload and collects their records."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.config = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
        self.started = time.monotonic()
        self.env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
        self._serial = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def channels(self, seed: int) -> str | None:
        """Channel file for ``seed`` when the workload reads one."""
        if "channel_file" not in self.config:
            return None
        path = self.work / f"channels-{seed}.txt"
        if not path.exists():
            spec = json.loads((BENCH / "workloads" / f"{self.workload}.channels.json").read_text())
            spec["seed"] = seed
            spec_path = self.work / f"channels-{seed}.json"
            spec_path.write_text(json.dumps(spec))
            self._call([sys.executable, "-m", "mugroup.cli", "gen-channels",
                        "--spec", str(spec_path), "--out", str(path)],
                       self.work / f"channels-{seed}.log")
        return str(path)

    def _call(self, argv: list[str], log: Path) -> None:
        with open(log, "w", encoding="utf-8") as fh:
            try:
                rc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    timeout=max(self.remaining(), 1.0)).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
        if rc != 0:
            raise BenchError(f"{argv[1:3]} ended with {rc}; see {log}:\n"
                             + log.read_text()[-2000:])

    def run(self, base: int, trace: bool = False) -> dict:
        """One ``mugroup run`` of the workload config on seeds from ``base``."""
        tag = f"p{self._serial:03d}-{'traced' if trace else 'plain'}"
        self._serial += 1
        cfg = dict(self.config, seeds={"count": self.config["seeds"]["count"], "base": base})
        channel_file = self.channels(base)
        if channel_file:
            cfg["channel_file"] = channel_file
        paths = {ext: self.work / f"{tag}.{ext}"
                 for ext in ("json", "csv", "record.json", "spans.jsonl", "log")}
        paths["json"].write_text(json.dumps(cfg, indent=1))
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
                "--config", str(paths["json"]), "--out", str(paths["csv"]),
                "--record", str(paths["record.json"])]
        if trace:
            argv += ["--trace", str(paths["spans.jsonl"])]
        argv += ["--spawned", repr(time.monotonic())]
        self._call(argv, paths["log"])
        record = json.loads(paths["record.json"].read_text())
        record["base"] = base
        record["csv"] = paths["csv"].read_text()
        record["traced"] = trace
        return record


def tail_percentile(values: list[float]) -> str:
    """The highest percentile above the median with at least ten samples
    beyond it, or ''."""
    if len(values) <= 20:
        return ""
    rank = math.floor(100 * (len(values) - 10) / len(values))
    return f" p{rank}={sorted(values)[-11]:.3f} ms"


def speed(record: dict) -> float:
    """Factor that scales the wall times of one process to the reference host."""
    return HOST_REFERENCE_MS / record["host_ref_ms"]


def end_to_end(records: list[dict], config: dict) -> tuple[dict, list[str]]:
    """Metrics of the untraced processes, and lines describing the samples."""
    solves = [s for r in records for s in r["solves"]]
    ms, wall_ms = {}, {}
    for r in records:
        for s in r["solves"]:
            ms.setdefault(s["algorithm"], []).append(s["ms"] * speed(r))
            wall_ms.setdefault(s["algorithm"], []).append(s["ms"])
    exact = "full_search" if "full_search" in config["algorithms"] else "blossom"
    by_seed: dict[int, dict[str, float]] = {}
    for s in solves:
        by_seed.setdefault(s["seed"], {})[s["algorithm"]] = s["objective"]
    m = config["m_values"][0]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * speed(r) for r in records),
        "run_s": statistics.median(r["run_s"] * speed(r) for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "exact_ms_p50": statistics.median(ms[exact]),
        **{f"{a}_ms_p50": statistics.median(ms[a]) for a in P50_ALGORITHMS},
        "gma_ratio_to_exact": statistics.fmean(
            v["gma"] / v[exact] for v in by_seed.values()),
        "gma_mbps_mean": statistics.fmean(v["gma"] / m / 1e6 for v in by_seed.values()),
    }
    notes = [f"processes={len(records)} seeds={len(by_seed)} exact={exact}",
             "unscaled wall: setup_s={:.4f} run_s={:.4f}; host reference {:.3f} ms".format(
                 statistics.median(r["setup_s"] for r in records),
                 statistics.median(r["run_s"] for r in records),
                 statistics.median(r["host_ref_ms"] for r in records))]
    for algorithm, values in ms.items():
        notes.append(f"{algorithm}: n={len(values)} p50={statistics.median(values):.3f} ms"
                     + tail_percentile(values)
                     + f" (unscaled wall p50={statistics.median(wall_ms[algorithm]):.3f} ms)")
    return metrics, notes


def per_layer(records: list[dict]) -> tuple[dict, list[str]]:
    """Layer metrics of the traced processes; counts must repeat exactly."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    problems = []
    first = traced[0]["layers"]
    for r in traced[1:]:
        for name in COUNT_METRICS:
            if r["layers"][name] != first[name]:
                problems.append(f"count {name} is {r['layers'][name]} in one traced "
                                f"process and {first[name]} in another")
    work = [[(s["algorithm"], s["seed"], s["queries"], s["computes"]) for s in r["solves"]]
            for r in records]
    if any(w != work[0] for w in work[1:]):
        problems.append("per-solve query or compute counts differ between processes")
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name in COUNT_METRICS:
            metrics[name] = first[name]
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(r["run_s"] * speed(r) for r in traced)
                             - statistics.median(r["run_s"] * speed(r) for r in plain))
        elif PER_LAYER_UNITS[name] == "ms":
            metrics[name] = statistics.median(r["layers"][name] * speed(r) for r in traced)
        else:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
    return metrics, problems


def gate(records: list[dict], golden: dict, golden_csv: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every solve of every process;
    the CSV of ``golden`` must match ``golden_csv``."""
    attempted = failed = 0
    messages = []
    for r in records:
        wrong = golden_mismatches(r["csv"], golden_csv) if r is golden else {}
        for where, cells in wrong.items():
            messages.append(f"golden CSV differs for {where}: {'; '.join(cells)}")
        for s, reasons in zip(r["solves"], solve_failures(r["solves"])):
            attempted += 1
            if s["algorithm"] in wrong or "*" in wrong:
                reasons = reasons + ["CSV row differs from the golden copy"]
            if reasons:
                failed += 1
                messages.append(f"{s['algorithm']} seed {s['seed']}: {'; '.join(reasons)}")
    return attempted, failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mugroup benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mugroup" / "__init__.py").is_file():
        print(f"error: no mugroup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, work)
    count = runner.config["seeds"]["count"]
    base = SEED_STRIDE * args.seed
    try:
        start = time.monotonic()
        records = []
        if args.trace:
            # same config throughout, alternating which side goes first
            while True:
                pair = [False, True] if len(records) % 4 == 0 else [True, False]
                records += [runner.run(base, trace=t) for t in pair]
                elapsed = time.monotonic() - start
                step = 2 * elapsed / len(records)
                if ((len(records) >= 2 * MIN_TRACE_PAIRS and elapsed + step / 2 > args.seconds)
                        or runner.remaining() < 3 * step):
                    break
        else:
            while True:
                records.append(runner.run(base + len(records) * count))
                elapsed = time.monotonic() - start
                step = elapsed / len(records)
                if ((len(records) >= MIN_PROCESSES and elapsed + step / 2 > args.seconds)
                        or (len(records) + 1) * count > SEED_STRIDE
                        or runner.remaining() < 3 * step):
                    break
        # with the default seed the first untraced process runs the pinned config
        golden = next((r for r in records if r["base"] == 0 and not r["traced"]), None)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    golden_csv = (BENCH / "golden" / f"{args.workload}.csv").read_text()
    attempted, failed, messages = gate(records, golden, golden_csv)
    shortfalls = [f for r in records for f in gma_shortfalls(r["solves"])]
    gma_solves = sum(s["algorithm"] == "gma" for r in records for s in r["solves"])
    if args.trace:
        metrics, problems = per_layer(records)
        units, notes = PER_LAYER_UNITS, []
    else:
        metrics, notes = end_to_end(records, runner.config)
        units, problems = END_TO_END_UNITS, []
    messages += problems

    print("environment: " + json.dumps(records[0]["env"], sort_keys=True))
    for line in notes:
        print("samples: " + line)
    for name, value in metrics.items():
        print(f"{name:<28s} {value:>16.6f} {units[name]}")
    print(f"{'failed_share':<28s} {failed / attempted:>16.6f} ratio")
    print(f"{'gma_below_blossom_share':<28s} {len(shortfalls) / gma_solves:>16.6f} ratio")
    for seed, got, pairing in shortfalls:
        print(f"gma below blossom (not a failure): seed {seed}: {got!r} < {pairing!r} "
              f"({got / pairing - 1.0:+.2%})")
    for line in messages:
        print("FAIL: " + line)
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "env": records[0]["env"], "samples": notes, "messages": messages,
         "gma_below_blossom": shortfalls}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
