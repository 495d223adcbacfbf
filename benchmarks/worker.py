"""One ``mugroup run`` of a benchmark config, measured inside its process.

Run by ``run.py``, never by hand:

    python3 benchmarks/worker.py --workload NAME --config CFG --out CSV \\
        --record RECORD.json --spawned T [--trace SPANS.jsonl]

The six solver entry points, as ``mugroup.bench`` binds them, are wrapped
to time each solve with one ``perf_counter`` pair and to read the deltas of
the oracle's ``query_count`` and ``compute_count``.  With ``--trace`` the
public functions of every layer are wrapped too, at the binding each
caller uses (the modules import with ``from .x import y``), and the spans
go to the JSONL file.  After ``mugroup.cli.main`` returns, timing ends and
every solve's objective is recomputed on a fresh oracle.  ``--spawned`` is
the parent's ``time.monotonic()`` just before it started this process, so
set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from importlib import metadata

from gate import ABOVE_SINGLES
from tracing import Tracer, layer_metrics

import numpy as np

import mugroup
from mugroup.grouping import objective
from mugroup.phy import RateOracle, make_rate_oracle

# modules by import path: the package re-exports functions (``mugroup.gma``
# is the function), so attribute access would not reach the modules
baselines, bench, cli, gma, grouping = (
    importlib.import_module(f"mugroup.{name}")
    for name in ("baselines", "bench", "cli", "gma", "grouping"))

# algorithm name in the config -> (binding in mugroup.bench, span name)
SOLVERS = {
    "full_search": ("exhaustive_search", "grouping.exhaustive_search"),
    "blossom": ("optimal_mu2_su", "gma.optimal_mu2_su"),
    "gma": ("gma", "gma.gma"),
    "zfs": ("zfs_grouping", "baselines.zfs_grouping"),
    "sus": ("sus_grouping", "baselines.sus_grouping"),
    "random": ("random_grouping", "baselines.random_grouping"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")


class SolveLog:
    """Wraps the solver entry points and records one entry per solve."""

    def __init__(self, seeds: list[int], tracer: Tracer | None):
        self.seeds = seeds
        self.tracer = tracer
        self.solves: list[dict] = []
        self.results: list[tuple] = []  # (solution, oracle) per solve, for the recheck
        self.first_start: float | None = None
        self._calls = dict.fromkeys(SOLVERS, 0)

    def wrap(self, algorithm: str, fn, span_name: str):
        def solve(*args, **kwargs):
            oracle = next(a for a in (*args, *kwargs.values()) if isinstance(a, RateOracle))
            # run_experiment solves seed by seed, each algorithm once per seed
            seed = self.seeds[self._calls[algorithm]]
            self._calls[algorithm] += 1
            if self.first_start is None:
                self.first_start = time.monotonic()
            queries, computes = oracle.query_count, oracle.compute_count
            span = self.tracer.open(span_name, algorithm, seed) if self.tracer else None
            solution, error = None, None
            start = time.perf_counter()
            try:
                solution = fn(*args, **kwargs)
                return solution
            except Exception as exc:
                error = repr(exc)
                raise
            finally:
                elapsed = time.perf_counter() - start
                if span is not None:
                    self.tracer.close(span)
                self.solves.append({
                    "algorithm": algorithm, "seed": seed, "ms": elapsed * 1e3,
                    "queries": oracle.query_count - queries,
                    "computes": oracle.compute_count - computes,
                    "objective": None if solution is None else solution.objective_value,
                    "error": error,
                })
                self.results.append((solution, oracle))

        return solve

    def install(self) -> None:
        for algorithm, (attr, span_name) in SOLVERS.items():
            fn = getattr(bench, attr)
            setattr(bench, attr, self.wrap(algorithm, fn, span_name))

    def recheck(self) -> None:
        """Recompute each reported objective on a fresh oracle, and the
        objective of serving every user alone where the gate needs it."""
        for record, (solution, oracle) in zip(self.solves, self.results):
            if solution is None:
                record["recomputed"] = None
                continue
            fresh = make_rate_oracle(oracle.channels, oracle.cfg, oracle.max_group_size)
            record["recomputed"] = objective(solution.groups, fresh)
            record["groups"] = [list(g) for g in solution.groups]
            if record["algorithm"] in ABOVE_SINGLES:
                record["singles"] = objective([(u,) for u in range(fresh.num_users)], fresh)


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""

    def computes_before(args):
        return args[0].compute_count

    def rate_leave(args, result, before):
        extra = {}
        if args[0].compute_count != before:
            extra["computes"] = args[0].compute_count - before
        if result == 0.0:
            extra["zero"] = [tracer.oracle_serial(args[0]), *sorted(args[1])]
        return extra

    def precompute_leave(args, result, before):
        return {"computes": args[0].compute_count - before}

    def search_leave(args, result, before):
        return {"partitions": result[0]} if result is not None else None

    def matching_leave(args, result, before):
        return {"edges": len(args[0].edges)}

    RateOracle.rate = tracer.wrap(RateOracle.rate, "phy.rate", computes_before, rate_leave)
    RateOracle.precompute = tracer.wrap(RateOracle.precompute, "phy.precompute",
                                        computes_before, precompute_leave)
    points = [
        (cli, "run_experiment", "bench.run_experiment", None),
        (cli, "write_csv", "cli.write_csv", None),
        (bench, "generate_rician", "channel.generate_rician", None),
        (bench, "load_channels", "channel.load_channels", None),
        (bench, "objective", "grouping.objective", None),
        (baselines, "objective", "grouping.objective", None),
        (baselines, "pairwise_correlation", "channel.pairwise_correlation", None),
        (gma, "objective", "grouping.objective", None),
        (gma, "optimal_mu2_su", "gma.optimal_mu2_su", None),
        (gma, "max_weight_matching", "matching.max_weight_matching", matching_leave),
        (gma, "hungarian", "matching.hungarian", None),
        (grouping, "objective", "grouping.objective", None),
        (grouping, "search_best_partition", "kernels.search_best_partition",
         search_leave),
    ]
    for module, attr, name, leave in points:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, None, leave))


def host_reference_ms(reps: int = 15) -> float:
    """Median time of a fixed task that shares no code with ``mugroup``:
    an interpreter loop over a dict and small numpy solves, the same mix
    of work as the solvers.  It measures how fast the host runs just now."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(20000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
        a = np.eye(4) * 4.0 + np.arange(16.0).reshape(4, 4) / 16.0
        b = np.ones(4)
        for _ in range(300):
            b = np.linalg.solve(a, b)
            b /= np.linalg.norm(b)
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[reps // 2]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Versions, kernel backend, cores and pinned variables of this process."""
    versions = {}
    for dist in ("numpy", "networkx", "scipy", "numba"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "mugroup_backend": mugroup.active_backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace")
    args = parser.parse_args()

    with open(args.config, encoding="utf-8") as fh:
        seeds_raw = json.load(fh)["seeds"]
    seeds = list(range(seeds_raw["base"], seeds_raw["base"] + seeds_raw["count"]))
    tracer = Tracer(args.workload) if args.trace else None
    log = SolveLog(seeds, tracer)
    log.install()
    if tracer:
        install_tracing(tracer)

    try:
        rc = cli.main(["run", "--config", args.config, "--out", args.out])
    except Exception:
        traceback.print_exc()
        rc = 1
    ended = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_ref_ms = host_reference_ms()

    layers = None
    if tracer:
        layers = layer_metrics(tracer.spans)
        tracer.write_jsonl(args.trace)
    log.recheck()
    record = {
        "rc": rc,
        "setup_s": None if log.first_start is None else log.first_start - args.spawned,
        "run_s": ended - args.spawned,
        "peak_rss_mb": peak_rss_mb,
        "host_ref_ms": host_ref_ms,
        "solves": log.solves,
        "env": environment(),
    }
    if layers is not None:
        record["layers"] = layers
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
