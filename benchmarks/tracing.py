"""In-memory spans around the calls into each ``mugroup`` layer.

A span is ``(name, start, end, parent, solve, extra)``: ``parent`` is the
index of the enclosing span or -1, ``solve`` the (workload, seed,
algorithm) of the solve it belongs to or None, and ``extra`` a small dict
of counts read at the boundary.  Spans are kept in a list while the run
goes and written out as JSONL when it ends; self times and per-layer
metrics are derived from that list afterwards.
"""

from __future__ import annotations

import functools
import json
import time
import weakref

# Layer metrics and the span names they are derived from.  A layer's time
# is the summed self time of its spans.
SELF_MS = {
    "channel.generate_ms": "channel.generate_rician",
    "channel.load_ms": "channel.load_channels",
    "channel.corr_ms": "channel.pairwise_correlation",
    "phy.precompute_ms": "phy.precompute",
    "kernels.search_ms": "kernels.search_best_partition",
    "grouping.rate_table_ms": "grouping.exhaustive_search",
    "grouping.objective_ms": "grouping.objective",
    "matching.blossom_ms": "matching.max_weight_matching",
    "matching.hungarian_ms": "matching.hungarian",
    "gma.pairing_self_ms": "gma.optimal_mu2_su",
    "gma.merge_self_ms": "gma.gma",
    "baselines.zfs_self_ms": "baselines.zfs_grouping",
    "baselines.sus_self_ms": "baselines.sus_grouping",
    "bench.self_ms": "bench.run_experiment",
    "cli.csv_ms": "cli.write_csv",
}

# Metrics that are exact counts: the same code on the same inputs must
# give the same value on every run.
COUNT_METRICS = (
    "channel.corr_calls",
    "phy.rate_queries",
    "phy.rate_computes",
    "phy.zero_rate_groups",
    "phy.precompute_groups",
    "kernels.partitions",
    "matching.blossom_edges",
)


class Tracer:
    """Records nested spans for one single-threaded process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._oracle_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_oracle = 0

    def oracle_serial(self, oracle) -> int:
        """Id of a rate oracle that no other oracle of the run reuses."""
        serial = self._oracle_ids.get(oracle)
        if serial is None:
            serial = self._oracle_ids[oracle] = self._next_oracle
            self._next_oracle += 1
        return serial

    def open(self, name: str, algorithm: str | None = None, seed: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if algorithm is not None:
            solve = (self.workload, seed, algorithm)
        else:
            solve = self.spans[parent][4] if parent >= 0 else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, solve, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if extra:
            span[5] = extra
        self._stack.pop()

    def wrap(self, fn, name: str, enter=None, leave=None):
        """``fn`` recording one span per call.  ``enter(args)`` runs before
        the call; ``leave(args, result, entered)`` returns the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = enter(args) if enter else None
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, leave(args, result, entered) if leave else None)

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, solve, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve, "extra": extra}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times (ms) and counts of one traced ``mugroup run``."""
    own = self_times(spans)
    out = {metric: 0.0 for metric in SELF_MS}
    by_name = {name: metric for metric, name in SELF_MS.items()}
    counts = dict.fromkeys(COUNT_METRICS, 0)
    rate_compute_ms = 0.0
    rate_compute_calls = 0
    zero_groups = set()
    for span, self_s in zip(spans, own):
        name, extra = span[0], span[5] or {}
        metric = by_name.get(name)
        if metric is not None:
            out[metric] += self_s * 1e3
        if name == "phy.rate":
            counts["phy.rate_queries"] += 1
            if extra.get("computes"):
                counts["phy.rate_computes"] += extra["computes"]
                rate_compute_calls += 1
                rate_compute_ms += self_s * 1e3
            if "zero" in extra:
                zero_groups.add(tuple(extra["zero"]))
        elif name == "phy.precompute":
            counts["phy.rate_computes"] += extra.get("computes", 0)
            counts["phy.precompute_groups"] += extra.get("computes", 0)
        elif name == "channel.pairwise_correlation":
            counts["channel.corr_calls"] += 1
        elif name == "kernels.search_best_partition":
            counts["kernels.partitions"] += extra.get("partitions", 0)
        elif name == "matching.max_weight_matching":
            counts["matching.blossom_edges"] += extra.get("edges", 0)
    counts["phy.zero_rate_groups"] = len(zero_groups)
    out.update(counts)
    out["phy.rate_compute_ms"] = rate_compute_ms
    queries = counts["phy.rate_queries"]
    out["phy.memo_hit_ratio"] = (1.0 - rate_compute_calls / queries) if queries else 0.0
    return out
