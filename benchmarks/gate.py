"""Correctness gate of the benchmark: checks on every solve and on the CSV.

A solve fails when it raised, when its reported objective differs from a
recomputation on a fresh oracle, when a heuristic scores above
``full_search`` on the same channels, or when ``blossom`` or ``gma``
scores below serving every user alone (each group either solver keeps is
worth more than its members served alone, so neither can).  The CSV of the
default seed must equal a golden copy in every column but ``runtime_ms``.

``gma`` scoring below ``blossom`` is reported by ``gma_shortfalls`` and is
not a failure: the merge passes break the weakest groups, pairs from
``blossom`` included, into singletons that may then stay alone, so ``gma``
does not promise to keep the pairing's objective.  It falls short on about
1% of seeds at M=10, Nu=4.
"""

from __future__ import annotations

import csv
import io

# the only column allowed to differ from the golden copy
TIMING_COLUMN = "runtime_ms"
# solvers whose every group is worth more than its members served alone
ABOVE_SINGLES = ("blossom", "gma")
# relative slack for sums of the same rates taken in another order
SUM_TOLERANCE = 1e-9


def solve_failures(solves: list[dict]) -> list[list[str]]:
    """Reasons each solve fails, one list per solve (empty when it passes).

    A solve is a dict with ``algorithm``, ``seed``, ``objective``,
    ``recomputed``, ``error`` (None unless it raised) and, for the
    solvers in ``ABOVE_SINGLES``, ``singles``: the objective of serving
    every user alone.
    """
    by_seed: dict[int, dict[str, float]] = {}
    for s in solves:
        if s["error"] is None:
            by_seed.setdefault(s["seed"], {})[s["algorithm"]] = s["objective"]
    out = []
    for s in solves:
        reasons = []
        if s["error"] is not None:
            reasons.append(f"raised {s['error']}")
        else:
            if s["recomputed"] != s["objective"]:
                reasons.append(f"objective {s['objective']!r} differs from "
                               f"recomputation {s['recomputed']!r}")
            peers = by_seed[s["seed"]]
            opt = peers.get("full_search")
            if opt is not None and s["objective"] > opt:
                reasons.append(f"scores {s['objective']!r} above full_search {opt!r}")
            if (s["algorithm"] in ABOVE_SINGLES
                    and s["objective"] < s["singles"] * (1.0 - SUM_TOLERANCE)):
                reasons.append(f"scores {s['objective']!r} below serving every user "
                               f"alone {s['singles']!r}")
        out.append(reasons)
    return out


def gma_shortfalls(solves: list[dict]) -> list[tuple[int, float, float]]:
    """(seed, gma, blossom) for each seed on which ``gma`` scores below
    ``blossom``."""
    by_seed: dict[int, dict[str, float]] = {}
    for s in solves:
        if s["error"] is None:
            by_seed.setdefault(s["seed"], {})[s["algorithm"]] = s["objective"]
    return [(seed, v["gma"], v["blossom"]) for seed, v in by_seed.items()
            if "gma" in v and "blossom" in v and v["gma"] < v["blossom"]]


def golden_mismatches(csv_text: str, golden_text: str) -> dict[str, list[str]]:
    """Cells that differ from the golden CSV, keyed by algorithm.

    Rows are matched in order; ``runtime_ms`` is ignored.  A difference in
    the header or the row count is reported under the key ``"*"``.
    """
    got = list(csv.DictReader(io.StringIO(csv_text)))
    want = list(csv.DictReader(io.StringIO(golden_text)))
    got_header = csv_text.splitlines()[:1]
    want_header = golden_text.splitlines()[:1]
    if got_header != want_header or len(got) != len(want):
        return {"*": [f"header {got_header} with {len(got)} rows, "
                      f"expected {want_header} with {len(want)} rows"]}
    out: dict[str, list[str]] = {}
    for row, ref in zip(got, want):
        for column, expected in ref.items():
            if column != TIMING_COLUMN and row[column] != expected:
                out.setdefault(ref["algorithm"], []).append(
                    f"{column}={row[column]!r}, golden {expected!r}")
    return out
