"""Command-line entry point.

Subcommands:
    run           execute an experiment sweep from a JSON config, emit CSV
    gen-channels  draw a Rician channel set and write the interchange file
    partitions    print the capped set-partition count for (M, max size)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .bench import ExperimentConfig, Scenario, _json, run_experiment, write_csv
from .channel import CorrelatedRicianSpec, generate_rician, write_channels
from .errors import ConfigurationError, SearchSpaceError
from .grouping import count_partitions, search_refusal


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(Path(args.config))
    rows = run_experiment(cfg)
    out = args.out or cfg.output
    if out:
        write_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        write_csv(rows, sys.stdout)
    if cfg.scenario is Scenario.RUNTIME_SWEEP:
        print("\nruntime relative to random selection (dB):")
        for r in rows:
            if r.skipped:
                print(f"  M={r.m:<4d} {r.algorithm:<12s} skipped ({search_refusal(r.m, r.nu)})")
            elif r.algorithm != "random":
                print(f"  M={r.m:<4d} {r.algorithm:<12s} {r.runtime_db_vs_random:8.2f} dB")
    return 0


def _cmd_gen_channels(args) -> int:
    raw = json.loads(Path(args.spec).read_text())
    if not isinstance(raw, dict):
        raise ConfigurationError("channel spec must be a JSON object")
    try:  # each key the spec holds, read as its field's type; absent ones take its defaults
        spec = CorrelatedRicianSpec(**{
            f.name: _json(raw[f.name], {"int": int, "float": float}[f.type], f.name)
            for f in fields(CorrelatedRicianSpec) if f.name in raw or f.default is MISSING})
    except KeyError as exc:
        raise ConfigurationError(f"channel spec is missing field {exc}") from None
    except ConfigurationError as exc:  # a value of the wrong JSON type, e.g. a list
        raise ConfigurationError(f"invalid channel spec value: {exc}") from None
    channels = generate_rician(spec)
    write_channels(channels, args.out)
    print(f"wrote {spec.num_users}x{spec.num_tx_antennas}x{spec.num_subcarriers} "
          f"channel set to {args.out}")
    return 0


def _cmd_partitions(args) -> int:
    print(count_partitions(args.m, args.max_size))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mugroup",
        description="MU-MIMO user grouping solvers and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", help="override the CSV output path from the config")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-channels", help="write a synthetic channel file")
    p_gen.add_argument("--spec", required=True, help="JSON file with the channel spec")
    p_gen.add_argument("--out", required=True, help="output path (interchange format)")
    p_gen.set_defaults(func=_cmd_gen_channels)

    p_cnt = sub.add_parser("partitions", help="count capped set partitions")
    p_cnt.add_argument("--m", type=int, required=True, help="number of users")
    p_cnt.add_argument("--max-size", type=int, required=True, help="largest group size")
    p_cnt.set_defaults(func=_cmd_partitions)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SearchSpaceError, ValueError) as exc:  # ValueError: config, channels, JSON
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
