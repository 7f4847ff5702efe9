"""Command line interface.

Usage:
    needagent run --config cfg.json [--seed N] [--out DIR]
    needagent sweep --config cfg.json --profiles profiles.json --seeds 0..19 [--out DIR]
    needagent baseline --config cfg.json [--ticks N] [--seed N]
    needagent replay --snapshot snapshot.json
    needagent plot --metrics metrics.csv --out plot.svg

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 replay
verification failure.  The default output directory is ``--out``, then the
config's ``out_dir``, then ``$NEEDAGENT_OUT``, then the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from needagent.harness import (
    ConfigError,
    RunConfig,
    config_from_dict,
    profiles_from_list,
    read_metrics,
    run,
    snapshot_from_run,
    sweep,
    sweep_to_csv,
    verify_snapshot,
    write_metrics,
)
from needagent.memory import SnapshotError, atomic_writer, load_snapshot, save_snapshot
from needagent.pingpong import random_baseline
from needagent.plot import write_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_VERIFY = 3

OUT_DIR_ENV = "NEEDAGENT_OUT"


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_config(path: str, seed: int | None) -> RunConfig:
    config = config_from_dict(_read_json(path))
    return config if seed is None else replace(config, seed=seed)  # flags beat the file


def _resolve_out_dir(flag_value: str | None, config: RunConfig | None) -> str:
    if flag_value:
        return flag_value
    if config is not None and config.out_dir:
        return config.out_dir
    return os.environ.get(OUT_DIR_ENV) or "."


def _parse_seed_range(text: str) -> list[int]:
    """``a..b`` is the inclusive range; a single integer is a one-run sweep."""
    if ".." in text:
        low_text, _, high_text = text.partition("..")
        try:
            low, high = int(low_text), int(high_text)
        except ValueError as exc:
            raise ConfigError(f"seeds: cannot parse range {text!r}") from exc
        if high < low:
            raise ConfigError(f"seeds: empty range {text!r}")
        return list(range(low, high + 1))
    try:
        return [int(text)]
    except ValueError as exc:
        raise ConfigError(f"seeds: cannot parse {text!r}") from exc


# ----------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    out_dir = _resolve_out_dir(args.out, config)
    os.makedirs(out_dir, exist_ok=True)
    result = run(config)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    snapshot_path = os.path.join(out_dir, "snapshot.json")
    write_metrics(result.metrics, metrics_path)
    save_snapshot(snapshot_from_run(result), snapshot_path)
    last = result.metrics[-1] if result.metrics else None
    hits = last.cumulative_hits if last else 0
    misses = last.cumulative_misses if last else 0
    print(
        f"run seed={config.seed} ticks={config.ticks} hits={hits} misses={misses} "
        f"final_rolling_hit_rate={result.final_rolling_hit_rate:.6f}"
    )
    print(f"wrote {metrics_path}")
    print(f"wrote {snapshot_path}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config, None)
    profiles = profiles_from_list(_read_json(args.profiles))
    seeds = _parse_seed_range(args.seeds)
    out_dir = _resolve_out_dir(args.out, config)
    os.makedirs(out_dir, exist_ok=True)
    runs, summaries = sweep(config, profiles, seeds)
    runs_csv, summary_csv = sweep_to_csv(runs, summaries)
    runs_path = os.path.join(out_dir, "sweep_runs.csv")
    summary_path = os.path.join(out_dir, "sweep_summary.csv")
    for path, text in ((runs_path, runs_csv), (summary_path, summary_csv)):
        with atomic_writer(path) as fh:
            fh.write(text)
    for s in summaries:
        print(
            f"profile={s.profile_label} runs={s.runs} "
            f"mean_final_hit_rate={s.mean_final_hit_rate:.6f} "
            f"stdev={s.stdev_final_hit_rate:.6f}"
        )
    print(f"wrote {runs_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def _cmd_baseline(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    rate = random_baseline(config.board, config.seed, args.ticks)
    if rate is None:
        print("baseline: no events occurred")
    else:
        print(f"baseline hit_rate={rate:.6f} ticks={args.ticks} seed={config.seed}")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    snapshot = load_snapshot(args.snapshot)
    problems = verify_snapshot(snapshot)
    if problems:
        for problem in problems:
            print(f"mismatch: {problem}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verified {args.snapshot}: rebuilt model matches stored tables")
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    write_svg(read_metrics(args.metrics), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="needagent",
        description="Need-driven experiential learning agent harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run")
    p_run.add_argument("--config", required=True, help="run configuration JSON")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a profile x seed grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--profiles", required=True, help="profiles JSON list")
    p_sweep.add_argument("--seeds", required=True, help="inclusive range a..b")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_base = sub.add_parser("baseline", help="random-action hit rate")
    p_base.add_argument("--config", required=True)
    p_base.add_argument("--ticks", type=int, default=100_000)
    p_base.add_argument("--seed", type=int, default=None)
    p_base.set_defaults(func=_cmd_baseline)

    p_replay = sub.add_parser("replay", help="rebuild a snapshot and verify it")
    p_replay.add_argument("--snapshot", required=True)
    p_replay.set_defaults(func=_cmd_replay)

    p_plot = sub.add_parser("plot", help="render metrics to SVG")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
