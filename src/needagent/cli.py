"""Command line interface.

Usage:
    needagent run --config cfg.json [--seed N] [--out DIR]
    needagent sweep --config cfg.json --profiles profiles.json --seeds 0..19 [--out DIR]
    needagent baseline --config cfg.json [--ticks N] [--seed N]
    needagent replay --snapshot snapshot.json
    needagent plot --metrics metrics.csv --out plot.svg

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 replay
verification failure.  The default output directory is ``--out``, then the
config's ``out_dir``, then ``$NEEDAGENT_OUT``, then the working directory;
it is made only once a command has its files to write.  Every output file
goes through :func:`needagent.memory.write_files`, so no target is replaced
until all of a command's files are written and none of them is a directory.
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
    metrics_to_csv,
    read_metrics,
    run,
    snapshot_from_run,
    sweep,
    sweep_to_csv,
    verify_snapshot,
)
from needagent.memory import SnapshotError, dumps_snapshot, load_snapshot, write_files
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


def _write_outputs(out: str | None, config: RunConfig, texts: dict[str, str], summary: list[str]) -> int:
    """Write each named text into the output directory, then print the summary and a ``wrote`` line per file."""
    out_dir = out or config.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    paths = {os.path.join(out_dir, name): text for name, text in texts.items()}
    write_files(paths)
    print(*summary, *(f"wrote {path}" for path in paths), sep="\n")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    result = run(config)
    texts = {"metrics.csv": metrics_to_csv(result.metrics),
             "snapshot.json": dumps_snapshot(snapshot_from_run(result))}
    return _write_outputs(args.out, config, texts, [
        f"run seed={config.seed} ticks={config.ticks} hits={result.hits} misses={result.misses} "
        f"final_rolling_hit_rate={result.final_rolling_hit_rate:.6f}"])


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config, None)
    profiles = profiles_from_list(_read_json(args.profiles))
    seeds = _parse_seed_range(args.seeds)
    runs, summaries = sweep(config, profiles, seeds)
    texts = dict(zip(("sweep_runs.csv", "sweep_summary.csv"), sweep_to_csv(runs, summaries)))
    return _write_outputs(args.out, config, texts, [
        f"profile={s.profile_label} runs={s.runs} mean_final_hit_rate={s.mean_final_hit_rate:.6f} "
        f"stdev={s.stdev_final_hit_rate:.6f}" for s in summaries])


def _cmd_baseline(args: argparse.Namespace) -> int:
    config = _load_config(args.config, args.seed)
    if args.ticks < 0:
        raise ConfigError(f"--ticks: must be >= 0, got {args.ticks}")
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
