"""The four benchmark workloads.

Each workload is a batch job a user runs with the ``needagent`` CLI, built
from the package's public functions.  ``setup`` makes the inputs from the
seed (and, for ``snapshot-roundtrip``, the run whose outputs are timed);
``phases`` are the timed calls of one job, in order; ``outputs`` turns a job's
results into the bytes the CLI would write, for the golden and determinism
checks, outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

ASYM_WEIGHTS = (1.0, 0.25, 0.1, 0.1)
SYM_WEIGHTS = (1.0, 1.0, 0.1, 0.1)
SWEEP_SEEDS = 20
SWEEP_BLOCKS = 4

# Full sizes, and the tiny ones smoke mode uses.
SIZES = {
    "tick-loop": {"ticks": 20000},
    "gc-churn": {"ticks": 13000},
    "criterion1-sweep": {"ticks": 2000, "seeds": SWEEP_SEEDS},
    "snapshot-roundtrip": {"ticks": 20000},
}
SMOKE_SIZES = {
    "tick-loop": {"ticks": 300},
    "gc-churn": {"ticks": 600},
    "criterion1-sweep": {"ticks": 150, "seeds": 4},
    "snapshot-roundtrip": {"ticks": 300},
}

GC_CONFIG = {"horizon": 200, "interval": 100, "min_trust": 40}
GOLDEN_CONFIG = {"window_size": 3, "board": {"feedback_delay": 2}}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_size(model) -> tuple[int, int, int]:
    """History rows, (history, successor) edges and successor-index entries."""
    return (
        len(model.evidence),
        sum(len(row) for row in model.evidence.values()),
        sum(len(row) for row in model.successor_states.values()),
    )


@dataclass
class Job:
    """What one untimed check needs from a finished job."""

    outputs: dict[str, str]  # file name -> sha256 of the bytes the CLI writes
    problems: list[str]  # verify_snapshot findings; always empty when not verified
    ticks: int  # ticks simulated or log records replayed
    size: int = 0  # bytes of the snapshot file written, when one is
    key: str = "job"  # jobs with equal keys had equal inputs
    rates: dict[str, list[float]] | None = None  # final hit rates by profile, for sweeps


class RunWorkload:
    """One ``needagent run``: the sense-decide-act-learn loop, no files."""

    verify_once = True  # replay-verify the first job's snapshot
    blocks = 1

    def __init__(self, name: str, config: dict) -> None:
        self.name = name
        self.config = config

    def setup(self, mods, seed: int, size: dict):
        return mods.harness.config_from_dict({**self.config, "seed": seed, "ticks": size["ticks"]})

    def phases(self, mods, config, index: int) -> list[tuple[str, Callable]]:
        return [("run", lambda: mods.harness.run(config))]

    def check(self, mods, config, index: int, results: dict, verify: bool) -> Job:
        result = results["run"]
        snapshot = mods.harness.snapshot_from_run(result)
        outputs = {
            "metrics.csv": sha256(mods.harness.metrics_to_csv(result.metrics)),
            "snapshot.json": sha256(mods.memory.dumps_snapshot(snapshot)),
        }
        problems = mods.harness.verify_snapshot(snapshot) if verify else []
        return Job(outputs, problems, config.ticks)


class GcWorkload(RunWorkload):
    # A collected log no longer rebuilds the live model, so replay-verify
    # reports differences by design; determinism and golden bytes still hold.
    verify_once = False


class SweepWorkload:
    """``needagent sweep`` over the criterion-1 grid: 2 profiles x 20 seeds.

    The grid is cut into blocks of seeds and one job sweeps one block, so a
    run times many short jobs instead of a few long ones; consecutive jobs
    cycle through the blocks and every block repeats.
    """

    name = "criterion1-sweep"
    verify_once = False
    blocks = SWEEP_BLOCKS

    def setup(self, mods, seed: int, size: dict):
        config = mods.harness.config_from_dict({"ticks": size["ticks"]})
        profiles = [
            ("asym", mods.core.PriorityProfile(weights=ASYM_WEIGHTS)),
            ("sym", mods.core.PriorityProfile(weights=SYM_WEIGHTS)),
        ]
        seeds = list(range(seed * size["seeds"], (seed + 1) * size["seeds"]))
        step = -(-len(seeds) // self.blocks)
        return config, profiles, [seeds[i : i + step] for i in range(0, len(seeds), step)]

    def phases(self, mods, state, index: int) -> list[tuple[str, Callable]]:
        config, profiles, blocks = state
        seeds = blocks[index % len(blocks)]
        return [("sweep", lambda: mods.harness.sweep(config, profiles, seeds))]

    def check(self, mods, state, index: int, results: dict, verify: bool) -> Job:
        config, profiles, blocks = state
        runs, summaries = results["sweep"]
        runs_csv, summary_csv = mods.harness.sweep_to_csv(runs, summaries)
        outputs = {"sweep_runs.csv": sha256(runs_csv), "sweep_summary.csv": sha256(summary_csv)}
        ticks = config.ticks * len(profiles) * len(blocks[index % len(blocks)])
        rates = {}
        for r in runs:
            rates.setdefault(r.profile_label, []).append(r.final_rolling_hit_rate)
        return Job(outputs, [], ticks, key=f"block{index % len(blocks)}", rates=rates)


class RoundtripWorkload:
    """``needagent run`` writing its outputs, then ``needagent replay``.

    Set-up runs the golden config once; a job writes ``metrics.csv`` and
    ``snapshot.json`` to a fresh directory and reads the snapshot back with
    load plus replay-verify.  No decision or environment work is timed.
    """

    name = "snapshot-roundtrip"
    verify_once = False  # every job verifies as part of its read phase
    blocks = 1

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir

    def setup(self, mods, seed: int, size: dict):
        config = mods.harness.config_from_dict(
            {**GOLDEN_CONFIG, "seed": seed, "ticks": size["ticks"]}
        )
        return mods.harness.run(config)

    def phases(self, mods, result, index: int) -> list[tuple[str, Callable]]:
        out = tempfile.mkdtemp(prefix="roundtrip-", dir=self.work_dir)
        metrics_path = os.path.join(out, "metrics.csv")
        snapshot_path = os.path.join(out, "snapshot.json")

        def write():
            mods.harness.write_metrics(result.metrics, metrics_path)
            mods.memory.save_snapshot(mods.harness.snapshot_from_run(result), snapshot_path)
            return out

        def read():
            snapshot = mods.memory.load_snapshot(snapshot_path)
            return mods.harness.verify_snapshot(snapshot), len(snapshot.log)

        return [("write", write), ("read", read)]

    def check(self, mods, result, index: int, results: dict, verify: bool) -> Job:
        out = results["write"]
        problems, replayed = results["read"]
        outputs = {}
        try:
            for name in ("metrics.csv", "snapshot.json"):
                with open(os.path.join(out, name), "rb") as fh:
                    outputs[name] = hashlib.sha256(fh.read()).hexdigest()
            size = os.path.getsize(os.path.join(out, "snapshot.json"))
        finally:
            shutil.rmtree(out)
        return Job(outputs, problems, replayed, size)


def build(work_dir: str) -> dict:
    return {
        "tick-loop": RunWorkload("tick-loop", {}),
        "gc-churn": GcWorkload("gc-churn", {"gc": GC_CONFIG}),
        "criterion1-sweep": SweepWorkload(),
        "snapshot-roundtrip": RoundtripWorkload(work_dir),
    }
