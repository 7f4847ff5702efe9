"""needagent benchmark: four batch workloads timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tick-loop --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload gc-churn --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --workload snapshot-roundtrip --smoke

One process, one job at a time (a closed loop).  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs plain and traced jobs
alternately and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, run_durations  # noqa: E402

LAYERS = ("core", "memory", "model", "decision", "pingpong", "harness")
MIN_JOBS = 3
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0  # keep repeating cheap set-ups until this much time is spent
REFERENCE_ITERATIONS = 600000  # about 35 ms per loop on a 2-core Xeon VM
CRITERION1_SEED0 = {"asym": "0.4125", "sym": "0.3505"}  # the README's acceptance figures
EXACT_COUNTERS = (
    "model.rows",
    "model.edges",
    "model.successor_index_size",
    "model.observe_calls_per_tick",
    "core.state_key_calls_per_tick",
    "decision.explore_frac",
    "decision.prospects_per_decide",
    "memory.gc_removed_frac",
)


class Checks:
    """Correctness checks attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def import_fresh(src: str):
    """Import needagent's layers from ``src`` anew, dropping any cached copy."""
    for name in [m for m in sys.modules if m == "needagent" or m.startswith("needagent.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{n: importlib.import_module(f"needagent.{n}") for n in LAYERS})
    if not os.path.abspath(mods.harness.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"needagent was imported from {mods.harness.__file__}, not {src}")
    return mods


def run_job(mods, workload, state, index: int) -> tuple[dict[str, float], dict]:
    times, results = {}, {}
    for phase, call in workload.phases(mods, state, index):
        start = perf_counter()
        results[phase] = call()
        times[phase] = perf_counter() - start
    return times, results


def context(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for line in fh if line.strip())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "src_nonblank_lines": src_lines,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def reference_s() -> float:
    """Wall time of a fixed integer loop: the yardstick for machine speed.

    On a shared host the machine runs fast or slow for stretches of tens of
    seconds.  Over such stretches this loop slows by about the same factor as
    needagent's own code (more closely than loops of dict and string work),
    so a job's time divided by it cancels most of the machine's state and
    keeps the program's cost.  Median of three, to damp short jitter.
    """
    samples = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            total += i & 7
        samples.append(perf_counter() - start)
    return statistics.median(samples)


@dataclass
class Sample:
    """One job: phase times in seconds and in reference units, and its checks."""

    times: dict[str, float]
    norms: dict[str, float]
    job: workloads.Job
    layers: dict | None  # per-layer figures, when the job was traced
    runs: list[float]  # durations of the harness.run calls, when traced


def measure(args, mods, workload, state, checks: Checks, golden: dict | None, tracer=None) -> list[Sample]:
    """Run jobs one after another for ``args.seconds``, checking each one.

    With a tracer, plain and traced jobs alternate on the same input, plain
    first.  A reference loop runs between jobs; each job's time is divided by
    the mean of the two around it.
    """
    samples: list[Sample] = []
    refs = [reference_s()]
    firsts: dict[str, dict] = {}  # job key -> outputs of its first job
    rates: dict[str, dict] = {}  # job key -> sweep hit rates of its first job
    # Every input once and the first one twice, so that two jobs on one input
    # can be compared; a traced run pairs each plain job with a traced one.
    min_jobs = max(MIN_JOBS, workload.blocks + 1) if tracer is None else 2 * (workload.blocks + 1)
    deadline = perf_counter() + args.seconds
    while len(samples) < min_jobs or perf_counter() < deadline:
        traced_job = tracer is not None and len(samples) % 2 == 1
        index = len(samples) // 2 if tracer is not None else len(samples)
        if traced_job:
            tracer.install()
        try:
            times, results = run_job(mods, workload, state, index)
        finally:
            if traced_job:
                tracer.uninstall()
        refs.append(reference_s())
        yardstick = (refs[-2] + refs[-1]) / 2
        job = workload.check(mods, state, index, results, workload.verify_once and not samples)
        label = f"job {len(samples) + 1} ({job.key}{', traced' if traced_job else ''})"
        if job.key not in firsts:
            firsts[job.key] = job.outputs
            rates[job.key] = job.rates
            if golden is not None:
                checks.expect(job.outputs == golden[job.key], f"{label}: outputs differ from the golden hashes")
        checks.expect(job.outputs == firsts[job.key], f"{label}: outputs differ from the first job on this input")
        checks.expect(not job.problems, f"{label}: verify_snapshot found {job.problems[:3]}")
        layers = tracer.summary(job.ticks, sum(times.values())) if traced_job else None
        runs = run_durations(tracer.spans) if traced_job else []
        samples.append(Sample(times, {p: t / yardstick for p, t in times.items()}, job, layers, runs))

    if golden is not None and workload.name == "criterion1-sweep":
        pooled: dict[str, list[float]] = {}
        for block in rates.values():
            for label, values in block.items():
                pooled.setdefault(label, []).extend(values)
        found = {label: f"{statistics.mean(values):.4f}" for label, values in pooled.items()}
        checks.expect(found == CRITERION1_SEED0, f"criterion 1 summary {found}")
    return samples


def median(samples: list[Sample], field: str, phase: str | None = None) -> float:
    return statistics.median(
        getattr(s, field)[phase] if phase else sum(getattr(s, field).values()) for s in samples
    )


def per_input(samples: list[Sample], field: str, phase: str | None = None) -> float:
    """The median job on each input, summed over the inputs.

    Sweep blocks differ in work, so a median across blocks would depend on
    which blocks a run happened to repeat; the sum is the whole grid.
    """
    groups: dict[str, list[Sample]] = {}
    for s in samples:
        groups.setdefault(s.job.key, []).append(s)
    return sum(median(group, field, phase) for group in groups.values())


def plain(args, mods, workload, state, checks: Checks, golden: dict | None) -> dict:
    samples = measure(args, mods, workload, state, checks, golden)
    ticks = sum({s.job.key: s.job.ticks for s in samples}.values())
    rate_phase = "read" if workload.name == "snapshot-roundtrip" else None
    metrics = {
        "job_ref": per_input(samples, "norms"),
        "ticks_per_ref": ticks / per_input(samples, "norms", rate_phase),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "jobs": (len(samples), "count"),
        "job_s": (per_input(samples, "times"), "s"),
        "ticks_per_s": (ticks / per_input(samples, "times", rate_phase), "ticks/s"),
    }
    # Workload-specific names for the same figures, where they apply.
    if workload.name == "criterion1-sweep":
        info["sweep_s"] = info["job_s"]
    elif workload.name == "snapshot-roundtrip":
        info["dump_s"] = (per_input(samples, "times", "write"), "s")
        info["replay_s"] = (per_input(samples, "times", "read"), "s")
        info["snapshot_bytes"] = (samples[-1].job.size, "bytes")
    return {"metrics": metrics, "info": info}


def traced(args, mods, workload, state, checks: Checks, golden: dict | None, out_dir: str) -> dict:
    tracer = Tracer(mods)
    samples = measure(args, mods, workload, state, checks, golden, tracer)
    traced_samples = [s for s in samples if s.layers]
    for name in EXACT_COUNTERS:
        by_key: dict[str, set] = {}
        for s in traced_samples:
            by_key.setdefault(s.job.key, set()).add(s.layers[name])
        checks.expect(all(len(v) == 1 for v in by_key.values()), f"{name} differs between traced jobs: {by_key}")
    tracer.write(os.path.join(out_dir, f"trace-{workload.name}-{args.seed}.jsonl"))

    layers = [s.layers for s in traced_samples]
    metrics = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
    # Per-run times pooled over the traced jobs; sweeps only.
    runs = sorted(t for s in traced_samples for t in s.runs)
    many = len(traced_samples[0].runs) > 1
    metrics["harness.sweep_run_p50_s"] = statistics.median(runs) if many else 0.0
    # The highest percentile with at least ten runs beyond it.
    metrics["harness.sweep_run_tail_s"] = runs[max(0, len(runs) - 11)] if many else 0.0
    traced_ref = per_input(traced_samples, "norms")
    plain_ref = per_input([s for s in samples if not s.layers], "norms")
    metrics["trace.overhead_frac"] = traced_ref / plain_ref - 1
    return {"metrics": metrics, "info": {"jobs": (len(samples), "count"), "traced_runs": (len(runs), "count")}}


def metric_units(root: str) -> dict[str, str]:
    """Every metric's unit, as BENCHMARK.json declares it."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no golden hashes")
    args = parser.parse_args(argv)
    args.root = os.path.dirname(HERE)
    src = os.path.join(args.root, "src")
    if not os.path.isfile(os.path.join(src, "needagent", "harness.py")):
        print(f"perfbench: no needagent sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        table = workloads.build(work_dir)
        if args.workload not in table:
            parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(table)}")
        workload = table[args.workload]
        size = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[workload.name]
        golden = None
        if args.seed == 0 and not args.smoke:
            with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
                golden = json.load(fh)[workload.name]

        # Set up several times and report the median; the traced run needs one.
        setups: list[float] = []
        while True:
            start = perf_counter()
            mods = import_fresh(src)
            state = workload.setup(mods, args.seed, size)
            setups.append(perf_counter() - start)
            if args.trace or (len(setups) >= MIN_SETUPS and sum(setups) >= SETUP_BUDGET_S):
                break
        checks = Checks()
        if args.trace:
            report = traced(args, mods, workload, state, checks, golden, out_dir)
        else:
            report = plain(args, mods, workload, state, checks, golden)
            report["metrics"] = {"setup_s": statistics.median(setups), **report["metrics"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("context " + json.dumps(context(args.root), sort_keys=True))
    for failure in checks.failures:
        print(f"FAILED {failure}")
    units = metric_units(args.root)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in report["metrics"].items()}
    rows = dict(report["info"])
    rows.update((name, (m["value"], m["unit"])) for name, m in metrics.items())
    rows["failed_frac"] = (len(checks.failures) / checks.attempted, "ratio")
    for name, (value, unit) in rows.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
