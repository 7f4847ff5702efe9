"""Span tracer that rebinds needagent's layer boundaries from outside.

The package is not edited: :meth:`Tracer.install` replaces the names the
callers look up (module globals such as ``harness.decide`` and class
attributes such as ``PingPong.step``) with wrappers, and :meth:`uninstall`
puts the originals back.  Spans are kept in memory as
``[name, start, end, parent]`` lists and written out only when asked.

Self time of a span is its duration minus the durations of its direct
children; in one thread children never overlap, so that is exactly the part
of the interval they cover.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

from workloads import model_size

# (span name, module, attribute path in that module)
TIMED = (
    ("run", "harness", "run"),
    ("decide", "harness", "decide"),
    ("predict_successors", "decision", "predict_successors"),
    ("env_step", "pingpong", "PingPong.step"),
    ("novelty", "harness", "novelty"),
    ("ingest", "model", "LearningDriver.ingest"),
    ("global_feedback", "model", "apply_global_feedback"),
    ("append", "memory", "EpisodeLog.append"),
    ("gc_evidence", "harness", "evidence_by_tick"),
    ("garbage_collect", "harness", "garbage_collect"),
    ("to_tables", "model", "TransitionModel.to_tables"),
    ("rebuild", "harness", "rebuild_from_log"),
    ("tables_equal", "harness", "tables_equal"),
    ("metrics_csv", "harness", "metrics_to_csv"),
    ("dumps", "memory", "dumps_snapshot"),
    ("loads", "memory", "loads_snapshot"),
    ("snapshot_from_run", "harness", "snapshot_from_run"),
    ("verify_snapshot", "harness", "verify_snapshot"),
    ("save_snapshot", "memory", "save_snapshot"),
    ("load_snapshot", "memory", "load_snapshot"),
)
# Called ~13 times a tick; a span each would swamp the trace, so only counted.
COUNTED = (
    ("state_key", "model", "state_key"),
    ("observe", "model", "TransitionModel.observe"),
)


def _resolve(mods, module: str, path: str):
    owner = getattr(mods, module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, mods) -> None:
        self.mods = mods
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts = {name: 0 for name in ("state_key", "observe", "prospects", "explored",
                                            "gc_scanned", "gc_removed")}
        self.model_size = [0, 0, 0]  # summed over models built by run and rebuild

    # ------------------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if name == "predict_successors":
                counts["prospects"] += len(result)
            elif name == "decide":
                counts["explored"] += result.explored
            elif name == "garbage_collect":
                counts["gc_scanned"] += len(args[0])
                counts["gc_removed"] += len(args[0]) - len(result)
            elif name in ("run", "rebuild"):
                model = result.model if name == "run" else result
                for i, n in enumerate(model_size(model)):
                    self.model_size[i] += n
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        self.reset()
        for kind, table in ((self._timed, TIMED), (self._counted, COUNTED)):
            for name, module, path in table:
                owner, attr = _resolve(self.mods, module, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, kind(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")

    # ------------------------------------------------------------------

    def summary(self, ticks: int, job_s: float) -> dict:
        """Per-layer figures for the spans of one traced job."""
        spans = self.spans
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        runs: dict[int, list[float]] = {}  # run span index -> decide start times
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + duration
            if parent >= 0:
                parent_name = spans[parent][0]
                self_time[parent_name] = self_time.get(parent_name, 0.0) - duration
                if name == "decide" and parent_name == "run":
                    runs.setdefault(parent, []).append(start)

        def per_call_us(name: str, table: dict[str, float]) -> float:
            n = calls.get(name, 0)
            return table.get(name, 0.0) / n * 1e6 if n else 0.0

        tick_us: list[float] = []
        setup_us: list[float] = []
        for run_index, starts in runs.items():
            setup_us.append((starts[0] - spans[run_index][1]) * 1e6)
            tick_us.extend((b - a) * 1e6 for a, b in zip(starts, starts[1:]))
        tick_us.sort()

        counts = self.counts
        decides = calls.get("decide", 0)
        gc_s = total.get("gc_evidence", 0.0) + total.get("garbage_collect", 0.0)
        tick_work_s = sum(total.get(n, 0.0) for n in ("decide", "env_step", "ingest"))
        rows, edges, index_size = self.model_size
        return {
            "decision.decide_self_us": per_call_us("decide", self_time),
            "decision.decide_calls": decides,
            "model.predict_successors_us": per_call_us("predict_successors", total),
            "decision.prospects_per_decide": counts["prospects"] / decides if decides else 0.0,
            "decision.explore_frac": counts["explored"] / decides if decides else 0.0,
            "pingpong.step_self_us": per_call_us("env_step", self_time),
            "model.novelty_us": per_call_us("novelty", total),
            "model.ingest_self_us": per_call_us("ingest", self_time),
            "model.global_feedback_us": per_call_us("global_feedback", total),
            "model.observe_calls_per_tick": counts["observe"] / ticks,
            "model.rows": rows,
            "model.edges": edges,
            "model.successor_index_size": index_size,
            "model.to_tables_s": total.get("to_tables", 0.0),
            "model.rebuild_s": total.get("rebuild", 0.0),
            "model.tables_equal_s": total.get("tables_equal", 0.0),
            "core.state_key_calls_per_tick": counts["state_key"] / ticks,
            "memory.append_us": per_call_us("append", total),
            "memory.gc_passes": calls.get("garbage_collect", 0),
            "memory.gc_records_scanned": counts["gc_scanned"],
            "memory.gc_removed_frac": (
                counts["gc_removed"] / counts["gc_scanned"] if counts["gc_scanned"] else 0.0
            ),
            "memory.garbage_collect_s": total.get("garbage_collect", 0.0),
            "memory.dumps_s": total.get("dumps", 0.0),
            "memory.loads_s": total.get("loads", 0.0),
            "harness.gc_evidence_s": total.get("gc_evidence", 0.0),
            "harness.tick_p50_us": _quantile(tick_us, 0.50),
            "harness.tick_p99_us": _quantile(tick_us, 0.99),
            "harness.loop_self_us": self_time.get("run", 0.0) / ticks * 1e6 if runs else 0.0,
            "harness.metrics_csv_s": total.get("metrics_csv", 0.0),
            "harness.run_setup_us": statistics.median(setup_us) if setup_us else 0.0,
            "harness.gc_share": gc_s / job_s,
            "harness.tick_work_share": tick_work_s / job_s,
        }


def run_durations(spans: list[list]) -> list[float]:
    return [end - start for name, start, end, _ in spans if name == "run"]


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0 when empty."""
    if not ordered:
        return 0.0
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))  # ceil(q * n) without float error
    return ordered[min(rank, len(ordered)) - 1]
