"""Run harness: configuration, the sense-decide-act-learn loop, metrics, sweeps.

A run is fully determined by its configuration (including the seed): the
environment, exploration and learning all draw from streams derived from it.
Two runs with equal configurations produce byte-identical metrics and
snapshots.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import starmap
from operator import attrgetter
from random import Random
from typing import Iterable, Sequence

from needagent.core import ActionCost, PriorityProfile, SchemaError, StateSchema, energy_spent
from needagent.decision import DecisionPolicy, MODES, decide
from needagent.fields import FieldError, choice, items, number, optional, read, table, valid
from needagent.memory import (
    EpisodeLog,
    HistoryWalk,
    MemorySnapshot,
    SnapshotError,
    TransitionRecord,
    atomic_writer,
    collector_paused,
    garbage_collect,
)
from needagent.model import (
    LearningDriver,
    LearningParams,
    STRATEGIES,
    STRATEGY_TRANSITION_MAP,
    SUCCESSOR_KEYINGS,
    SUCCESSOR_KEYING_STATE,
    TransitionModel,
    novelty,
    rebuild_from_log,
    tables_equal,
)
from needagent.pingpong import BoardConfig, PingPong, build_action_cost, build_schema

ROLLING_WINDOW_EVENTS = 100


class ConfigError(ValueError):
    """A configuration value is missing, unknown or out of range."""


# ======================================================================
# configuration
# ======================================================================


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    ticks: int = 2000
    board: BoardConfig = field(default_factory=BoardConfig)
    profile: PriorityProfile = field(
        default_factory=lambda: PriorityProfile(weights=(1.0, 0.25, 0.1, 0.1))
    )
    strategy: str = STRATEGY_TRANSITION_MAP
    window_size: int = 1
    policy_mode: str = "prospected"
    exploration_rate: float = 0.1
    utility_step: float = 0.1
    predictability_weight: float = 0.0
    successor_keying: str = SUCCESSOR_KEYING_STATE
    gc_horizon: float | None = None
    gc_min_trust: int = 1
    gc_interval: int = 0
    out_dir: str | None = None

    def policy(self) -> DecisionPolicy:
        return DecisionPolicy(mode=self.policy_mode, exploration_rate=self.exploration_rate)

    def learning_params(self) -> LearningParams:
        return LearningParams(
            priority=self.profile,
            utility_step=self.utility_step,
            predictability_weight=self.predictability_weight,
        )


def _float(*bounds, **kwargs):
    """A config number, kept as a float whatever its JSON type."""
    parse = number(float, *bounds, **kwargs)
    return lambda value: float(parse(value))


_WEIGHT_ITEMS = items(_float(0))


def _weights(value) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != 4:
        raise FieldError("expected a list of 4 numbers")
    return tuple(_WEIGHT_ITEMS(value))


# One row per config field: (config-file path, RunConfig attribute, parser).
# A dotted path is a field inside a section object; a dotted attribute is a
# field of a nested record.  Absent fields keep their ``RunConfig()`` value.
_FIELDS = (
    ("seed", "seed", number(int)),
    ("ticks", "ticks", number(int, 0)),
    ("board.width", "board.width", number(int)),
    ("board.height", "board.height", number(int)),
    ("board.racket_width", "board.racket_width", number(int)),
    ("board.feedback_delay", "board.feedback_delay", number(int)),
    ("board.need_levels", "board.need_levels", number(int)),
    ("profile.weights", "profile.weights", _weights),
    ("profile.energy_weight", "profile.energy_weight", _float(0)),
    ("strategy", "strategy", choice(STRATEGIES)),
    ("window_size", "window_size", number(int, 1)),
    ("policy.mode", "policy_mode", choice(MODES)),
    ("policy.exploration_rate", "exploration_rate", _float(0, 1)),
    ("learning.utility_step", "utility_step", _float(0, 1, low_open=True)),
    ("learning.predictability_weight", "predictability_weight", _float(0)),
    ("learning.successor_keying", "successor_keying", choice(SUCCESSOR_KEYINGS)),
    ("gc.horizon", "gc_horizon", optional(_float(0, low_open=True))),
    ("gc.min_trust", "gc_min_trust", number(int, 0)),
    ("gc.interval", "gc_interval", number(int, 0)),
    ("out_dir", "out_dir", optional(valid(lambda v: isinstance(v, str), "expected a string"))),
)
_CONFIG = table(_FIELDS)

# A ``--profiles`` entry: a label, which is a sweep CSV cell, and the config's profile rows.
# :func:`sweep` checks the label, for callers that build the entries themselves.
_LABEL = valid(lambda v: isinstance(v, str) and v and not {",", "\r", "\n"} & set(v),
               "expected a non-empty string without a comma or line break")
_PROFILES = items(table(
    [("label", "label", lambda v: v)]
    + [(path.partition(".")[2], attr.partition(".")[2], parse)
       for path, attr, parse in _FIELDS if path.startswith("profile.")],
    lambda label, **changes: (label, replace(RunConfig().profile, **changes)),
    ("label", "weights"),
))


def _build(defaults, values: dict):
    """``defaults`` with ``values`` replaced; attribute ``a.b`` is field ``b`` of record ``a``."""
    nested: dict[str, dict] = {}
    for attr in [attr for attr in values if "." in attr]:
        outer, _, inner = attr.partition(".")
        nested.setdefault(outer, {})[inner] = values.pop(attr)
    for outer, changes in nested.items():
        values[outer] = replace(getattr(defaults, outer), **changes)
    return replace(defaults, **values)


def profiles_from_list(data) -> list[tuple[str, PriorityProfile]]:
    """Validate a ``--profiles`` file: a list of labelled priority profiles."""
    return read(_PROFILES, data, ConfigError, "profiles")


def config_from_dict(data: dict) -> RunConfig:
    """Validate and build a run configuration; defaults fill absent fields.

    Raises :class:`ConfigError` naming the offending field.
    """
    try:
        return _build(RunConfig(), read(_CONFIG, data, ConfigError))
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: RunConfig) -> dict:
    """Every field of ``config``, shaped like a config file."""
    out: dict = {}
    for path, attr, _ in _FIELDS:
        section, _, key = path.rpartition(".")
        value = attrgetter(attr)(config)
        if isinstance(value, tuple):
            value = list(value)
        (out.setdefault(section, {}) if section else out)[key] = value
    return out


def config_fingerprint(config: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def derive_seed(seed: int, stream: str) -> int:
    """Independent deterministic seed for a named random stream."""
    digest = hashlib.sha256(f"{stream}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# ======================================================================
# run loop
# ======================================================================


@dataclass(frozen=True, slots=True)
class MetricsRow:
    tick: int
    happy: float
    sad: float
    novelty: float
    expectedness: float
    feedback: float
    cumulative_hits: int
    cumulative_misses: int
    rolling_hit_rate: float
    explored: bool
    energy: float


@dataclass
class RunResult:
    config: RunConfig
    schema: StateSchema
    log: EpisodeLog
    model: TransitionModel
    metrics: list[MetricsRow]

    @property
    def final_rolling_hit_rate(self) -> float:
        return self.metrics[-1].rolling_hit_rate if self.metrics else 0.0


def run(config: RunConfig) -> RunResult:
    """Execute one seeded episode: sense, decide, act, learn, repeat."""
    env = PingPong(config.board)
    state = env.reset(derive_seed(config.seed, "env"))
    rng = Random(derive_seed(config.seed, "agent"))
    schema = env.schema()
    constraints = env.constraints()
    policy = config.policy()
    params = config.learning_params()
    model = TransitionModel(
        window_size=config.window_size, successor_keying=config.successor_keying
    )
    driver = LearningDriver(model, params, config.strategy)
    log = EpisodeLog()
    window = driver.window.push(state)  # after each ingest, the driver's ends in the new state
    novelty_of = partial(novelty, model)

    metrics: list[MetricsRow] = []
    cumulative_hits = 0
    cumulative_misses = 0
    recent_events: deque[int] = deque(maxlen=ROLLING_WINDOW_EVENTS)
    rolling = 0.0
    trusted_below = 0  # GC frontier: every record before this tick is trusted for good

    for tick in range(config.ticks):
        decision = decide(model, window, constraints, policy, rng)
        outcome = env.step(
            decision.chosen_action,
            predicted=decision.expected_state,
            novelty=novelty_of,
        )
        record = TransitionRecord(
            tick=tick,
            state=state,
            chosen_action=decision.chosen_action,
            predicted_next=decision.expected_state,
            reinforcement_observed=outcome.feedback,
            energy=outcome.energy,
            next_state=outcome.state,
        )
        log.append(record)
        driver.ingest(record)

        if outcome.feedback > 0:
            cumulative_hits += 1
            recent_events.append(1)
        elif outcome.feedback < 0:
            cumulative_misses += 1
            recent_events.append(0)
        if recent_events:
            rolling = sum(recent_events) / len(recent_events)
        # The four need levels are the happy, sad, novelty and expectedness columns.
        metrics.append(MetricsRow(tick + 1, *outcome.state.needs, outcome.feedback, cumulative_hits,
                                  cumulative_misses, rolling, decision.explored, outcome.energy))

        state = outcome.state
        window = driver.window
        if (
            config.gc_horizon is not None
            and config.gc_interval > 0
            and (tick + 1) % config.gc_interval == 0
        ):
            log, trusted_below = run_garbage_collection(log, model, config, trusted_below)

    return RunResult(config=config, schema=schema, log=log, model=model, metrics=metrics)


def evidence_by_tick(records: Iterable[TransitionRecord], model: TransitionModel) -> dict[int, int]:
    """Model evidence for each record's transition, keyed by tick.

    Windows follow the :class:`HistoryWalk` learning follows, so the lookup
    matches what the tables actually hold.  The first ``window_size - 1``
    counts of a slice that starts mid-log see truncated windows.
    """
    counts: dict[int, int] = {}
    walk = HistoryWalk(model.window_size)
    for rec in records:
        walk.advance(rec)
        counts[rec.tick] = model.transition_evidence(walk.learned, rec.next_state)
    return counts


def run_garbage_collection(
    log: EpisodeLog, model: TransitionModel, config: RunConfig, trusted_below: int
) -> tuple[EpisodeLog, int]:
    """One GC pass; returns the collected log and the next ``trusted_below``.

    A record whose evidence reaches ``gc.min_trust`` stays trusted for as
    long as its history window does: evidence only grows, and the window
    changes only when one of its ``window_size - 1`` predecessors is removed.
    So every record before the first untrusted one is trusted for good, and
    records with a tick below ``trusted_below`` (which an earlier pass
    proved so) are not looked up again.  A lead-in of ``window_size - 1``
    records rebuilds the windows of the first ones that are.
    """
    records = log.records
    start = bisect_left(records, trusted_below, key=attrgetter("tick"))
    counts = evidence_by_tick(records[max(0, start - model.window_size + 1):], model)
    untrusted = (rec.tick for rec in records[start:] if counts[rec.tick] < config.gc_min_trust)
    frontier = next(untrusted, records[-1].tick + 1 if records else trusted_below)
    horizon = math.inf if config.gc_horizon is None else config.gc_horizon
    collected = garbage_collect(
        log,
        retention_horizon=horizon,
        min_trust=config.gc_min_trust,
        evidence=lambda rec: counts[rec.tick],
        trusted_below=trusted_below,
    )
    return collected, frontier


# ======================================================================
# persistence and verification
# ======================================================================


@collector_paused()
def snapshot_from_run(result: RunResult) -> MemorySnapshot:
    return MemorySnapshot(
        schema=result.schema,
        log=result.log,
        model_tables=result.model.to_tables(),
        config=config_to_dict(result.config),
        config_fingerprint=config_fingerprint(result.config),
    )


def _log_problems(log: Iterable[TransitionRecord], cost: ActionCost) -> list[str]:
    """The first break, named ``log[i].<field>``, of an invariant every run's log keeps."""
    last = None  # the previous record's next_state
    for i, rec in enumerate(log):
        if rec.state.tick != rec.tick:
            return [f"log[{i}].state.tick: {rec.state.tick} is not the record's tick {rec.tick}"]
        if rec.next_state.tick != rec.tick + 1:
            return [f"log[{i}].next_state.tick: {rec.next_state.tick} is not the record's tick + 1"]
        if rec.next_state.actions != rec.chosen_action:
            return [f"log[{i}].chosen_action: differs from next_state.actions"]
        if rec.energy != energy_spent(rec.chosen_action, cost):
            return [f"log[{i}].energy: {rec.energy!r} is not the cost of chosen_action"]
        # Where ticks are contiguous; ``is`` first, as a loaded log shares the state.
        if last is not None and last.tick == rec.tick and rec.state is not last and rec.state != last:
            return [f"log[{i}].state: differs from log[{i - 1}].next_state"]
        last = rec.next_state
    return []


@collector_paused()
def verify_snapshot(snapshot: MemorySnapshot) -> list[str]:
    """Check the log's own invariants, replay it and diff the rebuilt model
    against the stored tables.  Returns human-readable problems; empty means
    verified.  An invalid embedded config is a :class:`SnapshotError` naming
    ``config.<field>``.  A schema other than the embedded board's is reported
    without a replay, which could not learn from states of another shape."""
    problems: list[str] = []
    try:
        config = config_from_dict(snapshot.config)
    except ConfigError as exc:
        raise SnapshotError(f"config.{exc}") from exc
    if config_fingerprint(config) != snapshot.config_fingerprint:
        problems.append("config_fingerprint does not match the embedded config")
    if snapshot.schema != build_schema(config.board):
        return problems + ["schema does not match the board of the embedded config"]
    problems += _log_problems(snapshot.log, build_action_cost(snapshot.schema))
    rebuilt = rebuild_from_log(snapshot.log, config.learning_params(), strategy=config.strategy,
                               window_size=config.window_size, successor_keying=config.successor_keying)
    return problems + tables_equal(snapshot.model_tables, rebuilt.to_tables())


# ======================================================================
# metrics serialization
# ======================================================================

CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))
_FINITE = number(float)
# Format and parser of a cell by its field's declared type (text, as annotations
# are postponed).  A cell is read only if its value formats back to that text.
_FORMATS = {"float": "{:.6f}", "bool": "{:d}"}  # any other type is "{}"
_PARSERS = {"int": int, "float": lambda cell: _FINITE(float(cell)), "bool": lambda cell: int(cell) == 1}


def _to_csv(rows: Sequence, row_type: type, header: str | None = None) -> str:
    """A header, then one line of ``row_type``'s fields per row; LF line endings."""
    names = [f.name for f in fields(row_type)]
    template = ",".join(_FORMATS.get(f.type, "{}") for f in fields(row_type))
    lines = starmap(template.format, map(attrgetter(*names), rows))
    return "\n".join([header or ",".join(names), *lines]) + "\n"


def metrics_to_csv(rows: Sequence[MetricsRow]) -> str:
    """Fixed six-decimal floats, integer counters, LF line endings."""
    return _to_csv(rows, MetricsRow)


_METRICS_CELLS = [(f.name, _FORMATS.get(f.type, "{}"), _PARSERS[f.type]) for f in fields(MetricsRow)]


def metrics_from_csv(text: str) -> list[MetricsRow]:
    """Rows whose every cell is the text :func:`metrics_to_csv` writes for its value."""
    lines = text.split("\n")
    if lines[0] != ",".join(CSV_COLUMNS):
        raise ConfigError("metrics csv: unexpected header")
    if lines[-1]:
        raise ConfigError(f"metrics csv line {len(lines)}: missing the final line ending")
    rows = []
    for line_no, line in enumerate(lines[1:-1], 2):
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ConfigError(f"metrics csv line {line_no}: {len(cells)} of {len(CSV_COLUMNS)} cells")
        values = []
        for (column, form, parse), cell in zip(_METRICS_CELLS, cells):
            try:
                if form.format(value := parse(cell)) != cell:
                    raise ValueError
            except ValueError:
                raise ConfigError(f"metrics csv line {line_no}, {column}: bad value {cell!r}") from None
            values.append(value)
        rows.append(MetricsRow(*values))
    return rows


@collector_paused()
def write_metrics(rows: Sequence[MetricsRow], path: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(metrics_to_csv(rows))


def read_metrics(path: str) -> list[MetricsRow]:
    with open(path, "r", encoding="utf-8") as fh:
        return metrics_from_csv(fh.read())


# ======================================================================
# sweeps
# ======================================================================


@dataclass(frozen=True)
class SweepRun:
    profile_label: str
    seed: int
    final_rolling_hit_rate: float
    hits: int
    misses: int


@dataclass(frozen=True)
class SweepSummary:
    profile_label: str
    runs: int
    mean_final_hit_rate: float
    stdev_final_hit_rate: float


def sweep(
    config: RunConfig,
    profiles: Sequence[tuple[str, PriorityProfile]],
    seeds: Sequence[int],
) -> tuple[list[SweepRun], list[SweepSummary]]:
    """Run every profile x seed combination.

    Aggregates are computed from the collected results per profile, so they
    do not depend on execution order; rows come back ordered by profile then
    seed.
    """
    if not profiles:
        raise ConfigError("profiles: expected at least one profile")
    if not seeds:
        raise ConfigError("seeds: expected at least one seed")
    labels = [read(_LABEL, label, ConfigError, f"profiles[{i}].label")
              for i, (label, _) in enumerate(profiles)]
    if len(set(labels)) != len(labels):
        raise ConfigError("profiles: labels must be unique")
    runs: list[SweepRun] = []
    for label, profile in profiles:
        for seed in sorted(seeds):
            variant = replace(config, seed=seed, profile=profile)
            result = run(variant)
            last = result.metrics[-1] if result.metrics else None
            runs.append(
                SweepRun(
                    profile_label=label,
                    seed=seed,
                    final_rolling_hit_rate=result.final_rolling_hit_rate,
                    hits=last.cumulative_hits if last else 0,
                    misses=last.cumulative_misses if last else 0,
                )
            )
    summaries = []
    for label, _ in profiles:
        rates = [r.final_rolling_hit_rate for r in runs if r.profile_label == label]
        summaries.append(
            SweepSummary(
                profile_label=label,
                runs=len(rates),
                mean_final_hit_rate=statistics.mean(rates),
                stdev_final_hit_rate=statistics.stdev(rates) if len(rates) > 1 else 0.0,
            )
        )
    return runs, summaries


def sweep_to_csv(runs: Sequence[SweepRun], summaries: Sequence[SweepSummary]) -> tuple[str, str]:
    return (_to_csv(runs, SweepRun, "profile,seed,final_rolling_hit_rate,hits,misses"),
            _to_csv(summaries, SweepSummary, "profile,runs,mean_final_hit_rate,stdev_final_hit_rate"))
