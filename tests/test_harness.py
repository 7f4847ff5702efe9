"""Run loop, configuration codec, metrics CSV, snapshots and sweeps."""

from __future__ import annotations

import dataclasses
import json
import os
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needagent.harness import (
    CSV_COLUMNS,
    ConfigError,
    MetricsRow,
    RunConfig,
    RunResult,
    SweepRun,
    SweepSummary,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    derive_seed,
    evidence_by_tick,
    metrics_from_csv,
    metrics_to_csv,
    read_metrics,
    run,
    run_garbage_collection,
    snapshot_from_run,
    sweep,
    sweep_to_csv,
    verify_snapshot,
    write_metrics,
)
from needagent.core import PriorityProfile
from needagent import harness
from needagent.memory import SnapshotError, TransitionRecord, dumps_snapshot, loads_snapshot
from needagent.model import STRATEGIES, STRATEGY_SEGMENT, SUCCESSOR_KEYINGS
from needagent.pingpong import EnvStep, PingPong


# ----------------------------------------------------------------------
# configuration codec
# ----------------------------------------------------------------------


def test_empty_dict_yields_the_default_config():
    assert config_from_dict({}) == RunConfig()


def test_config_round_trips_through_its_dict_form():
    custom = RunConfig(
        seed=9,
        ticks=123,
        profile=PriorityProfile(weights=(1.0, 1.0, 0.2, 0.3), energy_weight=0.1),
        strategy=STRATEGY_SEGMENT,
        window_size=2,
        policy_mode="lexicographic",
        exploration_rate=0.25,
        utility_step=0.5,
        predictability_weight=0.2,
        successor_keying="action",
        gc_horizon=500.0,
        gc_min_trust=2,
        gc_interval=100,
        out_dir="somewhere",
    )
    for config in (RunConfig(), custom):
        assert config_from_dict(config_to_dict(config)) == config


def test_every_config_field_has_exactly_one_row():
    # A field without a row would drop out of config_to_dict and the fingerprint, unvalidated and unnoticed.
    attrs = []
    for outer in dataclasses.fields(RunConfig):
        default = getattr(RunConfig(), outer.name)
        if dataclasses.is_dataclass(default):
            attrs += [f"{outer.name}.{inner.name}" for inner in dataclasses.fields(default)]
        else:
            attrs.append(outer.name)
    assert sorted(attr for _, attr, _ in harness._FIELDS) == sorted(attrs)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"bogus": 1}, "bogus"),
        ({"seed": "x"}, "seed"),
        ({"ticks": -1}, "ticks"),
        ({"ticks": 1.5}, "ticks"),
        ({"board": {"depth": 3}}, "board.depth"),
        ({"board": {"width": 1}}, "width"),
        ({"profile": {"weights": [1.0, 0.5]}}, "profile.weights"),
        ({"profile": {"weights": [1.0, 0.5, 0.1, "x"]}}, "profile.weights[3]"),
        ({"profile": {"weights": [1.0, 0.5, 0.1, -0.1]}}, "profile.weights[3]"),
        ({"profile": {"energy_weight": -1}}, "profile.energy_weight"),
        ({"strategy": "bogus"}, "strategy"),
        ({"window_size": 0}, "window_size"),
        ({"policy": {"mode": "bogus"}}, "policy.mode"),
        ({"policy": {"exploration_rate": 1.5}}, "policy.exploration_rate"),
        ({"learning": {"utility_step": 0}}, "learning.utility_step"),
        ({"learning": {"successor_keying": "bogus"}}, "learning.successor_keying"),
        ({"gc": {"horizon": -1}}, "gc.horizon"),
        ({"gc": {"min_trust": -1}}, "gc.min_trust"),
        ({"gc": {"interval": -2}}, "gc.interval"),
        ({"out_dir": 7}, "out_dir"),
        ({"learning": {"predictability_weight": 1e999}}, "learning.predictability_weight"),
        ({"learning": {"predictability_weight": -1e999}}, "learning.predictability_weight"),
        ({"profile": {"weights": [1.0, 0.5, 0.1, 1e999]}}, "profile.weights[3]"),
        ({"profile": {"weights": [-1e999, 0.5, 0.1, 0.1]}}, "profile.weights[0]"),
        ({"profile": {"energy_weight": float("nan")}}, "profile.energy_weight"),
        ({"gc": {"horizon": 0}}, "gc.horizon"),
        ({"board": {"height": 1}}, "board.height"),
        ({"board": {"racket_width": 0}}, "board.racket_width"),
        ({"board": {"racket_width": 7}}, "board.racket_width"),
        ({"board": {"feedback_delay": -1}}, "board.feedback_delay"),
        ({"board": {"need_levels": 0}}, "board.need_levels"),
    ],
)
def test_config_errors_name_the_offending_field(data, field):
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert field in str(err.value)


# (config field, snapshot field path, its name in messages) of each kind.
_NUMBER_FIELDS = ("profile.energy_weight", ("log", 1, "energy"), "log[1].energy")
_INTEGER_FIELDS = ("seed", ("version",), "version")


@pytest.mark.parametrize(
    "fields, value",
    [(_NUMBER_FIELDS, value) for value in (True, "1", [1], 10**400)]
    + [(_INTEGER_FIELDS, value) for value in (1.5, True)],
    ids=["number-bool", "number-string", "number-list", "number-401-digits", "integer-float", "integer-bool"],
)
def test_config_and_snapshot_numbers_share_one_parser(small_run, fields, value):
    config_field, snapshot_path, snapshot_field = fields
    section, _, key = config_field.rpartition(".")
    config = {section: {key: value}} if section else {key: value}
    with pytest.raises(ConfigError) as config_error:
        config_from_dict(config)
    payload = json.loads(dumps_snapshot(snapshot_from_run(small_run)))
    target = payload
    for step in snapshot_path[:-1]:
        target = target[step]
    target[snapshot_path[-1]] = value
    with pytest.raises(SnapshotError) as snapshot_error:
        loads_snapshot(json.dumps(payload))
    message = str(config_error.value).removeprefix(f"{config_field}: ")
    assert message.startswith("expected ")
    assert str(snapshot_error.value) == f"{snapshot_field}: {message}"


def test_fingerprint_is_stable_and_sensitive():
    a = config_fingerprint(RunConfig())
    assert a == config_fingerprint(RunConfig())
    assert len(a) == 64
    assert int(a, 16) >= 0
    assert config_fingerprint(RunConfig(seed=1)) != a


def test_fingerprints_match_the_pinned_values():
    # Snapshots written by earlier versions embed these fingerprints; a
    # change here means those snapshots no longer verify.
    custom = {
        "window_size": 3,
        "board": {"feedback_delay": 2},
        "gc": {"horizon": 200, "interval": 100, "min_trust": 40},
        "profile": {"weights": [1, 1, 0.1, 0.1], "energy_weight": 0.5},
        "policy": {"mode": "lexicographic"},
        "learning": {"successor_keying": "action"},
        "strategy": "segment",
        "out_dir": "x",
    }
    assert config_fingerprint(RunConfig()) == (
        "17738da717339f25e6c9051af627118aedb81bd12c9d025ed80be5f996822b2f"
    )
    assert config_fingerprint(config_from_dict(custom)) == (
        "47af63f570a0e890be9189b40d6a0b90b0fb79c40d7afe745e60f57b4dd6bd04"
    )


def test_derive_seed_separates_named_streams():
    assert derive_seed(7, "env") == derive_seed(7, "env")
    assert derive_seed(7, "env") != derive_seed(7, "agent")
    assert derive_seed(7, "env") != derive_seed(8, "env")
    assert 0 <= derive_seed(7, "env") < 2**64


# ----------------------------------------------------------------------
# the run loop
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    return run(RunConfig(seed=1, ticks=300))


def test_run_produces_one_metrics_row_per_tick(small_run):
    assert len(small_run.metrics) == 300
    assert [m.tick for m in small_run.metrics] == list(range(1, 301))


def test_run_counts_match_the_feedback_record(small_run):
    last = small_run.metrics[-1]
    events = sum(1 for m in small_run.metrics if m.feedback != 0.0)
    assert last.cumulative_hits + last.cumulative_misses == events
    assert last.cumulative_hits == sum(1 for m in small_run.metrics if m.feedback > 0)
    # The log carries exactly the feedback events the metrics counted.
    assert sum(1 for rec in small_run.log if rec.reinforcement_observed != 0) == events


def test_rolling_hit_rate_is_the_hit_share_of_the_last_100_events():
    metrics = run(RunConfig(seed=0, ticks=3000)).metrics
    recent: deque[int] = deque(maxlen=100)
    rolling = 0.0
    for m in metrics:
        if m.feedback != 0.0:
            recent.append(1 if m.feedback > 0 else 0)
            rolling = sum(recent) / len(recent)
        assert m.rolling_hit_rate == rolling
    # The window wrapped many times, so evicted events are covered too.
    assert metrics[-1].cumulative_hits + metrics[-1].cumulative_misses > 300


def test_run_metrics_stay_in_range(small_run):
    for m in small_run.metrics:
        assert 0.0 <= m.rolling_hit_rate <= 1.0
        for value in (m.happy, m.sad, m.novelty, m.expectedness):
            assert 0.0 <= value <= 1.0
        assert m.energy >= 0.0
        assert m.feedback in (-1.0, 0.0, 1.0)


def test_run_log_is_contiguous_without_gc(small_run):
    assert [rec.tick for rec in small_run.log] == list(range(300))


def test_run_learns_every_logged_transition(small_run):
    counts = evidence_by_tick(small_run.log, small_run.model)
    assert set(counts) == set(range(300))
    # The default strategy learns each step, so nothing has zero evidence.
    assert min(counts.values()) >= 1


def test_runs_are_reproducible():
    a = run(RunConfig(seed=11, ticks=80))
    b = run(RunConfig(seed=11, ticks=80))
    assert metrics_to_csv(a.metrics) == metrics_to_csv(b.metrics)
    assert dumps_snapshot(snapshot_from_run(a)) == dumps_snapshot(snapshot_from_run(b))


def test_different_seeds_diverge():
    a = run(RunConfig(seed=1, ticks=80))
    b = run(RunConfig(seed=2, ticks=80))
    assert metrics_to_csv(a.metrics) != metrics_to_csv(b.metrics)


def test_zero_tick_run_is_empty():
    result = run(RunConfig(seed=0, ticks=0))
    assert result.metrics == []
    assert result.final_rolling_hit_rate == 0.0
    assert len(result.log) == 0


def test_final_rolling_hit_rate_of_an_empty_result():
    empty = RunResult(config=RunConfig(), schema=None, log=None, model=None, metrics=[])
    assert empty.final_rolling_hit_rate == 0.0


_ROW_TYPES = (
    (TransitionRecord, ("tick", "state", "chosen_action", "predicted_next", "reinforcement_observed",
                        "energy", "next_state")),
    (EnvStep, ("state", "feedback", "energy", "event")),
    (MetricsRow, ("tick", "happy", "sad", "novelty", "expectedness", "feedback", "cumulative_hits",
                  "cumulative_misses", "rolling_hit_rate", "explored", "energy")),
    (SweepRun, ("profile_label", "seed", "final_rolling_hit_rate", "hits", "misses")),
    (SweepSummary, ("profile_label", "runs", "mean_final_hit_rate", "stdev_final_hit_rate")),
)


@pytest.mark.parametrize("row_type, names", _ROW_TYPES, ids=[t.__name__ for t, _ in _ROW_TYPES])
def test_a_row_type_is_an_immutable_tuple_with_the_old_fields(row_type, names):
    assert row_type._fields == names
    row = row_type(*range(len(names)))
    assert row == tuple(range(len(names)))
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        setattr(row, names[0], -1)
    with pytest.raises(AttributeError):
        row.note = "new"


def test_a_run_builds_its_records_as_the_row_types(small_run):
    assert type(small_run.log[0]) is TransitionRecord
    assert type(small_run.metrics[0]) is MetricsRow
    env = PingPong(small_run.config.board)
    env.reset(0)
    assert type(env.step((False, False))) is EnvStep


# ----------------------------------------------------------------------
# garbage collection plumbing
# ----------------------------------------------------------------------


def test_run_garbage_collection_applies_the_retention_rule():
    config = RunConfig(seed=5, ticks=80, gc_horizon=30.0, gc_min_trust=3, gc_interval=0)
    result = run(config)
    counts = evidence_by_tick(result.log, result.model)
    collected, _ = run_garbage_collection(result.log, result.model, config, 0)
    kept = {rec.tick for rec in collected}
    last_feedback = max(rec.tick for rec in result.log if rec.reinforcement_observed)
    latest = result.log[-1].tick
    removed_any = False
    for rec in result.log:
        removable = (
            latest - rec.tick >= 30.0
            and counts[rec.tick] < 3
            and rec.tick <= last_feedback  # the open segment follows the last feedback
        )
        assert (rec.tick not in kept) == removable
        removed_any = removed_any or removable
    assert removed_any  # the scenario actually exercises collection


def _full_rescan(log, model, config, trusted_below):
    """A reference collector without a frontier: every pass looks up every record."""
    return harness.garbage_collect(log, harness.evidence_by_tick(log, model), config, 0), 0


def _outputs(config):
    result = run(config)
    return metrics_to_csv(result.metrics), dumps_snapshot(snapshot_from_run(result))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 3),
    ticks=st.integers(1, 400),
    window_size=st.integers(1, 3),
    strategy=st.sampled_from(STRATEGIES),
    successor_keying=st.sampled_from(SUCCESSOR_KEYINGS),
    horizon=st.sampled_from([0.5, 1.0, 2.5, 10.0, 37.5, 120.0]),
    min_trust=st.integers(0, 6),
    interval=st.integers(1, 40),
)
@example(seed=0, ticks=300, window_size=3, strategy=STRATEGY_SEGMENT, successor_keying="state",
         horizon=2.5, min_trust=0, interval=7)
@example(seed=1, ticks=400, window_size=2, strategy="transition-map", successor_keying="action",
         horizon=12.5, min_trust=4, interval=5)
# Every candidate is trusted, so each frontier moves to the first record inside the horizon.
@example(seed=2, ticks=400, window_size=3, strategy="transition-map", successor_keying="state",
         horizon=37.5, min_trust=0, interval=11)
@example(seed=3, ticks=400, window_size=3, strategy=STRATEGY_SEGMENT, successor_keying="action",
         horizon=1.0, min_trust=0, interval=1)
# The horizon is longer than the run, so no pass has a candidate.
@example(seed=0, ticks=200, window_size=2, strategy=STRATEGY_SEGMENT, successor_keying="state",
         horizon=250.0, min_trust=6, interval=9)
def test_trusted_frontier_gc_matches_a_full_rescan(
    seed, ticks, window_size, strategy, successor_keying, horizon, min_trust, interval
):
    config = RunConfig(
        seed=seed,
        ticks=ticks,
        window_size=window_size,
        strategy=strategy,
        successor_keying=successor_keying,
        gc_horizon=horizon,
        gc_min_trust=min_trust,
        gc_interval=interval,
    )
    # A context, not the monkeypatch fixture: Hypothesis runs this body once per example.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_garbage_collection", _full_rescan)
        reference = _outputs(config)
    assert _outputs(config) == reference


def test_trusted_frontier_saves_evidence_lookups(monkeypatch):
    # The outputs are the same with or without the frontier, so only a census
    # of the records looked up shows that it still saves work.
    def census():
        scanned = []

        def counted(records, model, _original=evidence_by_tick):
            records = list(records)
            scanned.append(len(records))
            return _original(records, model)

        monkeypatch.setattr(harness, "evidence_by_tick", counted)
        run(RunConfig(seed=0, ticks=3000, gc_horizon=200.0, gc_interval=100, gc_min_trust=40))
        return len(scanned), sum(scanned)

    assert census() == (30, 3050)
    monkeypatch.setattr(harness, "run_garbage_collection", _full_rescan)
    assert census() == (30, 10419)


@pytest.mark.parametrize("window_size", [1, 2, 3])
def test_gc_looks_up_only_records_outside_the_horizon(monkeypatch, window_size):
    # After the lead-in that rebuilds their windows, every record a pass looks
    # up could be removed: none lies inside the horizon.
    config = RunConfig(seed=1, ticks=2000, window_size=window_size, gc_horizon=150.0, gc_interval=50,
                       gc_min_trust=20)
    passes = []

    def checked(records, model, _original=evidence_by_tick):
        latest = (len(passes) + 1) * config.gc_interval - 1
        records = list(records)
        passes.append(len(records))
        assert all(latest - rec.tick >= config.gc_horizon for rec in records[window_size - 1:])
        return _original(records, model)

    monkeypatch.setattr(harness, "evidence_by_tick", checked)
    run(config)
    assert len(passes) == 40 and sum(passes) > 0


def test_run_with_periodic_gc_produces_a_gapped_but_ordered_log():
    config = RunConfig(seed=5, ticks=120, gc_horizon=40.0, gc_min_trust=3, gc_interval=30)
    result = run(config)
    ticks = [rec.tick for rec in result.log]
    assert ticks == sorted(ticks)
    assert len(ticks) < 120
    assert ticks[-1] == 119


# ----------------------------------------------------------------------
# snapshot verification
# ----------------------------------------------------------------------


def test_verify_snapshot_passes_on_a_clean_run(small_run):
    assert verify_snapshot(snapshot_from_run(small_run)) == []


def test_a_loaded_log_shares_its_states_as_the_live_log_does():
    # A prediction is a stored successor: the next state of the record one
    # tick before the prediction's own.
    result = run(RunConfig(ticks=1500))
    loaded = loads_snapshot(dumps_snapshot(snapshot_from_run(result))).log
    for records in (result.log, loaded):
        predicted = [rec for rec in records if rec.predicted_next is not None]
        assert predicted
        assert all(rec.predicted_next is records[rec.predicted_next.tick - 1].next_state for rec in predicted)
        assert all(b.state is a.next_state for a, b in zip(records, records[1:]))
        states = {id(s) for rec in records for s in (rec.state, rec.next_state, rec.predicted_next) if s}
        assert len(states) == 1501


def test_verify_snapshot_detects_tampered_tables(small_run):
    snapshot = snapshot_from_run(small_run)
    hk = next(iter(snapshot.model_tables["utility"]))
    sk = next(iter(snapshot.model_tables["utility"][hk]))
    snapshot.model_tables["utility"][hk][sk] += 1e-6
    problems = verify_snapshot(snapshot)
    assert problems
    assert any("utility" in p for p in problems)


def test_verify_snapshot_detects_a_forged_config(small_run):
    snapshot = snapshot_from_run(small_run)
    forged = dict(snapshot.config)
    forged["seed"] = snapshot.config["seed"] + 1
    tampered = dataclasses.replace(snapshot, config=forged)
    assert any("fingerprint" in p for p in verify_snapshot(tampered))


def test_verify_snapshot_names_an_invalid_embedded_config(small_run):
    snapshot = snapshot_from_run(small_run)
    broken = dataclasses.replace(snapshot, config={**snapshot.config, "ticks": -1})
    with pytest.raises(SnapshotError) as err:
        verify_snapshot(broken)
    assert str(err.value) == "config.ticks: must be >= 0"


# ----------------------------------------------------------------------
# metrics CSV
# ----------------------------------------------------------------------


def test_metrics_csv_layout(small_run):
    text = metrics_to_csv(small_run.metrics[:3])
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5  # header + 3 rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in text
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "1"


def test_metrics_csv_reserializes_identically(small_run):
    text = metrics_to_csv(small_run.metrics)
    assert metrics_to_csv(metrics_from_csv(text)) == text


def test_metrics_csv_rejects_a_bad_header():
    with pytest.raises(ConfigError):
        metrics_from_csv("nope\n1,2\n")


def test_metrics_csv_rejects_short_rows():
    text = ",".join(CSV_COLUMNS) + "\n1,2,3\n"
    with pytest.raises(ConfigError):
        metrics_from_csv(text)
    # A full-width row with a non-numeric cell names its line and column.
    text = ",".join(CSV_COLUMNS) + "\n1,abc,0,0,0,0,0,0,0,0,0\n"
    with pytest.raises(ConfigError) as err:
        metrics_from_csv(text)
    assert "line 2" in str(err.value)
    assert "happy" in str(err.value)


def test_metrics_file_round_trip(tmp_path, small_run):
    path = tmp_path / "metrics.csv"
    write_metrics(small_run.metrics, str(path))
    assert read_metrics(str(path)) == metrics_from_csv(metrics_to_csv(small_run.metrics))
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


def test_write_metrics_keeps_the_old_file_when_serialization_fails(tmp_path, small_run, monkeypatch):
    path = tmp_path / "metrics.csv"
    path.write_bytes(b"old bytes\n")

    def failing_metrics_to_csv(rows):
        raise RuntimeError("serialization failed")

    monkeypatch.setattr(harness, "metrics_to_csv", failing_metrics_to_csv)
    with pytest.raises(RuntimeError):
        write_metrics(small_run.metrics, str(path))
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["metrics.csv"]


@pytest.mark.parametrize(
    "column, cell",
    [
        ("tick", "1_0"),
        ("cumulative_hits", " 2"),
        ("energy", "1e0"),
        ("cumulative_misses", "+1"),
        ("tick", "01"),
        ("happy", "0.1234567"),
        ("explored", "2"),
    ],
)
def test_metrics_csv_rejects_cells_the_writer_never_writes(small_run, column, cell):
    lines = metrics_to_csv(small_run.metrics[:3]).split("\n")
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index(column)] = cell
    lines[2] = ",".join(cells)
    with pytest.raises(ConfigError) as err:
        metrics_from_csv("\n".join(lines))
    assert str(err.value) == f"metrics csv line 3, {column}: bad value {cell!r}"


@pytest.mark.parametrize(
    "frame, message",
    [
        (lambda header, rows: f"{header}\n\n{rows}", "metrics csv line 2: 1 of 11 cells"),
        (lambda header, rows: f"{header}\n{rows[:-1]}", "metrics csv line 4: missing the final line ending"),
    ],
    ids=["blank-line", "no-final-lf"],
)
def test_metrics_csv_rejects_framing_the_writer_never_writes(small_run, frame, message):
    header, rows = metrics_to_csv(small_run.metrics[:3]).split("\n", 1)
    with pytest.raises(ConfigError) as err:
        metrics_from_csv(frame(header, rows))
    assert str(err.value) == message


def test_explored_column_is_binary(small_run):
    text = metrics_to_csv(small_run.metrics)
    column = CSV_COLUMNS.index("explored")
    cells = {line.split(",")[column] for line in text.strip().split("\n")[1:]}
    assert cells <= {"0", "1"}


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


PROFILES = [
    ("skewed", PriorityProfile(weights=(1.0, 0.25, 0.1, 0.1))),
    ("even", PriorityProfile(weights=(1.0, 1.0, 0.1, 0.1))),
]


def test_sweep_orders_by_profile_then_seed():
    runs, summaries = sweep(RunConfig(ticks=40), PROFILES, seeds=[3, 1])
    assert [(r.profile_label, r.seed) for r in runs] == [
        ("skewed", 1), ("skewed", 3), ("even", 1), ("even", 3),
    ]
    assert [s.profile_label for s in summaries] == ["skewed", "even"]
    assert all(s.runs == 2 for s in summaries)


def test_sweep_summaries_aggregate_the_rates():
    runs, summaries = sweep(RunConfig(ticks=40), PROFILES[:1], seeds=[0, 1, 2])
    rates = [r.final_rolling_hit_rate for r in runs]
    assert summaries[0].mean_final_hit_rate == pytest.approx(sum(rates) / 3)


def test_sweep_rejects_duplicate_labels():
    with pytest.raises(ConfigError):
        sweep(RunConfig(ticks=10), [PROFILES[0], PROFILES[0]], seeds=[0])


@pytest.mark.parametrize("label", ["a,b", "x\ny", "", 7])
def test_sweep_rejects_a_label_that_is_not_one_csv_cell(label):
    with pytest.raises(ConfigError) as err:
        sweep(RunConfig(ticks=5), [PROFILES[0], (label, PROFILES[0][1])], [0])
    assert str(err.value) == "profiles[1].label: expected a non-empty string without a comma or line break"


def test_sweep_rejects_empty_inputs():
    with pytest.raises(ConfigError):
        sweep(RunConfig(ticks=10), [], seeds=[0])
    with pytest.raises(ConfigError):
        sweep(RunConfig(ticks=10), PROFILES, seeds=[])


def test_sweep_csv_cells_are_formatted_by_declared_type():
    runs_csv, summary_csv = sweep_to_csv([SweepRun("asym", 3, 0.41254, 7, 9)],
                                         [SweepSummary("asym", 1, 0.5, 0.0)])
    assert runs_csv == "profile,seed,final_rolling_hit_rate,hits,misses\nasym,3,0.412540,7,9\n"
    assert summary_csv == "profile,runs,mean_final_hit_rate,stdev_final_hit_rate\nasym,1,0.500000,0.000000\n"


def test_sweep_csv_shapes():
    runs, summaries = sweep(RunConfig(ticks=40), PROFILES, seeds=[0, 1])
    runs_csv, summary_csv = sweep_to_csv(runs, summaries)
    run_lines = runs_csv.strip().split("\n")
    assert run_lines[0] == "profile,seed,final_rolling_hit_rate,hits,misses"
    assert len(run_lines) == 5
    summary_lines = summary_csv.strip().split("\n")
    assert summary_lines[0] == "profile,runs,mean_final_hit_rate,stdev_final_hit_rate"
    assert len(summary_lines) == 3


# ----------------------------------------------------------------------
# snapshot and config JSON interplay
# ----------------------------------------------------------------------


def test_snapshot_embeds_the_exact_config(small_run):
    snapshot = snapshot_from_run(small_run)
    assert config_from_dict(snapshot.config) == small_run.config
    assert snapshot.config_fingerprint == config_fingerprint(small_run.config)
    # And the whole snapshot is valid JSON with LF ending.
    text = dumps_snapshot(snapshot)
    assert json.loads(text)["config_fingerprint"] == snapshot.config_fingerprint
