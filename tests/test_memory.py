"""Episode log, segmentation, history windows, garbage collection, snapshots."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import sys
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needagent import harness, memory
from needagent.cli import EXIT_IO, main
from needagent.core import UsageError, state_key
from needagent.memory import (
    SNAPSHOT_VERSION,
    EpisodeLog,
    HistoryWalk,
    HistoryWindow,
    MemorySnapshot,
    Segment,
    SnapshotError,
    SnapshotVersionError,
    TransitionRecord,
    dumps_snapshot,
    load_snapshot,
    loads_snapshot,
    save_snapshot,
    write_files,
)

from conftest import SCHEMA, make_state, sharing


def make_record(
    tick: int,
    feedback: float = 0.0,
    pos: int = 0,
    next_pos: int | None = None,
    predicted=None,
    energy: float = 0.0,
) -> TransitionRecord:
    state = make_state(pos=pos, tick=tick)
    nxt = make_state(pos=(pos + 1) % 4 if next_pos is None else next_pos, tick=tick + 1)
    return TransitionRecord(
        tick=tick,
        state=state,
        chosen_action=(False, False),
        predicted_next=predicted,
        reinforcement_observed=feedback,
        energy=energy,
        next_state=nxt,
    )


def test_a_record_is_slotted():
    assert not hasattr(make_record(0), "__dict__")


# ----------------------------------------------------------------------
# history window
# ----------------------------------------------------------------------


def test_window_push_returns_a_new_window():
    w0 = HistoryWindow(2)
    w1 = w0.push(make_state(pos=1))
    assert len(w0) == 0
    assert len(w1) == 1


def test_window_drops_the_oldest_state_beyond_capacity():
    w = HistoryWindow(2)
    for p in (1, 2, 3):
        w = w.push(make_state(pos=p))
    assert [s.feelings[0] for s in w.states] == [2, 3]


def test_window_rejects_overfull_construction():
    with pytest.raises(UsageError):
        HistoryWindow(1, states=(make_state(), make_state()))


def test_a_window_is_slotted_and_carries_its_key():
    a, b = make_state(pos=1), make_state(pos=2, tick=1)
    assert not hasattr(HistoryWindow(1), "__dict__")
    assert HistoryWindow(2).key is None
    assert HistoryWindow(2, (a, b)).key == HistoryWindow(2).push(a).push(b).key == state_key([a, b])
    assert HistoryWindow(1).push(a).push(b).key == b.key
    with pytest.raises(UsageError):
        HistoryWindow(1, (a, a))


def test_a_walk_reuses_the_window_that_ends_in_the_shared_state():
    r0 = make_record(0, pos=0)
    r1 = make_record(1, pos=1)._replace(state=r0.next_state)
    r2 = make_record(2, pos=2)  # equal to r1.next_state, but another object
    walk = HistoryWalk(2)
    assert walk.advance(r0) is True
    assert walk.learned.states == (r0.state,)
    decided = walk.window
    assert walk.advance(r1) is False
    assert walk.learned is decided
    assert walk.window.states == (r0.next_state, r1.next_state)
    assert walk.advance(r2) is False
    assert walk.learned.states == (r0.next_state, r2.state)
    assert walk.learned.states[-1] is r2.state
    assert walk.advance(make_record(7, pos=3)) is True
    assert len(walk.learned) == 1


# ----------------------------------------------------------------------
# episode log and segmentation
# ----------------------------------------------------------------------


def test_log_enforces_contiguous_ticks():
    log = EpisodeLog()
    log.append(make_record(0))
    log.append(make_record(1))
    with pytest.raises(UsageError):
        log.append(make_record(5))


def test_log_rejects_negative_ticks():
    rec = TransitionRecord(
        tick=-1,
        state=make_state(),
        chosen_action=(False, False),
        predicted_next=None,
        reinforcement_observed=0.0,
        energy=0.0,
        next_state=make_state(),
    )
    with pytest.raises(UsageError):
        EpisodeLog().append(rec)


def test_closed_segment_requires_a_matching_terminal():
    rec = make_record(0, feedback=1.0)
    with pytest.raises(UsageError):
        Segment(records=(rec,), terminal_reinforcement=-1.0)


def test_closed_segment_rejects_interior_feedback():
    noisy = make_record(0, feedback=1.0)
    closing = make_record(1, feedback=1.0)
    with pytest.raises(UsageError):
        Segment(records=(noisy, closing), terminal_reinforcement=1.0)


def test_closed_segment_requires_records():
    with pytest.raises(UsageError):
        Segment(records=(), terminal_reinforcement=1.0)


# ----------------------------------------------------------------------
# garbage collection
# ----------------------------------------------------------------------


def _feedback_at_five() -> EpisodeLog:
    log = EpisodeLog()
    for tick in range(10):
        log.append(make_record(tick, feedback=1.0 if tick == 5 else 0.0))
    return log


def _collect(log, horizon, min_trust, evidence, start=0):
    """``harness.garbage_collect`` with the evidence of each tick from ``evidence(tick)``."""
    counts = {rec.tick: evidence(rec.tick) for rec in log[start:]}
    config = harness.RunConfig(gc_horizon=horizon, gc_min_trust=min_trust)
    return harness.garbage_collect(log, counts, config, start)


def test_gc_removes_old_untrusted_records():
    log = _feedback_at_five()
    out = _collect(log, 4.0, 1, lambda tick: 2 if tick % 2 == 0 else 0)
    # Ticks 6..9 form the open segment; of the old ticks 0..5 only the
    # even-evidence ones survive.
    assert [r.tick for r in out] == [0, 2, 4, 6, 7, 8, 9]
    assert len(log) == 10  # the input log is untouched


def test_gc_horizon_zero_keeps_only_the_open_tail():
    out = _collect(_feedback_at_five(), 0.0, 1, lambda tick: 0)
    assert [r.tick for r in out] == [6, 7, 8, 9]


def test_gc_keeps_the_records_after_the_last_feedback():
    log = EpisodeLog()
    for tick, fb in enumerate((0.0, 1.0, 0.0, 0.0, -1.0, 0.0)):
        log.append(make_record(tick, feedback=fb))
    assert [r.tick for r in _collect(log, 0.0, 1, lambda tick: 0)] == [5]
    log.append(make_record(6, feedback=1.0))
    assert len(_collect(log, 0.0, 1, lambda tick: 0)) == 0


def test_gc_keeps_trusted_records_regardless_of_age():
    out = _collect(_feedback_at_five(), 0.0, 1, lambda tick: 5)
    assert len(out) == 10


def test_gc_infinite_horizon_collects_nothing():
    log = _feedback_at_five()
    out = _collect(log, math.inf, 99, lambda tick: 0)
    assert out[:] == log[:]


def test_gc_on_an_empty_log():
    assert len(_collect(EpisodeLog(), 0.0, 1, lambda tick: 0)) == 0


def test_gc_keeps_the_records_before_start_without_a_lookup():
    # ``counts`` holds no tick below 3, so a lookup there would raise KeyError.
    out = _collect(_feedback_at_five(), 0.0, 1, lambda tick: 0, start=3)
    assert [r.tick for r in out] == [0, 1, 2, 6, 7, 8, 9]


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------


def make_snapshot() -> MemorySnapshot:
    log = EpisodeLog()
    for tick, fb in enumerate((0.0, 1.0, 0.0)):
        predicted = make_state(pos=1, tick=tick + 1) if tick == 1 else None
        log.append(make_record(tick, feedback=fb, predicted=predicted))
    tables = {
        "window_size": 1,
        "successor_keying": "state",
        "utility": {"0,0": {"1,0": 0.5}},
        "evidence": {"0,0": {"1,0": 1}},
        "successors": {},
        "state_seen": {"0,0": 1},
    }
    return MemorySnapshot(
        schema=SCHEMA,
        log=log,
        model_tables=tables,
        config={"seed": 3},
        config_fingerprint="abc123",
    )


def test_snapshot_round_trip_preserves_everything():
    snap = make_snapshot()
    text = dumps_snapshot(snap)
    back = loads_snapshot(text)
    assert back.schema == snap.schema
    assert back.log[:] == snap.log[:]
    assert back.model_tables == snap.model_tables
    assert back.config == snap.config
    assert back.config_fingerprint == snap.config_fingerprint
    assert back.version == SNAPSHOT_VERSION
    assert dumps_snapshot(back) == text


def test_snapshot_text_is_canonical():
    text = dumps_snapshot(make_snapshot())
    assert text.endswith("\n")
    assert text == dumps_snapshot(make_snapshot())
    # Compact separators: no padding after commas or colons.
    assert ", " not in text
    assert ": " not in text


@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from((0.0, 1.0, -1.0))), max_size=12))
def test_snapshot_round_trip_property(steps):
    log = EpisodeLog()
    for tick, (pos, fb) in enumerate(steps):
        log.append(make_record(tick, pos=pos, feedback=fb))
    snap = MemorySnapshot(
        schema=SCHEMA, log=log, model_tables={}, config={}, config_fingerprint=""
    )
    text = dumps_snapshot(snap)
    assert dumps_snapshot(loads_snapshot(text)) == text


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_a_loaded_state_is_shared_only_when_equal_with_its_types():
    states = [make_state(pos=pos, go=True, tick=tick) for tick, pos in enumerate((0, 2, 1, 3))]
    # Record 2 predicts record 0's next state, as a stored successor would.
    log = EpisodeLog(
        TransitionRecord(t, states[t], (True, False), states[1] if t == 2 else None, 0.0, 0.0, states[t + 1])
        for t in range(3)
    )
    payload = json.loads(dumps_snapshot(MemorySnapshot(SCHEMA, log, {}, {}, "")))
    first, second, third = loads_snapshot(_canonical(payload)).log
    assert second.state is first.next_state
    assert third.predicted_next is first.next_state
    for index, field in ((1, "state"), (2, "predicted_next")):
        changed = json.loads(json.dumps(payload))
        changed["log"][index][field]["y"][0] = 0  # equal to the 0.0 before it, but an integer
        text = _canonical(changed)
        records = loads_snapshot(text).log
        assert getattr(records[index], field) is not records[0].next_state
        assert dumps_snapshot(loads_snapshot(text)) == text
    for key, value in (("f", 2.0), ("a", True)):  # equal to the codes 2 and 1, but not integers
        changed = json.loads(json.dumps(payload))
        assert changed["log"][2]["predicted_next"][key][0] == value
        changed["log"][2]["predicted_next"][key][0] = value
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(_canonical(changed))
        assert str(err.value) == f"log[2].predicted_next.{key}[0]: expected an integer, got {value}"


def test_equal_integer_level_states_at_one_tick_load_as_two_objects():
    log = EpisodeLog([make_record(0, next_pos=1), make_record(1, pos=1)])  # log[1].state is log[0].next_state
    payload = json.loads(dumps_snapshot(MemorySnapshot(SCHEMA, log, {}, {}, "")))
    for value in (payload["log"][0]["next_state"], payload["log"][1]["state"]):
        assert value["y"] == [0.0, 0.0]
        value["y"] = [0, 0]  # integer levels, which no run writes
    text = _canonical(payload)
    first, second = loads_snapshot(text).log
    assert second.state == first.next_state
    assert second.state is not first.next_state
    assert dumps_snapshot(loads_snapshot(text)) == text


@pytest.mark.parametrize("where", ["log", "successors"])
def test_a_need_level_of_negative_zero_is_a_snapshot_error(where):
    log = EpisodeLog([make_record(0, next_pos=1), make_record(1, pos=1)])  # log[1].state is shared
    tables = {"successors": {"h": {"s": memory.state_to_dict(make_state(tick=1))}}}
    payload = json.loads(dumps_snapshot(MemorySnapshot(SCHEMA, log, tables, {}, "")))
    state = payload["log"][1]["state"] if where == "log" else payload["model"]["successors"]["h"]["s"]
    assert state["y"][1] == 0.0
    state["y"][1] = -0.0
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(_canonical(payload))
    path = "log[1].state.y[1]" if where == "log" else "model.successors['h']['s'].y[1]"
    assert str(err.value) == f"{path}: -0.0 is not a need level"


def test_loads_snapshot_requires_every_top_level_key():
    payload = json.loads(dumps_snapshot(make_snapshot()))
    for key in ("version", "schema", "log", "model", "config", "config_fingerprint"):
        broken = dict(payload)
        del broken[key]
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(json.dumps(broken))
        assert key in str(err.value)


def test_loads_snapshot_rejects_newer_versions():
    payload = json.loads(dumps_snapshot(make_snapshot()))
    payload["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotVersionError):
        loads_snapshot(json.dumps(payload))


def test_loads_snapshot_rejects_non_increasing_ticks():
    payload = json.loads(dumps_snapshot(make_snapshot()))
    payload["log"][1]["tick"] = 0
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(json.dumps(payload))
    assert "log[1]" in str(err.value)


def test_loads_snapshot_allows_tick_gaps():
    payload = json.loads(dumps_snapshot(make_snapshot()))
    del payload["log"][1]
    back = loads_snapshot(json.dumps(payload))
    assert [r.tick for r in back.log] == [0, 2]


def test_loads_snapshot_rejects_invalid_json():
    with pytest.raises(SnapshotError):
        loads_snapshot("{nope")


def test_loads_snapshot_names_the_broken_record():
    payload = json.loads(dumps_snapshot(make_snapshot()))
    del payload["log"][0]["state"]["f"]
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(json.dumps(payload))
    assert "log[0]" in str(err.value)


def test_save_and_load_snapshot(tmp_path):
    snap = make_snapshot()
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, str(path))
    assert load_snapshot(str(path)).log[:] == snap.log[:]
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_loads_snapshot_rejects_non_finite_tokens(token):
    text = dumps_snapshot(make_snapshot()).replace('{"1,0":0.5}', '{"1,0":%s}' % token)
    assert token in text
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(text)
    assert token in str(err.value)


def test_dumps_snapshot_refuses_non_finite_values():
    snap = make_snapshot()
    snap.model_tables["utility"]["0,0"]["1,0"] = math.nan
    with pytest.raises(ValueError):
        dumps_snapshot(snap)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["reinforcement", "energy", "utility"])
def test_dumps_snapshot_refuses_a_non_finite_number_in_any_section(where, value):
    snap = make_snapshot()
    if where == "utility":
        snap.model_tables["utility"]["0,0"]["1,0"] = value
    else:
        records = snap.log[:]
        records[1] = records[1]._replace(**{"reinforcement_observed" if where == "reinforcement" else where: value})
        snap = dataclasses.replace(snap, log=EpisodeLog(records))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps_snapshot(snap)


@pytest.mark.parametrize(
    "field,value",
    [("energy", '"x"'), ("reinforcement", "[1]"), ("energy", "1e999"), ("reinforcement", "1" + "0" * 400)],
)
def test_loads_snapshot_requires_finite_record_numbers(field, value):
    # ``value`` is JSON text: 1e999 parses to an infinite float, and a
    # 401-digit integer is too large for a float.
    payload = json.loads(dumps_snapshot(make_snapshot()))
    payload["log"][1][field] = "VALUE"
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(json.dumps(payload).replace('"VALUE"', value))
    assert f"log[1].{field}: expected a finite number" in str(err.value)


@pytest.mark.parametrize("item", [5, None, [1, 2], "record"])
def test_loads_snapshot_requires_each_record_to_be_an_object(item):
    payload = json.loads(dumps_snapshot(make_snapshot()))
    payload["log"][2] = item
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(json.dumps(payload))
    assert str(err.value) == "log[2]: expected an object"


def test_loads_snapshot_requires_integer_ticks():
    payload = json.loads(dumps_snapshot(make_snapshot()))
    payload["log"][1]["tick"] = "1"
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(json.dumps(payload))
    assert "log[1].tick: expected an integer" in str(err.value)


@pytest.mark.parametrize("field,message", [
    ("bogus", "log[2].bogus: unknown field"),
    ("next_state.bogus", "log[2].next_state.bogus: unknown field"),
    ("predicted_next", "log[2].predicted_next: missing"),  # null, but not optional
])
def test_loads_snapshot_names_a_missing_or_unknown_log_field(field, message):
    payload = json.loads(dumps_snapshot(make_snapshot()))
    *steps, key = field.split(".")
    target = payload["log"][2]
    for step in steps:
        target = target[step]
    if key in target:
        del target[key]
    else:
        target[key] = 0
    with pytest.raises(SnapshotError) as err:
        loads_snapshot(_canonical(payload))
    assert str(err.value) == message


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    window=st.integers(1, 3),
    weight=st.sampled_from((0.0, 0.5)),
    collection=st.fixed_dictionaries(
        {"horizon": st.integers(10, 40), "interval": st.integers(10, 30), "min_trust": st.integers(1, 6)}),
)
def test_a_loaded_run_is_its_live_log(seed, window, weight, collection):
    config = {"seed": seed, "ticks": 150, "window_size": window, "board": {"feedback_delay": 1},
              "learning": {"predictability_weight": weight}, "gc": collection}
    result = harness.run(harness.config_from_dict(config))
    text = dumps_snapshot(harness.snapshot_from_run(result))
    loaded = loads_snapshot(text)
    assert loaded.log[:] == result.log[:]
    assert sharing(loaded.log) == sharing(result.log)
    assert dumps_snapshot(loaded) == text


def test_a_canonical_snapshot_shares_one_state_per_tick():
    config = harness.config_from_dict({"window_size": 3, "board": {"feedback_delay": 2}, "ticks": 2000})
    text = dumps_snapshot(harness.snapshot_from_run(harness.run(config)))
    records = loads_snapshot(text).log
    assert len(records) == 2000
    states = {id(s) for r in records for s in (r.state, r.predicted_next, r.next_state)} - {id(None)}
    assert len(states) == 2001  # one state per tick, as in the live run


def _old_pair(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_bytes(b"old first\n")
    second.write_bytes(b"old second\n")
    return first, second


def test_write_files_replaces_every_file_and_leaves_no_temporary_file(tmp_path):
    first, second = _old_pair(tmp_path)
    write_files({str(first): "new\r\n", str(second): "\u00e9\n"})
    assert first.read_bytes() == b"new\r\n"  # written as given, no newline translation
    assert second.read_bytes() == "\u00e9\n".encode("utf-8")
    assert sorted(os.listdir(tmp_path)) == ["first.txt", "second.txt"]


def test_write_files_replaces_nothing_if_the_second_text_cannot_be_written(tmp_path):
    first, second = _old_pair(tmp_path)
    with pytest.raises(UnicodeEncodeError):
        write_files({str(first): "new first\n", str(second): "\ud800"})  # a lone surrogate is not UTF-8
    assert first.read_bytes() == b"old first\n"
    assert second.read_bytes() == b"old second\n"
    assert sorted(os.listdir(tmp_path)) == ["first.txt", "second.txt"]


@pytest.mark.parametrize("directory", ["first", "second"])
def test_write_files_replaces_nothing_if_a_target_is_a_directory(tmp_path, directory):
    files = {"first": tmp_path / "first.txt", "second": tmp_path / "second.txt"}
    files[directory].mkdir()
    (other,) = (path for name, path in files.items() if name != directory)
    other.write_bytes(b"old bytes\n")
    with pytest.raises(IsADirectoryError, match=f"{directory}.txt"):
        write_files({str(files["first"]): "new first\n", str(files["second"]): "new second\n"})
    assert other.read_bytes() == b"old bytes\n"
    assert files[directory].is_dir() and not any(files[directory].iterdir())
    assert sorted(os.listdir(tmp_path)) == ["first.txt", "second.txt"]


def test_save_snapshot_keeps_the_old_file_when_serialization_fails(tmp_path, monkeypatch):
    path = tmp_path / "snapshot.json"
    save_snapshot(make_snapshot(), str(path))
    before = path.read_bytes()
    calls = []

    def failing_record_to_dict(rec):
        calls.append(rec)
        if len(calls) == 2:
            raise RuntimeError("serialization failed part-way")
        return original(rec)

    original = memory.record_to_dict
    monkeypatch.setattr(memory, "record_to_dict", failing_record_to_dict)
    with pytest.raises(RuntimeError):
        save_snapshot(make_snapshot(), str(path))
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["snapshot.json"]


# ----------------------------------------------------------------------
# the cyclic collector around snapshot encoding and decoding
# ----------------------------------------------------------------------


@contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, and switch it back on
    afterwards even if the block fails."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


def test_snapshot_codec_runs_with_the_collector_paused(monkeypatch):
    seen = []

    def spy(name):
        original = getattr(memory, name)

        def wrapper(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return original(*args, **kwargs)

        monkeypatch.setattr(memory, name, wrapper)

    spy("record_to_dict")
    spy("TransitionRecord")
    with collector(True):
        loads_snapshot(dumps_snapshot(make_snapshot()))
        assert gc.isenabled()
    assert seen == [("record_to_dict", False)] * 3 + [("TransitionRecord", False)] * 3


def test_a_clean_load_builds_every_record_straight(monkeypatch):
    config = {"ticks": 300, "window_size": 3, "board": {"feedback_delay": 1},
              "learning": {"predictability_weight": 0.5}, "gc": {"horizon": 20, "interval": 25, "min_trust": 3}}
    texts = [dumps_snapshot(make_snapshot()),
             dumps_snapshot(harness.snapshot_from_run(harness.run(harness.config_from_dict(config))))]
    keyword_calls = []
    record = memory.TransitionRecord

    def spy(*args, **kwargs):
        keyword_calls.append(bool(kwargs))
        return record(*args, **kwargs)

    monkeypatch.setattr(memory, "TransitionRecord", spy)
    for text in texts:
        keyword_calls.clear()
        log = loads_snapshot(text).log
        assert keyword_calls == [False] * len(log)  # never the record table's ``build(**values)``
    assert len(log) < 300  # the run's log has GC gaps


def _run_snapshot() -> MemorySnapshot:
    return harness.snapshot_from_run(harness.run(harness.RunConfig(ticks=60)))


def test_replay_runs_with_the_collector_paused(monkeypatch):
    seen = []
    rebuild = harness.rebuild_from_log

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return rebuild(*args, **kwargs)

    monkeypatch.setattr(harness, "rebuild_from_log", spy)
    with collector(True):
        assert harness.verify_snapshot(_run_snapshot()) == []
        assert gc.isenabled()
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_snapshot_codec_leaves_the_collector_as_it_found_it(enabled):
    broken = json.loads(dumps_snapshot(make_snapshot()))
    broken["log"][2]["energy"] = "x"
    snapshot = _run_snapshot()
    bad_config = dataclasses.replace(snapshot, config={**snapshot.config, "ticks": -1})
    with collector(enabled):
        text = dumps_snapshot(make_snapshot())
        assert gc.isenabled() is enabled
        loads_snapshot(text)
        assert gc.isenabled() is enabled
        for bad in ("{nope", json.dumps(broken)):
            with pytest.raises(SnapshotError):
                loads_snapshot(bad)
            assert gc.isenabled() is enabled
        assert harness.verify_snapshot(snapshot) == []
        assert gc.isenabled() is enabled
        with pytest.raises(SnapshotError, match=r"^config\.ticks"):
            harness.verify_snapshot(bad_config)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_failing_dump_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    def failing_record_to_dict(rec):
        raise RuntimeError("serialization failed")

    monkeypatch.setattr(memory, "record_to_dict", failing_record_to_dict)
    with collector(enabled):
        with pytest.raises(RuntimeError):
            dumps_snapshot(make_snapshot())
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_replay_of_a_malformed_snapshot_leaves_the_collector_as_it_found_it(enabled, tmp_path):
    payload = json.loads(dumps_snapshot(make_snapshot()))
    payload["log"][1]["tick"] = True
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with collector(enabled):
        assert main(["replay", "--snapshot", str(path)]) == EXIT_IO
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_snapshot_writing_leaves_the_collector_as_it_found_it(enabled, tmp_path, monkeypatch):
    result = harness.run(harness.RunConfig(ticks=60))
    seen = []
    for owner, name in ((result.model, "to_tables"), (harness, "metrics_to_csv")):
        original = getattr(owner, name)

        def spy(*args, _original=original, **kwargs):
            seen.append(gc.isenabled())
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    with collector(enabled):
        harness.snapshot_from_run(result)
        assert gc.isenabled() is enabled
        harness.write_metrics(result.metrics, str(tmp_path / "metrics.csv"))
        assert gc.isenabled() is enabled
        with pytest.raises(FileNotFoundError):
            harness.write_metrics(result.metrics, str(tmp_path / "absent" / "metrics.csv"))
        assert gc.isenabled() is enabled
        monkeypatch.setattr(result.model, "to_tables", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            harness.snapshot_from_run(result)
        assert gc.isenabled() is enabled
    assert seen == [False, False, False]  # the failing write builds its text before it opens a file


# ----------------------------------------------------------------------
# memory footprint of a long run and of its snapshot text
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[{}, {"window_size": 3, "board": {"feedback_delay": 2}}],
                ids=["default", "window3-delay2"])
def long_run(request):
    return harness.run(harness.config_from_dict({"ticks": 3000, **request.param}))


def test_dumps_snapshot_peaks_below_four_times_its_text(long_run):
    snapshot = harness.snapshot_from_run(long_run)
    # A line tracer's frames would count toward the peak, so none runs here.
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = dumps_snapshot(snapshot)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)
    # A whole payload tree encoded at once peaked at 9.35x (default) and 6.65x (window 3) the text.
    assert peak < 4 * len(text), peak / len(text)


def test_a_run_keeps_each_sensed_value_once(long_run):
    states = [s for rec in long_run.log for s in (rec.state, rec.next_state)]
    for name in ("feelings", "needs", "key"):
        values = [getattr(s, name) for s in states]
        assert len(set(map(id, values))) == len(set(values)), name
    assert all(rec.tick is rec.state.tick for rec in long_run.log)
