"""Episodic memory: the append-only transition log and its derived views.

The log is the ground truth of a run.  Each record captures one completed
transition: the state the agent was in, what it chose, what it expected, what
feedback arrived and where it ended up.  Segments slice the log between
explicit feedback events; the history window exposes the recent past to the
learner; garbage collection forgets old, untrusted records; snapshots persist
log and world model together in a canonical JSON form.

Only the harness writes the log, and only by appending.  Records are frozen
values, so anything handed out stays bytewise stable.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Sequence, TextIO

from needagent.core import (
    FeelingVar,
    SchemaError,
    StateSchema,
    StateVector,
    UsageError,
)

SNAPSHOT_VERSION = 1

_SNAPSHOT_KEYS = ("version", "schema", "log", "model", "config", "config_fingerprint")
MODEL_SECTIONS = ("window_size", "successor_keying", "utility", "evidence", "successors", "state_seen")


class SnapshotError(ValueError):
    """A snapshot file is malformed; the message names the offending field."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by a newer format than this code supports."""


# ======================================================================
# records, segments, windows
# ======================================================================


@dataclass(frozen=True)
class TransitionRecord:
    """One completed transition, written once the outcome is known.

    ``reinforcement_observed`` is the explicit feedback channel value that
    arrived with the outcome (zero on uneventful ticks); need-derived
    reinforcement is recomputed from the two states when needed.
    """

    tick: int
    state: StateVector
    chosen_action: tuple[bool, ...]
    predicted_next: StateVector | None
    reinforcement_observed: float
    energy: float
    next_state: StateVector


@dataclass(frozen=True)
class Segment:
    """A maximal run of records between explicit feedback events.

    A closed segment ends with the record that carried nonzero feedback; no
    interior record does.  Each record is a full transition, so a segment of
    N records is a segment of N transitions.
    """

    records: tuple[TransitionRecord, ...]
    terminal_reinforcement: float | None = None

    def __post_init__(self) -> None:
        if self.terminal_reinforcement is not None:
            if not self.records:
                raise UsageError("a closed segment must contain records")
            if self.records[-1].reinforcement_observed != self.terminal_reinforcement:
                raise UsageError("terminal reinforcement must match the closing record")
            for rec in self.records[:-1]:
                if rec.reinforcement_observed != 0:
                    raise UsageError(
                        f"interior record at tick {rec.tick} carries explicit feedback"
                    )

    @property
    def closed(self) -> bool:
        return self.terminal_reinforcement is not None


@dataclass(frozen=True)
class HistoryWindow:
    """The most recent states, oldest first, capped at the model's depth."""

    capacity: int
    states: tuple[StateVector, ...] = ()

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise UsageError(f"window capacity must be >= 1, got {self.capacity}")
        if len(self.states) > self.capacity:
            raise UsageError(
                f"window holds {len(self.states)} states, capacity {self.capacity}"
            )

    def push(self, state: StateVector) -> "HistoryWindow":
        """New window with ``state`` appended and the oldest entry dropped."""
        states = (self.states + (state,))[-self.capacity :]
        return HistoryWindow(self.capacity, states)

    def __len__(self) -> int:
        return len(self.states)


# ======================================================================
# the log
# ======================================================================


class EpisodeLog:
    """Append-only sequence of transition records with ascending ticks.

    Appends must continue the last tick.  Garbage collection removes records
    from anywhere but the open tail, so a run with periodic GC has a log with
    tick gaps, and so does a snapshot of it.
    """

    def __init__(self, records: Sequence[TransitionRecord] = ()) -> None:
        self._records: list[TransitionRecord] = []
        for rec in records:
            self.append(rec)

    def append(self, rec: TransitionRecord) -> None:
        if self._records and rec.tick != self._records[-1].tick + 1:
            raise UsageError(
                f"tick {rec.tick} does not follow {self._records[-1].tick}"
            )
        if rec.tick < 0:
            raise UsageError(f"tick must be >= 0, got {rec.tick}")
        self._records.append(rec)

    @property
    def records(self) -> tuple[TransitionRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TransitionRecord]:
        return iter(self._records)

    def open_tail(self) -> tuple[TransitionRecord, ...]:
        """Records after the last explicit feedback event (possibly empty)."""
        tail: list[TransitionRecord] = []
        for rec in reversed(self._records):
            if rec.reinforcement_observed != 0:
                break
            tail.append(rec)
        return tuple(reversed(tail))


def garbage_collect(
    log: EpisodeLog,
    retention_horizon: float,
    min_trust: int,
    evidence: Callable[[TransitionRecord], int],
    trusted_below: int = 0,
) -> EpisodeLog:
    """Forget old records whose transitions the model does not yet trust.

    A record is removed when all three hold: it lies outside the retention
    horizon (``latest_tick - tick >= retention_horizon``), its transition has
    model evidence below ``min_trust``, and it is not part of the open
    segment.  Model tables are never touched; an infinite horizon disables
    collection entirely.  Returns a new log; the input is left intact.

    Records with a tick below ``trusted_below`` are kept without asking
    ``evidence``: the caller has proven them trusted for good.
    """
    records = log._records
    gc_log = EpisodeLog()
    if not records or retention_horizon == math.inf:
        gc_log._records = list(records)
        return gc_log
    start = bisect_left(records, trusted_below, key=attrgetter("tick"))
    latest = records[-1].tick
    protected = {rec.tick for rec in log.open_tail()}
    survivors = records[:start]
    for rec in records[start:]:
        old = latest - rec.tick >= retention_horizon
        if rec.tick in protected or not old or evidence(rec) >= min_trust:
            survivors.append(rec)
    # Survivors may no longer be contiguous; bypass the append tick check.
    gc_log._records = survivors
    return gc_log


# ======================================================================
# serialization
# ======================================================================


def schema_to_dict(schema: StateSchema) -> dict:
    return {
        "feelings": [{"name": f.name, "cardinality": f.cardinality} for f in schema.feelings],
        "actions": list(schema.actions),
        "needs": list(schema.needs),
    }


def schema_from_dict(data: dict) -> StateSchema:
    try:
        feelings = tuple(
            FeelingVar(name=f["name"], cardinality=f["cardinality"])
            for f in data["feelings"]
        )
        return StateSchema(
            feelings=feelings,
            actions=tuple(data["actions"]),
            needs=tuple(data["needs"]),
        )
    except (KeyError, TypeError, SchemaError) as exc:
        raise SnapshotError(f"schema: {exc}") from exc


def state_to_dict(state: StateVector) -> dict:
    return {
        "f": list(state.feelings),
        "a": [1 if a else 0 for a in state.actions],
        "y": list(state.needs),
        "tick": state.tick,
    }


def state_from_dict(schema: StateSchema, data: dict, where: str) -> StateVector:
    try:
        return StateVector(
            schema=schema,
            feelings=tuple(data["f"]),
            actions=tuple(bool(a) for a in data["a"]),
            needs=tuple(data["y"]),
            tick=data["tick"],
        )
    except (KeyError, TypeError, SchemaError) as exc:
        raise SnapshotError(f"{where}: {exc}") from exc


def record_to_dict(rec: TransitionRecord) -> dict:
    return {
        "tick": rec.tick,
        "state": state_to_dict(rec.state),
        "chosen_action": [1 if a else 0 for a in rec.chosen_action],
        "predicted_next": None if rec.predicted_next is None else state_to_dict(rec.predicted_next),
        "reinforcement": rec.reinforcement_observed,
        "energy": rec.energy,
        "next_state": state_to_dict(rec.next_state),
    }


def _is_finite(value) -> bool:
    # Comparing against the largest float rejects NaN and the infinities, and
    # never overflows on an integer too large for a float.
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(data: dict, key: str, where: str) -> float:
    value = data[key]
    if not _is_finite(value):
        raise SnapshotError(f"{where}.{key}: expected a finite number, got {value!r}")
    return value


def record_from_dict(schema: StateSchema, data: dict, where: str) -> TransitionRecord:
    if not isinstance(data, dict):
        raise SnapshotError(f"{where}: expected an object")
    try:
        predicted = data["predicted_next"]
    except KeyError as exc:
        raise SnapshotError(f"{where}.predicted_next: missing") from exc
    try:
        tick = data["tick"]
        if not _is_count(tick):
            raise SnapshotError(f"{where}.tick: expected an integer, got {tick!r}")
        return TransitionRecord(
            tick=tick,
            state=state_from_dict(schema, data["state"], f"{where}.state"),
            chosen_action=tuple(bool(a) for a in data["chosen_action"]),
            predicted_next=(
                None if predicted is None
                else state_from_dict(schema, predicted, f"{where}.predicted_next")
            ),
            reinforcement_observed=_finite_number(data, "reinforcement", where),
            energy=_finite_number(data, "energy", where),
            next_state=state_from_dict(schema, data["next_state"], f"{where}.next_state"),
        )
    except (KeyError, TypeError) as exc:
        raise SnapshotError(f"{where}: {exc}") from exc


def _check_model_tables(model: dict) -> None:
    """Check the shape that verification relies on when it compares tables.

    ``window_size`` is an integer and ``successor_keying`` a string;
    ``utility``, ``evidence`` and ``successors`` are objects of objects, with
    finite utilities and integer evidence; ``state_seen`` is an object of
    integers; no other section is present.  A missing section is left to
    verification, which reports it as a difference.
    """

    def fail(where: str, what: str):
        raise SnapshotError(f"model.{where}: expected {what}")

    for key in model:
        if key not in MODEL_SECTIONS:
            raise SnapshotError(f"model.{key}: unknown field")

    if "window_size" in model and not _is_count(model["window_size"]):
        fail("window_size", "an integer")
    if "successor_keying" in model and not isinstance(model["successor_keying"], str):
        fail("successor_keying", "a string")
    seen = model.get("state_seen", {})
    if not isinstance(seen, dict):
        fail("state_seen", "an object")
    for key, count in seen.items():
        if not _is_count(count):
            fail(f"state_seen[{key!r}]", f"an integer, got {count!r}")
    for section, test, what in (
        ("utility", _is_finite, "a finite number"),
        ("evidence", _is_count, "an integer"),
        ("successors", None, None),
    ):
        rows = model.get(section, {})
        if not isinstance(rows, dict):
            fail(section, "an object")
        for hk, row in rows.items():
            if not isinstance(row, dict):
                fail(f"{section}[{hk!r}]", "an object")
            if test is None:
                continue
            for sk, value in row.items():
                if not test(value):
                    fail(f"{section}[{hk!r}][{sk!r}]", f"{what}, got {value!r}")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the block.

    Decoding or encoding a snapshot builds millions of containers (JSON
    values, states, records), none of which can form a cycle, yet their
    allocations trigger collections, several of which walk the whole heap.
    Reference counting still frees them.  On exit the collector is enabled
    again only if it was enabled on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class MemorySnapshot:
    """Everything needed to rebuild and verify a run's memory."""

    schema: StateSchema
    log: EpisodeLog
    model_tables: dict
    config: dict
    config_fingerprint: str
    version: int = SNAPSHOT_VERSION


@collector_paused()
def dumps_snapshot(snap: MemorySnapshot) -> str:
    """Canonical JSON text: sorted keys, no incidental whitespace, LF ending.

    Identical memories serialize to identical bytes.
    """
    payload = {
        "version": snap.version,
        "schema": schema_to_dict(snap.schema),
        "log": [record_to_dict(rec) for rec in snap.log],
        "model": snap.model_tables,
        "config": snap.config,
        "config_fingerprint": snap.config_fingerprint,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _reject_constant(token: str):
    raise SnapshotError(f"not valid JSON: {token} is not a number")


@collector_paused()
def loads_snapshot(text: str) -> MemorySnapshot:
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SnapshotError("top level: expected an object")
    for key in _SNAPSHOT_KEYS:
        if key not in payload:
            raise SnapshotError(f"{key}: missing")
    for key in payload:
        if key not in _SNAPSHOT_KEYS:
            raise SnapshotError(f"{key}: unknown field")
    version = payload["version"]
    if not _is_count(version):
        raise SnapshotError(f"version: expected an integer, got {version!r}")
    if version > SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"version: snapshot version {version} is newer than supported {SNAPSHOT_VERSION}"
        )
    schema = schema_from_dict(payload["schema"])
    if not isinstance(payload["log"], list):
        raise SnapshotError("log: expected a list")
    log = EpisodeLog()
    previous_tick: int | None = None
    for i, item in enumerate(payload["log"]):
        rec = record_from_dict(schema, item, f"log[{i}]")
        if previous_tick is not None and rec.tick <= previous_tick:
            raise SnapshotError(f"log[{i}].tick: {rec.tick} does not increase")
        previous_tick = rec.tick
        log._records.append(rec)  # ticks may be gapped after GC
    if not isinstance(payload["model"], dict):
        raise SnapshotError("model: expected an object")
    _check_model_tables(payload["model"])
    if not isinstance(payload["config"], dict):
        raise SnapshotError("config: expected an object")
    if not isinstance(payload["config_fingerprint"], str):
        raise SnapshotError("config_fingerprint: expected a string")
    return MemorySnapshot(
        schema=schema,
        log=log,
        model_tables=payload["model"],
        config=payload["config"],
        config_fingerprint=payload["config_fingerprint"],
        version=version,
    )


@contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """A UTF-8 text file whose contents replace ``path`` only when complete.

    Text goes to a temporary file beside ``path``, renamed over it when the
    block exits cleanly.  If the block raises, the temporary file is removed
    and ``path`` keeps its old bytes (or stays absent).
    """
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(temp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


def save_snapshot(snap: MemorySnapshot, path: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(dumps_snapshot(snap))


def load_snapshot(path: str) -> MemorySnapshot:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"not UTF-8 text: {exc}") from exc
    return loads_snapshot(text)
