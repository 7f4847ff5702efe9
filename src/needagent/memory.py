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
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, TextIO

from needagent.core import FeelingVar, StateSchema, StateVector, UsageError, state_key
from needagent.fields import FieldError, entries, items, number, optional, read, table, valid

SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot file is malformed; the message names the offending field."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by a newer format than this code supports."""


# ======================================================================
# records, segments, windows
# ======================================================================


@dataclass(frozen=True, slots=True)
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


_set = object.__setattr__


@dataclass(frozen=True, slots=True)
class HistoryWindow:
    """The most recent states, oldest first, capped at the model's depth;
    ``key`` is their :func:`state_key`, built once (``None`` when empty)."""

    capacity: int
    states: tuple[StateVector, ...] = ()
    key: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise UsageError(f"window capacity must be >= 1, got {self.capacity}")
        if len(self.states) > self.capacity:
            raise UsageError(
                f"window holds {len(self.states)} states, capacity {self.capacity}"
            )
        _set(self, "key", state_key(self.states) if self.states else None)

    def push(self, state: StateVector) -> "HistoryWindow":
        """New window with ``state`` appended and the oldest entry dropped;
        the capacity was checked when this one was made."""
        window = object.__new__(HistoryWindow)
        states = (self.states + (state,))[-self.capacity :]
        _set(window, "capacity", self.capacity)
        _set(window, "states", states)
        _set(window, "key", state_key(states))
        return window

    def __len__(self) -> int:
        return len(self.states)


class HistoryWalk:
    """The history window of each record of a log, built the one way learning builds it.

    After :meth:`advance`, ``learned`` is the record's window and ``window`` is
    it with ``next_state`` pushed, the history of the next decision.  A record
    after a tick gap starts afresh.  One whose ``state`` is the previous
    ``next_state`` object (a live run or a loaded log) reuses ``window``; any
    other pushes its ``state`` onto the previous ``learned``.
    """

    __slots__ = ("learned", "window", "_empty", "_next_tick")

    def __init__(self, capacity: int) -> None:
        self._empty = self.learned = self.window = HistoryWindow(capacity)
        self._next_tick: int | None = None

    def advance(self, rec: TransitionRecord) -> bool:
        """Move to ``rec``; True if it starts from an empty window."""
        fresh = rec.tick != self._next_tick
        self._next_tick = rec.tick + 1
        if fresh:
            learned = self._empty.push(rec.state)
        elif rec.state is self.window.states[-1]:
            learned = self.window
        else:
            learned = self.learned.push(rec.state)
        self.learned = learned
        self.window = learned.push(rec.next_state)
        return fresh


# ======================================================================
# the log
# ======================================================================


class EpisodeLog:
    """Append-only sequence of transition records with ascending ticks.

    Appends must continue the last tick.  Garbage collection removes records
    from anywhere but the open tail, so a run with periodic GC has a log with
    tick gaps, and so does a snapshot of it.
    """

    def __init__(self, records: Iterable[TransitionRecord] = ()) -> None:
        """``records`` must already ascend by tick, gaps allowed; they are not checked again."""
        self._records: list[TransitionRecord] = list(records)

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
    if not records or retention_horizon == math.inf:
        return EpisodeLog(records)
    start = bisect_left(records, trusted_below, key=attrgetter("tick"))
    latest = records[-1].tick
    protected = {rec.tick for rec in log.open_tail()}
    survivors = records[:start]
    for rec in records[start:]:
        old = latest - rec.tick >= retention_horizon
        if rec.tick in protected or not old or evidence(rec) >= min_trust:
            survivors.append(rec)
    return EpisodeLog(survivors)


# ======================================================================
# serialization
# ======================================================================


def schema_to_dict(schema: StateSchema) -> dict:
    return {
        "feelings": [{"name": f.name, "cardinality": f.cardinality} for f in schema.feelings],
        "actions": list(schema.actions),
        "needs": list(schema.needs),
    }


def state_to_dict(state: StateVector) -> dict:
    return {
        "f": list(state.feelings),
        "a": [1 if a else 0 for a in state.actions],
        "y": list(state.needs),
        "tick": state.tick,
    }


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


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector for the block.

    Decoding, encoding or replaying a snapshot builds millions of containers
    (JSON values, states, records), none of which can form a cycle, yet their
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


# One table of rows per snapshot object, as for the config.  Numbers are kept
# as written, so a loaded snapshot re-encodes to the same bytes.
_INTEGER, _NUMBER, _ACTION_CODES = number(int), number(float), items(number(int, 0, 1))
_STRING = valid(lambda value: isinstance(value, str), "expected a string")


def _signed(levels) -> bool:
    """True if a level has a minus sign, as ``-0.0`` does; checked in C."""
    return -1.0 in [*map(math.copysign, repeat(1.0), levels)]


def _level(value):
    # -0.0 equals 0.0, so a shared state could hide it; no run writes it.
    if _NUMBER(value) == 0 and _signed((value,)):
        raise FieldError("-0.0 is not a need level")
    return value


_level.every = lambda values: _NUMBER.every(values) and not _signed(values)
_STATE = (("f", "f", items(_INTEGER)), ("a", "a", _ACTION_CODES), ("y", "y", items(_level)),
          ("tick", "tick", _INTEGER))
_FEELING = table((("name", "name", _STRING), ("cardinality", "cardinality", _INTEGER)), FeelingVar, True)
_SCHEMA = table(
    (("feelings", "feelings", items(_FEELING)), ("actions", "actions", items(_STRING)),
     ("needs", "needs", items(_STRING))),
    lambda feelings, actions, needs: StateSchema(tuple(feelings), tuple(actions), tuple(needs)),
    True,
)
# A missing section is left to verification, which reports it as a
# difference.  Successor states are checked, not built.
_MODEL = table((
    ("window_size", "window_size", _INTEGER),
    ("successor_keying", "successor_keying", _STRING),
    ("utility", "utility", entries(entries(_NUMBER))),
    ("evidence", "evidence", entries(entries(_INTEGER))),
    ("successors", "successors", entries(entries(table(_STATE, required=True)))),
    ("state_seen", "state_seen", entries(_INTEGER)),
))
_SNAPSHOT = table((
    ("version", "version", _INTEGER),
    ("schema", "schema", _SCHEMA),
    ("log", "log", lambda value: value),  # read by ``_log`` once the schema is known
    ("model", "model_tables", _MODEL),
    ("config", "config", valid(lambda value: isinstance(value, dict), "expected an object")),
    ("config_fingerprint", "config_fingerprint", _STRING),
), required=True)


def _log(schema: StateSchema):
    """Parser for the log, whose states are built on ``schema``.  A state whose value equals the one read
    last at its tick, types included, is that same object, as in a live run: a record's state is the
    previous one's next state, and a prediction is a stored successor."""
    parse = table(_STATE, lambda f, a, y, tick: StateVector(schema, tuple(f), tuple(map(bool, a)), tuple(y), tick),
                  True)
    seen = {}  # tick -> the value read last at that tick, and its state
    types = lambda value: [*map(type, value["f"] + value["a"] + value["y"])]

    def state(value) -> StateVector:
        tick = value.get("tick") if type(value) is dict else None
        earlier = seen.get(tick) if type(tick) is int else None
        if earlier is None or value != earlier[0] or types(value) != types(earlier[0]) or _signed(value["y"]):
            earlier = seen[tick] = value, parse(value)
        return earlier[1]

    return items(table((
        ("tick", "tick", _INTEGER),
        ("state", "state", state),
        ("chosen_action", "chosen_action", lambda value: tuple(map(bool, _ACTION_CODES(value)))),
        ("predicted_next", "predicted_next", optional(state)),
        ("reinforcement", "reinforcement_observed", _NUMBER),
        ("energy", "energy", _NUMBER),
        ("next_state", "next_state", state),
    ), TransitionRecord, True))


@collector_paused()
def loads_snapshot(text: str) -> MemorySnapshot:
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"not valid JSON: {exc}") from exc
    values = read(_SNAPSHOT, payload, SnapshotError)
    if values["version"] > SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"version: snapshot version {values['version']} is newer than supported {SNAPSHOT_VERSION}"
        )
    records = read(_log(values["schema"]), values["log"], SnapshotError, "log")
    for i in range(1, len(records)):
        if records[i].tick <= records[i - 1].tick:
            raise SnapshotError(f"log[{i}].tick: {records[i].tick} does not increase")
    values["log"] = EpisodeLog(records)
    return MemorySnapshot(**values)


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
