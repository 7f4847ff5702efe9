"""Episodic memory: the append-only transition log and its derived views.

The log is the ground truth of a run.  Each record captures one completed
transition: the state the agent was in, what it chose, what it expected, what
feedback arrived and where it ended up.  Segments slice the log between
explicit feedback events; the history window exposes the recent past to the
learner; snapshots persist log and world model together in a canonical JSON
form.  Garbage collection, which forgets old, untrusted records, lives in
:mod:`needagent.harness`, beside the model it asks for evidence.

Only the harness writes the log, and only by appending.  Records are frozen
values, so anything handed out stays bytewise stable.
"""

from __future__ import annotations

import gc
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from needagent.core import FeelingVar, StateSchema, StateVector, UsageError, state_key
from needagent.fields import STRING, FieldError, entries, items, number, optional, read, table, valid

SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot file is malformed; the message names the offending field."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by a newer format than this code supports."""


# ======================================================================
# records, segments, windows
# ======================================================================


class TransitionRecord(NamedTuple):
    """One completed transition, written once the outcome is known, as an
    immutable tuple.

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


@dataclass(frozen=True, slots=True)
class HistoryWindow:
    """The most recent states, oldest first, capped at the model's depth;
    ``key`` is their :func:`state_key`, built once (``None`` when empty)."""

    capacity: int
    states: tuple[StateVector, ...] = ()
    key: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.states) > self.capacity:
            raise UsageError(
                f"window holds {len(self.states)} states, capacity {self.capacity}"
            )
        object.__setattr__(self, "key", state_key(self.states) if self.states else None)

    def push(self, state: StateVector) -> "HistoryWindow":
        """New window with ``state`` appended and the oldest entry dropped, built by the constructor."""
        return HistoryWindow(self.capacity, (self.states + (state,))[-self.capacity :])

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
    from anywhere but the open segment, so a run with periodic GC has a log
    with tick gaps, and so does a snapshot of it.
    """

    def __init__(self, records: Iterable[TransitionRecord] = ()) -> None:
        """``records`` must already ascend by tick, gaps allowed; they are not checked again.
        A list is taken over as the log's own, not copied."""
        self._records: list[TransitionRecord] = records if type(records) is list else list(records)

    def append(self, rec: TransitionRecord) -> None:
        if self._records and rec.tick != self._records[-1].tick + 1:
            raise UsageError(
                f"tick {rec.tick} does not follow {self._records[-1].tick}"
            )
        if rec.tick < 0:
            raise UsageError(f"tick must be >= 0, got {rec.tick}")
        self._records.append(rec)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int | slice) -> TransitionRecord | list[TransitionRecord]:
        """A record, or a new list of the records in a slice."""
        return self._records[index]

    def __iter__(self) -> Iterator[TransitionRecord]:
        return iter(self._records)

    def __reversed__(self) -> Iterator[TransitionRecord]:
        return reversed(self._records)


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


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


@collector_paused()
def dumps_snapshot(snap: MemorySnapshot) -> str:
    """Canonical JSON text: sorted keys, no incidental whitespace, LF ending.

    Identical memories serialize to identical bytes.  Each section, and each log record, is encoded on its own
    and joined in key order into the text ``json.dumps`` makes of the whole payload, whose tree took 6-9x its size.
    """
    texts = {
        "version": _encode(snap.version),
        "schema": _encode(schema_to_dict(snap.schema)),
        "log": "[" + ",".join([_encode(record_to_dict(rec)) for rec in snap.log]) + "]",
        "model": _encode(snap.model_tables),
        "config": _encode(snap.config),
        "config_fingerprint": _encode(snap.config_fingerprint),
    }
    parts = ["{"]
    for name, text in sorted(texts.items()):
        parts += _encode(name), ":", text, ","
    parts[-1] = "}\n"
    return "".join(parts)


def _reject_constant(token: str):
    raise SnapshotError(f"not valid JSON: {token} is not a number")


# One table of rows per snapshot object, as for the config.  Numbers are kept
# as written, so a loaded snapshot re-encodes to the same bytes.
_INTEGER, _NUMBER, _ACTION_CODES = number(int), number(float), items(number(int, 0, 1))
_INTS, _BITS = frozenset((int,)), frozenset((0, 1))


def _signed(levels) -> bool:
    """True if a level has a minus sign, as ``-0.0`` does; checked in C."""
    return -1.0 in map(math.copysign, repeat(1.0), levels)


def _level(value):
    # -0.0 equals 0.0, so a shared state could hide it; no run writes it.
    if _NUMBER(value) == 0 and _signed((value,)):
        raise FieldError("-0.0 is not a need level")
    return value


_level.every = lambda values: _NUMBER.every(values) and not _signed(values)
_STATE = (("f", "f", items(_INTEGER)), ("a", "a", _ACTION_CODES), ("y", "y", items(_level)),
          ("tick", "tick", _INTEGER))
_STATE_KEYS, _fayt = frozenset(row[0] for row in _STATE), itemgetter("f", "a", "y", "tick")


def _canonical_state(value) -> tuple | None:
    """``(f, a, y, tick)`` of a state in the shape ``dumps_snapshot`` writes, else None: the state keys,
    integer codes and tick, 0/1 actions and float levels, none of them signed.  Any such value passes the
    state table, and ``==`` on two of them compares the types too.  Types are checked in C before any set
    or sum."""
    if type(value) is not dict or value.keys() != _STATE_KEYS:
        return None
    parts = f, a, y, tick = _fayt(value)
    if (type(f) is type(a) is type(y) is list and type(tick) is int and _INTS.issuperset(map(type, f + a))
            and _BITS.issuperset(a) and _level.every(y)):
        return parts
    return None


_STATE_VALUE = table(_STATE, required=True)
_STATE_VALUE.every = lambda values: all(map(_canonical_state, values))
_FEELING = table((("name", "name", STRING), ("cardinality", "cardinality", _INTEGER)), FeelingVar, True)
_SCHEMA = table(
    (("feelings", "feelings", items(_FEELING)), ("actions", "actions", items(STRING)),
     ("needs", "needs", items(STRING))),
    lambda feelings, actions, needs: StateSchema(tuple(feelings), tuple(actions), tuple(needs)),
    True,
)
# A missing section is left to verification, which reports it as a
# difference.  Successor states are checked, not built.
_MODEL = table((
    ("window_size", "window_size", _INTEGER),
    ("successor_keying", "successor_keying", STRING),
    ("utility", "utility", entries(entries(_NUMBER))),
    ("evidence", "evidence", entries(entries(_INTEGER))),
    ("successors", "successors", entries(entries(_STATE_VALUE))),
    ("state_seen", "state_seen", entries(_INTEGER)),
))
_SNAPSHOT = table((
    ("version", "version", number(int, 1)),
    ("schema", "schema", _SCHEMA),
    ("log", "log", valid(lambda value: type(value) is list, "expected a list")),  # the records are read by ``_log``
    ("model", "model_tables", _MODEL),
    ("config", "config", valid(lambda value: isinstance(value, dict), "expected an object")),
    ("config_fingerprint", "config_fingerprint", STRING),
), required=True)


_RECORD_FIELDS = ("tick", "state", "chosen_action", "predicted_next", "reinforcement", "energy", "next_state")
_RECORD_KEYS, _record, _RECORD_ATTRS = frozenset(_RECORD_FIELDS), itemgetter(*_RECORD_FIELDS), TransitionRecord._fields


def _log(schema: StateSchema):
    """Parser for a log's records, whose states are built on ``schema``, in one pass that names the first fault in
    log order and clears each list slot once its record is built and its tick checked.  One parser per record field
    reads a record in the shape ``dumps_snapshot`` writes, in record order; the record table runs them again only on
    a record they rejected, to name its first bad field.  A canonical state (:func:`_canonical_state`) that ``==``
    the one read last at its tick is that same object, as in a live run: a record's state is the previous one's next
    state, and a prediction is a stored successor.  Any other state is read by the state table, never shared."""

    def build(f, a, y, tick) -> StateVector:
        return StateVector(schema, tuple(f), tuple(map(bool, a)), tuple(y), tick)

    parse = table(_STATE, build, True)
    seen = {}  # tick -> the canonical value read last at that tick, and its state

    def state(value) -> StateVector:
        if (parts := _canonical_state(value)) is None:
            return parse(value)
        f, a, y, tick = parts
        earlier = seen.get(tick)
        if earlier is not None and value == earlier[0]:
            return earlier[1]
        try:  # the schema's lengths and ranges
            built = build(f, a, y, tick)
        except ValueError as exc:
            raise FieldError(str(exc)) from exc
        seen[tick] = value, built
        return built

    def action_of(value) -> tuple[bool, ...]:
        return tuple(map(bool, _ACTION_CODES(value)))

    tick_of, maybe_state = number(int, 0), optional(state)
    parsers = tick_of, state, action_of, maybe_state, _NUMBER, _NUMBER, state  # in record order
    row = table(zip(_RECORD_FIELDS, _RECORD_ATTRS, parsers), TransitionRecord, True)

    def records(log: list) -> list[TransitionRecord]:
        out, last = [], -math.inf
        for i, value in enumerate(log):
            try:
                rec = None
                if type(value) is dict and value.keys() == _RECORD_KEYS:
                    tick, now, chosen, predicted, feedback, energy, after = _record(value)
                    try:  # in record order, which decides which states are shared
                        rec = TransitionRecord(tick_of(tick), state(now), action_of(chosen), maybe_state(predicted),
                                               _NUMBER(feedback), _NUMBER(energy), state(after))
                    except FieldError:
                        pass
                if rec is None:
                    rec = row(value)  # raises the record's first bad field, named by its path
                if rec.tick <= last:
                    raise FieldError(f"{rec.tick} does not increase", ".tick")
            except FieldError as exc:
                exc.steps.append(f"[{i}]")
                raise
            out.append(rec)
            last = rec.tick
            log[i] = None
        return out

    return records


@collector_paused()
def loads_snapshot(text: str) -> MemorySnapshot:
    """The snapshot ``text`` holds, every field checked; equal number texts share one float, made per load."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant, parse_float=cache(float))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"not valid JSON: {exc}") from exc
    values = read(_SNAPSHOT, payload, SnapshotError)
    if values["version"] > SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"version: snapshot version {values['version']} is newer than supported {SNAPSHOT_VERSION}"
        )
    values["log"] = EpisodeLog(read(_log(values["schema"]), values["log"], SnapshotError, "log"))
    return MemorySnapshot(**values)


def write_files(texts: dict[str, str]) -> None:
    """Replace each path in ``texts`` with its UTF-8 text, as far as renames allow all at once.

    Each text goes to a temporary file beside its path.  Nothing is renamed
    until every text is written and no target is a directory; if anything
    fails, every temporary file made is removed, and each target not yet
    renamed over keeps its old bytes (or stays absent).
    """
    staged: dict[str, str] = {}  # temporary file -> its target, until renamed
    try:
        for path, text in texts.items():
            directory, name = os.path.split(path)
            temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
            with open(temp, "x", encoding="utf-8", newline="") as fh:
                staged[temp] = path
                fh.write(text)
        for path in filter(os.path.isdir, texts):
            raise IsADirectoryError(f"Is a directory: {path!r}")
        for temp, path in list(staged.items()):
            os.replace(temp, path)
            del staged[temp]
    finally:
        for temp in staged:
            os.remove(temp)


def save_snapshot(snap: MemorySnapshot, path: str) -> None:
    write_files({path: dumps_snapshot(snap)})


def load_snapshot(path: str) -> MemorySnapshot:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"not UTF-8 text: {exc}") from exc
    return loads_snapshot(text)
