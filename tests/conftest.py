"""Shared test fixtures: a small synthetic schema, a state factory, and
switches that make the snapshot log read by one of its two readers.

The schema is deliberately tiny (two feelings, two actions, two needs) so
hand-computed oracles stay readable; environment tests build their own
schemas through the board helpers instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from needagent import memory
from needagent.core import FeelingVar, StateSchema, StateVector

# Wall-clock origin for the whole pytest session; conftest is imported once
# at collection start, before any test runs.
SUITE_START = time.monotonic()

SCHEMA = StateSchema(
    feelings=(FeelingVar("pos", 4), FeelingVar("phase", 3)),
    actions=("go", "grab"),
    needs=("hunger", "rest"),
)


def make_state(
    pos: int = 0,
    phase: int = 0,
    go: bool = False,
    grab: bool = False,
    hunger: float = 0.0,
    rest: float = 0.0,
    tick: int = 0,
) -> StateVector:
    return StateVector(
        schema=SCHEMA,
        feelings=(pos, phase),
        actions=(go, grab),
        needs=(hunger, rest),
        tick=tick,
    )


@contextmanager
def row_walk():
    """``loads_snapshot`` with its straight pass declining every log, so the row walk reads it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "_straight_log", lambda schema, log: None)
        yield


@contextmanager
def straight_only():
    """``loads_snapshot`` with a row walk that fails the test if the straight pass declines."""

    def walk(schema):
        raise AssertionError("the straight pass declined")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "_log", walk)
        yield


def sharing(records) -> list[tuple]:
    """Each record's states as the indices of their distinct objects, in order of first sight."""
    ids: dict = {}
    return [tuple(None if s is None else ids.setdefault(id(s), len(ids))
                  for s in (rec.state, rec.predicted_next, rec.next_state)) for rec in records]
