"""Shared test fixtures: a small synthetic schema, a state factory, and the
sharing map of a log's states.

The schema is deliberately tiny (two feelings, two actions, two needs) so
hand-computed oracles stay readable; environment tests build their own
schemas through the board helpers instead.
"""

from __future__ import annotations

import time

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


def sharing(records) -> list[tuple]:
    """Each record's states as the indices of their distinct objects, in order of first sight."""
    ids: dict = {}
    return [tuple(None if s is None else ids.setdefault(id(s), len(ids))
                  for s in (rec.state, rec.predicted_next, rec.next_state)) for rec in records]
