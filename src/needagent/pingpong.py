"""Grid ping-pong world.

A ball bounces diagonally inside a ``width x height`` grid: row 0 adjoins the
top wall, row ``height-1`` is the racket line.  Each tick the racket moves one
cell (or stays), then the ball advances.  Reaching the racket line resolves an
event: covered column means a hit (the ball bounces back up, feedback +1),
anything else is a miss (feedback -1, the ball re-serves from a seeded
pseudorandom top position).  Feedback can be delivered a fixed number of
ticks late.

The sensed state quantizes the board into feelings, echoes the last committed
action, and carries four need channels:

* ``happy`` -- satisfied by hits, actualizes by 0.1 per tick since the last
  one (hunger style, capped at 1);
* ``sad`` -- actualized to 1 by a miss, halving every quiet tick;
* ``novelty`` -- freshness of the board configuration, normally supplied by
  the world model's familiarity measure (1 for never-seen states);
* ``expectedness`` -- how far reality fell from the agent's prediction.

Continuous channel values are quantized onto a fixed grid before entering the
state, so revisited situations produce identical state keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from operator import eq
from random import Random
from typing import Callable, NamedTuple

from needagent.core import (
    ActionCost,
    ConstraintMatrices,
    FeelingVar,
    SchemaError,
    StateSchema,
    StateVector,
    energy_spent,
    feeling_key,
)

ACTION_NAMES = ("move_left", "move_right")
NEED_NAMES = ("happy", "sad", "novelty", "expectedness")

HAPPY_GROWTH_PER_TICK = 0.1
SAD_DECAY_FACTOR = 0.5

# Velocity components are +/-1; feelings carry them as codes 0/1.
_DIR_CODE = {-1: 0, 1: 1}

EVENT_HIT = "hit"
EVENT_MISS = "miss"


@dataclass(frozen=True)
class BoardConfig:
    width: int = 6
    height: int = 5
    racket_width: int = 1
    feedback_delay: int = 0
    # Need channels are snapped to multiples of 1/need_levels inside states.
    need_levels: int = 10

    def __post_init__(self) -> None:
        if self.racket_width > self.width:
            raise SchemaError(f"board.racket_width: must be <= board.width = {self.width}, got {self.racket_width}")
        try:
            float(self.need_levels)  # quantize scales by it as a float
        except OverflowError:
            raise SchemaError("board.need_levels: too large to convert to a float") from None

    @property
    def racket_positions(self) -> int:
        return self.width - self.racket_width + 1


def quantize(value: float, levels: int) -> float:
    """Snap to the nearest multiple of ``1/levels`` (half rounds up), clamped to [0, 1]."""
    snapped = math.floor(min(max(value, 0.0), 1.0) * levels + 0.5) / levels
    return min(1.0, max(0.0, snapped))


def build_schema(config: BoardConfig) -> StateSchema:
    return StateSchema(
        feelings=(
            FeelingVar("ball_col", config.width),
            FeelingVar("ball_row", config.height),
            FeelingVar("ball_dcol", 2),
            FeelingVar("ball_drow", 2),
            FeelingVar("racket_col", config.racket_positions),
        ),
        actions=ACTION_NAMES,
        needs=NEED_NAMES,
    )


def build_constraints(schema: StateSchema) -> ConstraintMatrices:
    # Moving left and right in the same tick is contradictory; both-off is the
    # legal "stay" vector.
    return ConstraintMatrices.build(
        size=schema.width,
        exclusion=[(schema.index_of("move_left"), schema.index_of("move_right"))],
    )


def build_action_cost(schema: StateSchema) -> ActionCost:
    return ActionCost(costs=(1.0,) * len(schema.actions))


class EnvStep(NamedTuple):
    """Outcome of one environment tick, as an immutable tuple."""

    state: StateVector
    feedback: float
    energy: float
    event: str | None


class PingPong:
    """The concrete grid world.  Deterministic given seed and action sequence."""

    def __init__(self, config: BoardConfig = BoardConfig()) -> None:
        self.config = config
        self._schema = build_schema(config)
        self._constraints = build_constraints(self._schema)
        self._cost = build_action_cost(self._schema)
        self._rng: Random | None = None
        # A need channel takes few distinct raw values, so each is snapped once.
        self._snap = cache(partial(quantize, levels=config.need_levels))
        self._feelings, self._needs = {}, {}  # each tuple sensed, kept once; see _sense

    def schema(self) -> StateSchema:
        return self._schema

    def constraints(self) -> ConstraintMatrices:
        return self._constraints

    # ------------------------------------------------------------------

    def reset(self, seed: int) -> StateVector:
        """Start an episode; returns the initial sensed state at tick 0."""
        self._rng = Random(seed)
        self._tick = 0
        self._serve()
        self.racket_col = (self.config.width - self.config.racket_width) // 2
        self._ticks_since_hit = 0
        self._sad_raw = 0.0
        self._pending: list[tuple[int, float]] = []  # (due tick, feedback value)
        return self._sense(action=(False,) * len(ACTION_NAMES), predicted=None)

    def _serve(self) -> None:
        assert self._rng is not None
        self.ball_col = self._rng.randrange(self.config.width)
        self.ball_row = 0
        self.ball_dcol = self._rng.choice((-1, 1))
        self.ball_drow = 1

    def step(
        self,
        action: tuple[bool, ...],
        predicted: StateVector | None = None,
        novelty: Callable[[str], float] | None = None,
    ) -> EnvStep:
        """Advance one tick with the committed action.

        ``predicted`` is the agent's expectation for the resulting state and
        only feeds the expectedness need channel.  ``novelty`` scores how
        fresh the incoming situation is (1 = never seen), given its key; the
        harness passes the world model's familiarity measure here.  Without
        it the channel reads 1, as that measure does before the model has
        seen anything.
        """
        if self._rng is None:
            raise SchemaError("environment must be reset before stepping")
        if len(action) != len(ACTION_NAMES):
            raise SchemaError(f"action vector must have {len(ACTION_NAMES)} entries")
        self._tick += 1

        # Racket first, one cell, clamped to the board.
        move = (-1 if action[0] else 0) + (1 if action[1] else 0)
        self.racket_col = min(
            max(self.racket_col + move, 0),
            self.config.width - self.config.racket_width,
        )

        # Walls reflect before the move; the ball travels with the new velocity.
        if self.ball_col == 0 and self.ball_dcol == -1:
            self.ball_dcol = 1
        elif self.ball_col == self.config.width - 1 and self.ball_dcol == 1:
            self.ball_dcol = -1
        if self.ball_row == 0 and self.ball_drow == -1:
            self.ball_drow = 1
        self.ball_col += self.ball_dcol
        self.ball_row += self.ball_drow

        event: str | None = None
        if self.ball_row == self.config.height - 1:
            covered = (
                self.racket_col <= self.ball_col < self.racket_col + self.config.racket_width
            )
            if covered:
                event = EVENT_HIT
                self.ball_drow = -1
                self._queue_feedback(1.0)
            else:
                event = EVENT_MISS
                self._queue_feedback(-1.0)
                self._serve()

        feedback = self._due_feedback()

        # Need trackers respond to delivered feedback, not to the raw event;
        # with a delay the emotional response arrives with the knowledge.
        if feedback > 0:
            self._ticks_since_hit = 0
        else:
            self._ticks_since_hit += 1
        if feedback < 0:
            self._sad_raw = 1.0
        else:
            self._sad_raw *= SAD_DECAY_FACTOR

        state = self._sense(action=action, predicted=predicted, novelty=novelty)
        return EnvStep(state, feedback, energy_spent(action, self._cost), event)

    def _queue_feedback(self, value: float) -> None:
        self._pending.append((self._tick + self.config.feedback_delay, value))

    def _due_feedback(self) -> float:
        # Events resolve on distinct ticks and the delay is constant, so the
        # queue is in due order and at most one value is due.
        pending = self._pending
        if pending and pending[0][0] <= self._tick:
            return pending.pop(0)[1]
        return 0.0

    # ------------------------------------------------------------------

    def _sense(
        self,
        action: tuple[bool, ...],
        predicted: StateVector | None,
        novelty: Callable[[str], float] | None = None,
    ) -> StateVector:
        """The sensed state.  A run senses few distinct feeling and need tuples, so its states share one tuple
        per value.  Each partition has its own dict, since ``(1, 0, 0, 0) == (1.0, 0.0, 0.0, 0.0)``."""
        feelings = (
            self.ball_col,
            self.ball_row,
            _DIR_CODE[self.ball_dcol],
            _DIR_CODE[self.ball_drow],
            self.racket_col,
        )
        novelty_raw = 1.0
        if novelty is not None:
            # Score the incoming situation by its discrete identity; the need
            # channels are filled in afterwards and do not affect freshness.
            novelty_raw = min(1.0, max(0.0, novelty(feeling_key(feelings))))
        happy_raw = min(1.0, HAPPY_GROWTH_PER_TICK * self._ticks_since_hit)
        expectedness_raw = 1.0 - _observable_similarity(predicted, feelings, action)
        snap = self._snap
        needs = (snap(happy_raw), snap(self._sad_raw), snap(novelty_raw), snap(expectedness_raw))
        return StateVector(self._schema, self._feelings.setdefault(feelings, feelings), action,
                           self._needs.setdefault(needs, needs), self._tick)


def _observable_similarity(
    predicted: StateVector | None,
    feelings: tuple[int, ...],
    action: tuple[bool, ...],
) -> float:
    """Fraction of matching sensor and action variables; 0 without a prediction.

    The need channels themselves are excluded from the comparison: they are
    being constructed while this runs, and prediction quality is about the
    external situation.
    """
    if predicted is None:
        return 0.0
    matches = sum(map(eq, predicted.feelings, feelings)) + sum(map(eq, predicted.actions, action))
    return matches / (len(feelings) + len(action))


def random_baseline(config: BoardConfig, seed: int, ticks: int) -> float | None:
    """Hit fraction of bottom-row events under uniformly random legal actions.

    Returns ``None`` when no event occurred.
    """
    env = PingPong(config)
    env.reset(seed)
    action_rng = Random(seed ^ 0x5BD1E995)
    legal = ((False, False), (True, False), (False, True))
    hits = 0
    events = 0
    for _ in range(ticks):
        outcome = env.step(action_rng.choice(legal))
        if outcome.event is not None:
            events += 1
            if outcome.event == EVENT_HIT:
                hits += 1
    if events == 0:
        return None
    return hits / events
