"""Decision engine: choose the next action from the learned prospects.

The agent scores every recorded successor of its current history and commits
the action sub-vector of the best one.  Exploration is epsilon-style over the
constraint-satisfying action vectors; an unfamiliar history always explores,
because the model has nothing to rank yet.  All ties break deterministically
on the successor key, so a seeded run reproduces its decisions exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import NamedTuple

from needagent.core import (
    ConstraintMatrices,
    StateSchema,
    StateVector,
    check_constraints,
    pairs_hold,
)
from needagent.memory import HistoryWindow
from needagent.model import TransitionModel, predict_successors

MODE_PROSPECTED = "prospected"
MODE_UTILITY_ONLY = "utility-only"
MODE_LEXICOGRAPHIC = "lexicographic"
MODES = (MODE_PROSPECTED, MODE_UTILITY_ONLY, MODE_LEXICOGRAPHIC)


class DecisionError(RuntimeError):
    """There is no state to decide from: the history window is empty."""


@dataclass(frozen=True)
class DecisionPolicy:
    """How prospects are ranked and how often the agent ignores them.

    ``prospected`` maximizes utility x probability, ``utility-only`` ignores
    probability, ``lexicographic`` ranks by utility and uses probability only
    to split utility ties.  The config reader checks both fields; a direct
    constructor trusts its caller.
    """

    mode: str = MODE_PROSPECTED
    exploration_rate: float = 0.1


class Decision(NamedTuple):
    chosen_action: tuple[bool, ...]
    expected_state: StateVector | None
    score: float
    explored: bool


# The decision rule, one order key per policy mode: the smallest key wins.  The
# first entry is the negated score, lexicographic mode adds probability as a tie
# key, and equal ranks fall back to the successor key, which is unique in a row.
_ORDER = {
    MODE_PROSPECTED: lambda p: (-(p.utility * p.probability), p.sort_key),
    MODE_UTILITY_ONLY: lambda p: (-p.utility, p.sort_key),
    MODE_LEXICOGRAPHIC: lambda p: (-p.utility, -p.probability, p.sort_key),
}


def action_candidates(
    schema: StateSchema, constraints: ConstraintMatrices
) -> list[tuple[bool, ...]]:
    """Every action vector satisfying the constraints, in canonical order.

    Only constraint pairs that lie entirely inside the action partition can
    be checked against a bare action vector; pairs involving sensor or need
    variables are resolved by the environment, not here.  Never empty: only an
    active first variable breaks a pair, so the all-off vector (or ``()``) holds.
    """
    offset = len(schema.feelings)
    n = len(schema.actions)
    inside = constraints.within(range(offset, offset + n))
    feelings = (0,) * offset  # canonical indices put the feelings first
    return [
        bits
        for bits in itertools.product((False, True), repeat=n)
        if pairs_hold(feelings + bits, inside)
    ]


_last: tuple = (None, None, ())  # the schema and constraints ``decide`` explored with last, and their actions


def _legal_actions(schema: StateSchema, constraints: ConstraintMatrices) -> tuple:
    """The legal action vectors, as a tuple no caller can change.  Only the last pair is kept, by
    identity: a run passes the same two objects on every tick, so no schema is hashed to look it up."""
    global _last
    last = _last  # read once: the tuple is replaced whole, never changed
    if last[0] is not schema or last[1] is not constraints:
        last = _last = schema, constraints, tuple(action_candidates(schema, constraints))
    return last[2]


def decide(
    model: TransitionModel,
    history: HistoryWindow,
    constraints: ConstraintMatrices,
    policy: DecisionPolicy,
    rng: Random,
) -> Decision:
    """Pick the next action, exploring or exploiting the model.

    With probability ``exploration_rate`` (and always when the history has no
    recorded successors, or none that satisfy the constraints) a uniformly
    random legal action is taken; it expects the matching prospect that utility
    x probability ranks first, in every mode.  Otherwise the constraint-satisfying
    prospect that the mode ranks first wins and its action sub-vector is committed.
    """
    if len(history) == 0:
        raise DecisionError("cannot decide on an empty history window")
    schema = history.states[-1].schema
    explore_draw = rng.random() < policy.exploration_rate
    prospects = predict_successors(model, history)
    valid = [p for p in prospects if check_constraints(p.state, constraints)]
    order = _ORDER[policy.mode]
    if explore_draw or not valid:
        candidates = _legal_actions(schema, constraints)
        chosen = candidates[rng.randrange(len(candidates))]
        expected = min((p for p in valid if p.state.actions == chosen), key=_ORDER[MODE_PROSPECTED], default=None)
        if expected is None:
            return Decision(chosen, None, 0.0, True)
        return Decision(chosen, expected.state, -order(expected)[0], True)
    best = min(valid, key=order)
    return Decision(best.state.actions, best.state, -order(best)[0], False)
