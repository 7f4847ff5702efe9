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

from needagent.core import (
    ConstraintMatrices,
    StateSchema,
    StateVector,
    check_constraints,
    pairs_hold,
)
from needagent.memory import HistoryWindow
from needagent.model import Prospect, TransitionModel, predict_successors

MODE_PROSPECTED = "prospected"
MODE_UTILITY_ONLY = "utility-only"
MODE_LEXICOGRAPHIC = "lexicographic"
MODES = (MODE_PROSPECTED, MODE_UTILITY_ONLY, MODE_LEXICOGRAPHIC)


class DecisionError(RuntimeError):
    """No constraint-satisfying action exists."""


@dataclass(frozen=True)
class DecisionPolicy:
    """How prospects are ranked and how often the agent ignores them.

    ``prospected`` maximizes utility x probability, ``utility-only`` ignores
    probability, ``lexicographic`` ranks by utility and uses probability only
    to split utility ties.
    """

    mode: str = MODE_PROSPECTED
    exploration_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise DecisionError(f"unknown policy mode {self.mode!r}")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise DecisionError(
                f"exploration_rate must be in [0, 1], got {self.exploration_rate}"
            )


@dataclass(frozen=True)
class Decision:
    chosen_action: tuple[bool, ...]
    expected_state: StateVector | None
    score: float
    explored: bool


def _rank(prospect: Prospect, policy: DecisionPolicy) -> tuple[float, ...]:
    # The first entry is the prospect's score; lexicographic mode adds
    # probability as a tie key, not as part of the score.
    if policy.mode == MODE_PROSPECTED:
        return (prospect.utility * prospect.probability,)
    if policy.mode == MODE_UTILITY_ONLY:
        return (prospect.utility,)
    return (prospect.utility, prospect.probability)


def _best(prospects: list[Prospect], policy: DecisionPolicy) -> Prospect:
    # Highest rank wins; equal ranks fall back to the smaller successor key.
    def order(p: Prospect):
        return tuple(-value for value in _rank(p, policy)) + (p.sort_key,)

    return min(prospects, key=order)


def action_candidates(
    schema: StateSchema, constraints: ConstraintMatrices
) -> list[tuple[bool, ...]]:
    """Every action vector satisfying the constraints, in canonical order.

    Only constraint pairs that lie entirely inside the action partition can
    be checked against a bare action vector; pairs involving sensor or need
    variables are resolved by the environment, not here.
    """
    offset = len(schema.feelings)
    n = len(schema.actions)
    inside = constraints.within(range(offset, offset + n))
    feelings = (0,) * offset  # canonical indices put the feelings first
    candidates = [
        bits
        for bits in itertools.product((False, True), repeat=n)
        if pairs_hold(feelings + bits, inside)
    ]
    if not candidates:
        raise DecisionError("no action vector satisfies the constraints")
    return candidates


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
    random legal action is taken.  Otherwise the constraint-satisfying
    prospect with the best score wins and its action sub-vector is committed.
    """
    if len(history) == 0:
        raise DecisionError("cannot decide on an empty history window")
    schema = history.states[-1].schema
    explore_draw = rng.random() < policy.exploration_rate
    prospects = predict_successors(model, history)
    valid = [p for p in prospects if check_constraints(p.state, constraints)]
    if explore_draw or not valid:
        candidates = action_candidates(schema, constraints)
        chosen = candidates[rng.randrange(len(candidates))]
        expected = next((p for p in valid if p.state.actions == chosen), None)
        return Decision(
            chosen_action=chosen,
            expected_state=None if expected is None else expected.state,
            score=0.0 if expected is None else _rank(expected, policy)[0],
            explored=True,
        )
    best = _best(valid, policy)
    return Decision(
        chosen_action=best.state.actions,
        expected_state=best.state,
        score=_rank(best, policy)[0],
        explored=False,
    )
