"""Action selection: policies, candidate filtering, argmax and exploration."""

from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needagent.core import (
    ConstraintMatrices,
    FeelingVar,
    StateSchema,
    StateVector,
    check_constraints,
    state_key,
)
from needagent.decision import (
    MODE_LEXICOGRAPHIC,
    MODE_PROSPECTED,
    MODE_UTILITY_ONLY,
    MODES,
    DecisionError,
    DecisionPolicy,
    action_candidates,
    decide,
)
from needagent.memory import HistoryWindow
from needagent.model import Prospect, TransitionModel, predict_successors

from conftest import SCHEMA, make_state

NO_CONSTRAINTS = ConstraintMatrices.empty(SCHEMA.width)


def exploit_policy(mode: str) -> DecisionPolicy:
    return DecisionPolicy(mode=mode, exploration_rate=0.0)


def observed_model(entries) -> tuple[TransitionModel, HistoryWindow]:
    """Model with one known history; entries are (state, l_value, count)."""
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state(pos=3, phase=2))
    for state, l_value, count in entries:
        for _ in range(count):
            model.observe(window, state, l_value, 1.0)
    return model, window


# ----------------------------------------------------------------------
# policy and scoring
# ----------------------------------------------------------------------


def test_policy_validates_mode_and_rate():
    with pytest.raises(DecisionError):
        DecisionPolicy(mode="bogus")
    with pytest.raises(DecisionError):
        DecisionPolicy(exploration_rate=1.5)
    with pytest.raises(DecisionError):
        DecisionPolicy(exploration_rate=-0.1)


# ----------------------------------------------------------------------
# candidate enumeration
# ----------------------------------------------------------------------


def test_action_candidates_respect_exclusion():
    m = ConstraintMatrices.build(6, exclusion=[(2, 3)])  # go vs grab
    cands = action_candidates(SCHEMA, m)
    assert set(cands) == {(False, False), (True, False), (False, True)}


def test_action_candidates_respect_dependency():
    m = ConstraintMatrices.build(6, dependency=[(3, 2)])  # grab requires go
    cands = action_candidates(SCHEMA, m)
    assert set(cands) == {(False, False), (True, False), (True, True)}


def test_action_candidates_ignore_pairs_outside_the_action_partition():
    m = ConstraintMatrices.build(6, exclusion=[(0, 5)])  # pos vs rest
    assert len(action_candidates(SCHEMA, m)) == 4


_WIDE = StateSchema(
    feelings=(FeelingVar("pos", 3),), actions=("a", "b", "c", "d"), needs=("hunger", "rest")
)
_WIDE_ACTIONS = set(range(1, 5))
_pairs = st.tuples(st.integers(0, _WIDE.width - 1), st.integers(0, _WIDE.width - 1)).filter(
    lambda p: p[0] != p[1]
)


@settings(max_examples=200)
@given(exclusion=st.lists(_pairs, max_size=6), dependency=st.lists(_pairs, max_size=6))
def test_action_candidates_match_a_brute_force_constraint_filter(exclusion, dependency):
    exclusion = {(min(p), max(p)) for p in exclusion}
    dependency = {p for p in dependency if (min(p), max(p)) not in exclusion}
    constraints = ConstraintMatrices.build(_WIDE.width, exclusion, dependency)
    # Only pairs inside the action partition apply; the rest must be ignored.
    inside = ConstraintMatrices.build(
        _WIDE.width,
        [p for p in exclusion if set(p) <= _WIDE_ACTIONS],
        [p for p in dependency if set(p) <= _WIDE_ACTIONS],
    )
    expected = [
        bits
        for bits in itertools.product((False, True), repeat=4)
        if check_constraints(StateVector(_WIDE, (0,), bits, (0.0, 0.0)), inside)
    ]
    assert action_candidates(_WIDE, constraints) == expected


# ----------------------------------------------------------------------
# exploitation
# ----------------------------------------------------------------------


def _three_way_model() -> tuple[TransitionModel, HistoryWindow]:
    # A: high utility, rare.  B: same utility as C is not at stake; B is
    # mid utility and common.  Designed so every mode picks differently.
    a = make_state(pos=0, go=False, grab=False, tick=1)
    b = make_state(pos=1, go=True, grab=False, tick=1)
    return observed_model([(a, 4.0, 1), (b, 3.0, 3)])


def test_prospected_mode_weighs_utility_by_probability():
    model, window = _three_way_model()
    decision = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_PROSPECTED), Random(0))
    # 3.0 * 0.75 beats 4.0 * 0.25.
    assert decision.chosen_action == (True, False)
    assert decision.score == pytest.approx(2.25)
    assert not decision.explored
    assert decision.expected_state is not None
    assert decision.expected_state.feelings[0] == 1


def test_utility_only_mode_ignores_probability():
    model, window = _three_way_model()
    decision = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_UTILITY_ONLY), Random(0))
    assert decision.chosen_action == (False, False)
    assert decision.score == pytest.approx(4.0)


def test_lexicographic_mode_breaks_utility_ties_by_probability():
    a = make_state(pos=1, go=False, grab=False, tick=1)
    b = make_state(pos=2, go=True, grab=False, tick=1)
    model, window = observed_model([(a, 3.0, 1), (b, 3.0, 3)])
    lexi = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_LEXICOGRAPHIC), Random(0))
    assert lexi.chosen_action == (True, False)
    # With probability out of the rank entirely, the tie falls back to the
    # smaller successor key instead.
    plain = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_UTILITY_ONLY), Random(0))
    assert plain.chosen_action == (False, False)


def test_exploit_is_scale_invariant():
    model, window = _three_way_model()
    before = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_PROSPECTED), Random(0))
    hk = state_key(window.states)
    for sk in model.utility[hk]:
        model.utility[hk][sk] *= 3.7
    after = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_PROSPECTED), Random(0))
    assert before.chosen_action == after.chosen_action


def test_constraints_filter_prospects_before_ranking():
    # The only recorded successor activates both actions, which the
    # exclusion forbids, so the agent must fall back to exploring.
    both = make_state(pos=1, go=True, grab=True, tick=1)
    model, window = observed_model([(both, 9.0, 1)])
    m = ConstraintMatrices.build(6, exclusion=[(2, 3)])
    decision = decide(model, window, m, exploit_policy(MODE_PROSPECTED), Random(0))
    assert decision.explored
    assert decision.chosen_action != (True, True)


# ----------------------------------------------------------------------
# exploration
# ----------------------------------------------------------------------


def test_unknown_history_forces_exploration():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    decision = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_PROSPECTED), Random(0))
    assert decision.explored
    assert decision.expected_state is None
    assert decision.score == 0.0


def test_exploration_draw_is_uniform_over_candidates():
    model, window = _three_way_model()
    policy = DecisionPolicy(mode=MODE_PROSPECTED, exploration_rate=1.0)
    rng = Random(42)
    mirror = Random(42)
    mirror.random()  # the exploration draw happens first
    expected = action_candidates(SCHEMA, NO_CONSTRAINTS)[mirror.randrange(4)]
    decision = decide(model, window, NO_CONSTRAINTS, policy, rng)
    assert decision.explored
    assert decision.chosen_action == expected


def test_exploration_reports_the_matching_prospect_when_one_exists():
    model, window = _three_way_model()
    policy = DecisionPolicy(mode=MODE_PROSPECTED, exploration_rate=1.0)
    seen_none = seen_match = False
    for seed in range(40):
        decision = decide(model, window, NO_CONSTRAINTS, policy, Random(seed))
        if decision.expected_state is None:
            assert decision.score == 0.0
            seen_none = True
        else:
            assert decision.expected_state.actions == decision.chosen_action
            seen_match = True
    assert seen_none and seen_match


def test_decide_rejects_an_empty_window():
    with pytest.raises(DecisionError):
        decide(TransitionModel(), HistoryWindow(1), NO_CONSTRAINTS, exploit_policy(MODE_PROSPECTED), Random(0))


# ----------------------------------------------------------------------
# brute-force oracle
# ----------------------------------------------------------------------


def brute_force_choice(prospects: list[Prospect], mode: str) -> Prospect:
    """Independent argmax: scan for the top rank, then the smallest key."""
    if mode == MODE_LEXICOGRAPHIC:
        top_u = max(p.utility for p in prospects)
        tied = [p for p in prospects if p.utility == top_u]
        top_p = max(p.probability for p in tied)
        tied = [p for p in tied if p.probability == top_p]
    else:
        def value(p: Prospect) -> float:
            return p.utility * p.probability if mode == MODE_PROSPECTED else p.utility

        top = max(value(p) for p in prospects)
        tied = [p for p in prospects if value(p) == top]
    return min(tied, key=lambda p: p.sort_key)


def test_decide_matches_the_brute_force_oracle():
    rng = Random(1234)
    feelings = [(pos, phase) for pos in range(4) for phase in range(3)]
    for trial in range(30):
        successors = []
        rng.shuffle(feelings)
        for pos, phase in feelings[: rng.randint(2, 8)]:
            state = make_state(
                pos=pos,
                phase=phase,
                go=rng.random() < 0.5,
                grab=rng.random() < 0.5,
                tick=1,
            )
            # Small value grids force plenty of exact ties.
            successors.append((state, float(rng.randint(-1, 2)), rng.randint(1, 3)))
        model, window = observed_model(successors)
        for mode in MODES:
            expected = brute_force_choice(predict_successors(model, window), mode)
            decision = decide(model, window, NO_CONSTRAINTS, exploit_policy(mode), Random(trial))
            assert decision.chosen_action == expected.state.actions
            assert decision.expected_state == expected.state
