"""Action selection: policies, candidate filtering, argmax and exploration."""

from __future__ import annotations

import dataclasses
import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needagent.core import (
    ConstraintMatrices,
    FeelingVar,
    SchemaError,
    StateSchema,
    StateVector,
    check_constraints,
    state_key,
)
from needagent import decision, harness
from needagent.decision import (
    MODE_LEXICOGRAPHIC,
    MODE_PROSPECTED,
    MODE_UTILITY_ONLY,
    MODES,
    Decision,
    DecisionError,
    DecisionPolicy,
    action_candidates,
    decide,
)
from needagent.harness import RunConfig, run
from needagent.memory import HistoryWindow
from needagent.model import SUCCESSOR_KEYINGS, Prospect, TransitionModel, predict_successors

from conftest import SCHEMA, make_state

NO_CONSTRAINTS = ConstraintMatrices.empty(SCHEMA.width)


def exploit_policy(mode: str) -> DecisionPolicy:
    return DecisionPolicy(mode=mode, exploration_rate=0.0)


def observed_model(entries, successor_keying: str = "state") -> tuple[TransitionModel, HistoryWindow]:
    """Model with one known history; entries are (state, l_value, count)."""
    model = TransitionModel(successor_keying=successor_keying)
    window = HistoryWindow(1).push(make_state(pos=3, phase=2))
    for state, l_value, count in entries:
        for _ in range(count):
            model.observe(window, state, l_value, 1.0)
    return model, window


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


def test_a_caller_may_change_its_candidates_without_changing_exploration():
    m = ConstraintMatrices.build(6, exclusion=[(2, 3)])  # go and grab exclude each other
    window = HistoryWindow(1).push(make_state())

    def explored():
        return decide(TransitionModel(), window, m, DecisionPolicy(exploration_rate=1.0), Random(5)).chosen_action

    before = explored()
    action_candidates(SCHEMA, m).clear()
    assert action_candidates(SCHEMA, m) == [(False, False), (False, True), (True, False)]
    assert explored() == before


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


def test_legal_actions_are_kept_for_the_last_schema_and_constraints_by_identity(monkeypatch):
    first = decision._legal_actions(SCHEMA, ConstraintMatrices.build(6, exclusion=[(2, 3)]))
    # Equal values as other objects, as the next run of a sweep passes them.
    schema, constraints = dataclasses.replace(SCHEMA), ConstraintMatrices.build(6, exclusion=[(2, 3)])
    legal = decision._legal_actions(schema, constraints)
    assert legal == first == ((False, False), (False, True), (True, False))
    for kind in (StateSchema, ConstraintMatrices):  # a later tick hashes and compares neither
        monkeypatch.setattr(kind, "__eq__", lambda self, other: 1 / 0)
        monkeypatch.setattr(kind, "__hash__", lambda self: 1 / 0)
    assert decision._legal_actions(schema, constraints) is legal


def test_a_width_mismatch_is_an_error_only_when_a_prospect_is_checked():
    model, window = observed_model([(make_state(go=True), 1.0, 1)])
    narrow = ConstraintMatrices.empty(SCHEMA.width - 1)
    with pytest.raises(SchemaError, match="constraints sized for 5 variables, state has 6"):
        decide(model, window, narrow, exploit_policy(MODE_PROSPECTED), Random(0))
    unknown = HistoryWindow(1).push(make_state(pos=1))
    assert decide(model, unknown, narrow, exploit_policy(MODE_PROSPECTED), Random(0)).explored


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


def test_equal_ranks_pick_the_smaller_successor_key():
    # The larger key is recorded first, so a choice by row order would fail.
    late = make_state(pos=2, tick=1)
    early = make_state(pos=1, grab=True, tick=1)
    for keying, mode in itertools.product(SUCCESSOR_KEYINGS, MODES):
        model, window = observed_model([(late, 1.0, 1), (early, 1.0, 1)], keying)
        made = decide(model, window, NO_CONSTRAINTS, exploit_policy(mode), Random(0))
        assert made.expected_state == early, (keying, mode)


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


@pytest.mark.parametrize("mode,score", [(MODE_PROSPECTED, 0.75), (MODE_UTILITY_ONLY, 1.0), (MODE_LEXICOGRAPHIC, 1.0)])
def test_exploration_expects_the_match_that_utility_times_probability_ranks_first(mode, score):
    # Two go-states: B, recorded first, has the higher utility (2.0 * 1/4);
    # A has the higher utility x probability (1.0 * 3/4).
    b = make_state(pos=1, go=True, tick=1)
    a = make_state(pos=2, go=True, tick=1)
    model, window = observed_model([(b, 2.0, 1), (a, 1.0, 3)])
    policy = DecisionPolicy(mode=mode, exploration_rate=1.0)
    went = 0
    for seed in range(40):
        made = decide(model, window, NO_CONSTRAINTS, policy, Random(seed))
        if made.chosen_action == a.actions:
            went += 1
            assert made.expected_state == a
            # The score is still the expected state's rank under the run's mode.
            assert made.score == score
    assert went


def test_a_decision_is_an_immutable_tuple_with_the_old_fields():
    assert Decision._fields == ("chosen_action", "expected_state", "score", "explored")
    model, window = _three_way_model()
    made = decide(model, window, NO_CONSTRAINTS, exploit_policy(MODE_PROSPECTED), Random(0))
    with pytest.raises(AttributeError):
        made.score = 1.0
    with pytest.raises(AttributeError):
        made.note = "new"


def test_decisions_look_up_the_traced_names(monkeypatch):
    # perfbench's tracer rebinds ``harness.decide`` and
    # ``decision.predict_successors``; a caller that bypassed either name
    # would leave its spans empty and ``prospects_per_decide`` at 0.
    calls = []
    for owner, attr in ((harness, "decide"), (decision, "predict_successors")):
        original = getattr(owner, attr)

        def counted(*args, _attr=attr, _original=original):
            calls.append(_attr)
            return _original(*args)

        monkeypatch.setattr(owner, attr, counted)
    model, window = _three_way_model()
    for rate in (0.0, 1.0):
        decide(model, window, NO_CONSTRAINTS, DecisionPolicy(exploration_rate=rate), Random(0))
    assert calls == ["predict_successors"] * 2
    run(RunConfig(seed=0, ticks=40))
    assert calls[2:] == ["decide", "predict_successors"] * 40


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
        for keying, mode in itertools.product(SUCCESSOR_KEYINGS, MODES):
            model, window = observed_model(successors, keying)
            expected = brute_force_choice(predict_successors(model, window), mode)
            made = decide(model, window, NO_CONSTRAINTS, exploit_policy(mode), Random(trial))
            assert made.chosen_action == expected.state.actions
            assert made.expected_state == expected.state
            top = expected.utility * expected.probability if mode == MODE_PROSPECTED else expected.utility
            assert made.score == top
