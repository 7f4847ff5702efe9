"""Transition model: tables, probabilities, learning rules and rebuild."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from needagent.core import PriorityProfile, UsageError, state_key
from needagent.memory import EpisodeLog, HistoryWindow, Segment, TransitionRecord
from needagent.model import (
    STRATEGY_SEGMENT,
    STRATEGY_TRANSITION_MAP,
    LearningDriver,
    LearningParams,
    TransitionModel,
    apply_global_feedback,
    learn_transition,
    novelty,
    predict_successors,
    rebuild_from_log,
    tables_equal,
)

from conftest import make_state


def make_params(step: float = 1.0, **kwargs) -> LearningParams:
    return LearningParams(
        priority=PriorityProfile(weights=(1.0, 0.0)), utility_step=step, **kwargs
    )


def make_record(
    tick: int,
    pos: int,
    next_pos: int,
    feedback: float = 0.0,
    hunger: float = 0.0,
    next_hunger: float = 0.0,
) -> TransitionRecord:
    return TransitionRecord(
        tick=tick,
        state=make_state(pos=pos, hunger=hunger, tick=tick),
        chosen_action=(False, False),
        predicted_next=None,
        reinforcement_observed=feedback,
        energy=0.0,
        next_state=make_state(pos=next_pos, hunger=next_hunger, tick=tick + 1),
    )


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------


def test_learning_params_validate_the_step():
    with pytest.raises(UsageError):
        make_params(step=0.0)
    with pytest.raises(UsageError):
        make_params(step=1.5)


def test_model_validates_window_size_and_keying():
    with pytest.raises(UsageError):
        TransitionModel(window_size=0)
    with pytest.raises(UsageError):
        TransitionModel(successor_keying="bogus")


def test_observe_rejects_windows_outside_the_depth():
    model = TransitionModel(window_size=2)
    with pytest.raises(UsageError):
        model.observe(HistoryWindow(2), make_state(), 0.0, 1.0)
    overfull = HistoryWindow(5)
    for p in (0, 1, 2):
        overfull = overfull.push(make_state(pos=p))
    with pytest.raises(UsageError):
        model.observe(overfull, make_state(), 0.0, 1.0)


# ----------------------------------------------------------------------
# observation arithmetic
# ----------------------------------------------------------------------


def test_first_observation_writes_the_full_value():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    nxt = make_state(pos=1, tick=1)
    model.observe(window, nxt, 1.0, 1.0)
    hk = state_key(window.states)
    sk = model.successor_key(nxt)
    assert model.utility[hk][sk] == 1.0
    assert model.evidence[hk][sk] == 1
    assert model.probabilities(hk) == {sk: 1.0}


def test_observe_blends_with_the_step():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    nxt = make_state(pos=1, tick=1)
    model.observe(window, nxt, 1.0, 0.5)
    model.observe(window, nxt, 1.0, 0.5)
    hk = state_key(window.states)
    sk = model.successor_key(nxt)
    assert model.utility[hk][sk] == 0.75
    assert model.evidence[hk][sk] == 2


def test_probabilities_are_evidence_shares():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    a = make_state(pos=1, tick=1)
    b = make_state(pos=2, tick=1)
    for _ in range(3):
        model.observe(window, a, 0.0, 1.0)
    model.observe(window, b, 0.0, 1.0)
    probs = model.probabilities(state_key(window.states))
    assert probs[model.successor_key(a)] == 0.75
    assert probs[model.successor_key(b)] == 0.25


def test_probabilities_require_evidence():
    with pytest.raises(UsageError):
        TransitionModel().probabilities("never seen")


@given(counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
def test_probabilities_always_sum_to_one(counts):
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    for pos, n in enumerate(counts):
        for _ in range(n):
            model.observe(window, make_state(pos=pos, tick=1), 0.0, 1.0)
    total = sum(model.probabilities(state_key(window.states)).values())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_transition_evidence_counts_observed_successors():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    nxt = make_state(pos=1, tick=1)
    assert model.transition_evidence(window, nxt) == 0
    model.observe(window, nxt, 0.0, 1.0)
    assert model.transition_evidence(window, nxt) == 1
    assert model.transition_evidence(window, make_state(pos=3)) == 0


def test_action_keying_collapses_successors_to_action_vectors():
    model = TransitionModel(successor_keying="action")
    window = HistoryWindow(1).push(make_state())
    nxt = make_state(pos=1, go=True, tick=1)
    model.observe(window, nxt, 0.5, 1.0)
    hk = state_key(window.states)
    assert model.utility[hk] == {"1,0": 0.5}
    # The successor index still stores the full state under its state key.
    assert state_key([nxt]) in model.successor_states[hk]


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------


def test_predict_successors_orders_by_expected_value():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    x = make_state(pos=1, tick=1)
    y = make_state(pos=2, tick=1)
    model.observe(window, x, 10.0, 1.0)
    model.observe(window, y, 4.0, 1.0)
    model.observe(window, y, 4.0, 1.0)
    prospects = predict_successors(model, window)
    # 10 * 1/3 beats 4 * 2/3 despite the lower probability.
    assert [p.state.feelings[0] for p in prospects] == [1, 2]
    assert prospects[0].utility == 10.0
    assert prospects[0].probability == pytest.approx(1 / 3)
    assert prospects[1].probability == pytest.approx(2 / 3)


def test_predict_successors_breaks_ties_by_ascending_key():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    model.observe(window, make_state(pos=2, tick=1), 1.0, 1.0)
    model.observe(window, make_state(pos=1, tick=1), 1.0, 1.0)
    prospects = predict_successors(model, window)
    assert [p.sort_key for p in prospects] == ["1,0", "2,0"]


def test_predict_successors_empty_for_unknown_history():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state(pos=3))
    assert predict_successors(model, window) == []


def test_predict_successors_rejects_an_empty_window():
    with pytest.raises(UsageError):
        predict_successors(TransitionModel(), HistoryWindow(1))


# ----------------------------------------------------------------------
# learning rules
# ----------------------------------------------------------------------


def test_learn_transition_uses_need_derived_reinforcement():
    model = TransitionModel()
    before = make_state(pos=0, hunger=1.0)
    after = make_state(pos=1, hunger=0.0, tick=1)
    window = HistoryWindow(1).push(before)
    learn_transition(model, window, after, None, 0.0, make_params())
    assert model.utility[state_key([before])][model.successor_key(after)] == 1.0


def test_learn_transition_charges_energy():
    model = TransitionModel()
    before = make_state(pos=0)
    after = make_state(pos=1, tick=1)
    window = HistoryWindow(1).push(before)
    learn_transition(model, window, after, None, 2.0, LearningParams(priority=PriorityProfile(weights=(1.0, 0.0), energy_weight=0.25)))
    assert model.utility[state_key([before])][model.successor_key(after)] == -0.5


def test_learn_transition_rewards_accurate_predictions():
    model = TransitionModel()
    before = make_state(pos=0)
    after = make_state(pos=1, tick=1)
    window = HistoryWindow(1).push(before)
    learn_transition(model, window, after, after, 0.0, make_params(predictability_weight=0.4))
    # A perfect prediction earns the full predictability bonus.
    assert model.utility[state_key([before])][model.successor_key(after)] == pytest.approx(0.4)


def test_learn_transition_requires_a_nonempty_window():
    with pytest.raises(UsageError):
        learn_transition(TransitionModel(), HistoryWindow(1), make_state(), None, 0.0, make_params())


def _closed_segment() -> Segment:
    records = [
        make_record(0, pos=0, next_pos=1),
        make_record(1, pos=1, next_pos=2),
        make_record(2, pos=2, next_pos=3, feedback=1.0, hunger=1.0, next_hunger=0.0),
    ]
    return Segment(records=tuple(records), terminal_reinforcement=1.0)


def test_global_feedback_applies_the_terminal_credit_uniformly():
    model = TransitionModel()
    seg = _closed_segment()
    apply_global_feedback(model, seg, make_params())
    stored = [
        model.utility[state_key([r.state])][model.successor_key(r.next_state)]
        for r in seg.records
    ]
    # The closing transition satisfies the first need completely, so every
    # transition in the segment is credited with +1.
    assert stored == [1.0, 1.0, 1.0]
    counts = [
        model.evidence[state_key([r.state])][model.successor_key(r.next_state)]
        for r in seg.records
    ]
    assert counts == [1, 1, 1]


def test_global_feedback_rejects_open_segments():
    with pytest.raises(UsageError):
        apply_global_feedback(TransitionModel(), Segment(records=()), make_params())


def test_global_feedback_builds_windows_inside_the_segment():
    model = TransitionModel(window_size=2)
    seg = _closed_segment()
    apply_global_feedback(model, seg, make_params())
    first, second = seg.records[0], seg.records[1]
    assert state_key([first.state]) in model.utility
    assert state_key([first.state, second.state]) in model.utility


# ----------------------------------------------------------------------
# derived signals
# ----------------------------------------------------------------------


def test_novelty_decays_with_familiarity():
    model = TransitionModel()
    s = make_state()
    assert novelty(model, s) == 1.0
    window = HistoryWindow(1).push(s)
    model.observe(window, make_state(pos=1, tick=1), 0.0, 1.0)
    assert novelty(model, s) == 0.5


def test_novelty_counts_appearances_on_both_sides():
    model = TransitionModel()
    s = make_state()
    other = make_state(pos=1, tick=1)
    window_s = HistoryWindow(1).push(s)
    window_other = HistoryWindow(1).push(other)
    model.observe(window_s, other, 0.0, 1.0)   # s as history head
    model.observe(window_s, other, 0.0, 1.0)   # and again
    model.observe(window_other, s, 0.0, 1.0)   # s as successor
    assert novelty(model, s) == 0.25


def test_novelty_ignores_needs_and_actions():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    model.observe(window, make_state(pos=1, tick=1), 0.0, 1.0)
    dressed = make_state(go=True, hunger=0.7, tick=9)
    assert novelty(model, dressed) == 0.5


# ----------------------------------------------------------------------
# driver and rebuild
# ----------------------------------------------------------------------


def test_driver_rejects_unknown_strategies():
    with pytest.raises(UsageError):
        LearningDriver(TransitionModel(), make_params(), "bogus")


def test_transition_map_strategy_also_learns_per_step():
    rec = make_record(0, pos=0, next_pos=1, feedback=1.0, hunger=1.0, next_hunger=0.0)
    for strategy, expected in ((STRATEGY_SEGMENT, 1), (STRATEGY_TRANSITION_MAP, 2)):
        model = TransitionModel()
        LearningDriver(model, make_params(), strategy).ingest(rec)
        hk = state_key([rec.state])
        assert model.evidence[hk][model.successor_key(rec.next_state)] == expected


def test_driver_resets_the_window_on_tick_gaps():
    model = TransitionModel(window_size=2)
    driver = LearningDriver(model, make_params(), STRATEGY_TRANSITION_MAP)
    r0 = make_record(0, pos=0, next_pos=1)
    r5 = make_record(5, pos=2, next_pos=3)
    driver.ingest(r0)
    driver.ingest(r5)
    assert state_key([r0.state, r5.state]) not in model.utility
    assert state_key([r5.state]) in model.utility


def test_driver_drops_the_open_segment_at_a_gap():
    # The record before the gap must not be credited by feedback after it.
    model = TransitionModel()
    driver = LearningDriver(model, make_params(), STRATEGY_TRANSITION_MAP)
    r0 = make_record(0, pos=0, next_pos=1)
    r5 = make_record(5, pos=2, next_pos=3, feedback=1.0)
    driver.ingest(r0)
    driver.ingest(r5)
    hk0 = state_key([r0.state])
    hk5 = state_key([r5.state])
    assert model.evidence[hk0][model.successor_key(r0.next_state)] == 1
    assert model.evidence[hk5][model.successor_key(r5.next_state)] == 2


def _synthetic_log() -> EpisodeLog:
    log = EpisodeLog()
    plan = [
        (0, 1, 0.0),
        (1, 2, 0.0),
        (2, 3, 1.0),
        (3, 0, 0.0),
        (0, 1, -1.0),
        (1, 2, 0.0),
    ]
    for tick, (pos, next_pos, fb) in enumerate(plan):
        log.append(make_record(tick, pos=pos, next_pos=next_pos, feedback=fb))
    return log


@pytest.mark.parametrize("strategy", (STRATEGY_SEGMENT, STRATEGY_TRANSITION_MAP))
def test_rebuild_matches_an_incrementally_driven_model(strategy):
    log = _synthetic_log()
    params = make_params(step=0.25)
    live = TransitionModel(window_size=2)
    driver = LearningDriver(live, params, strategy)
    for rec in log:
        driver.ingest(rec)
    rebuilt = rebuild_from_log(log, params, strategy, window_size=2)
    assert tables_equal(live.to_tables(), rebuilt.to_tables()) == []


def test_tables_equal_reports_named_differences():
    model = rebuild_from_log(_synthetic_log(), make_params(), STRATEGY_TRANSITION_MAP, 1)
    a = model.to_tables()
    b = model.to_tables()
    assert tables_equal(a, b) == []

    hk = next(iter(b["utility"]))
    sk = next(iter(b["utility"][hk]))
    b["utility"][hk][sk] += 1e-15
    assert tables_equal(a, b) != []
    assert tables_equal(a, b, utility_tolerance=1e-12) == []

    b["utility"][hk][sk] += 1.0
    assert any("utility" in p for p in tables_equal(a, b, utility_tolerance=1e-12))

    c = model.to_tables()
    c["evidence"][hk][sk] += 1
    assert "model.evidence differs" in tables_equal(a, c)

    d = model.to_tables()
    d["utility"]["9,9"] = {}
    assert "model.utility: history keys differ" in tables_equal(a, d)


def test_tables_equal_reports_a_nan_utility():
    model = rebuild_from_log(_synthetic_log(), make_params(), STRATEGY_TRANSITION_MAP, 1)
    a = model.to_tables()
    b = model.to_tables()
    hk = next(iter(b["utility"]))
    sk = next(iter(b["utility"][hk]))
    b["utility"][hk][sk] = math.nan
    for tolerance in (0.0, 1e-12, math.inf):
        problems = tables_equal(a, b, tolerance)
        assert problems == [f"model.utility[{hk!r}][{sk!r}]: {a['utility'][hk][sk]} vs nan"]
        assert len(tables_equal(b, a, tolerance)) == 1
