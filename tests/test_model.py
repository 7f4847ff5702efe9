"""Transition model: tables, probabilities, learning rules and rebuild."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
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
    assert novelty(model, s.key) == 1.0
    window = HistoryWindow(1).push(s)
    model.observe(window, make_state(pos=1, tick=1), 0.0, 1.0)
    assert novelty(model, s.key) == 0.5


def test_novelty_counts_appearances_on_both_sides():
    model = TransitionModel()
    s = make_state()
    other = make_state(pos=1, tick=1)
    window_s = HistoryWindow(1).push(s)
    window_other = HistoryWindow(1).push(other)
    model.observe(window_s, other, 0.0, 1.0)   # s as history head
    model.observe(window_s, other, 0.0, 1.0)   # and again
    model.observe(window_other, s, 0.0, 1.0)   # s as successor
    assert novelty(model, s.key) == 0.25


def test_novelty_ignores_needs_and_actions():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    model.observe(window, make_state(pos=1, tick=1), 0.0, 1.0)
    dressed = make_state(go=True, hunger=0.7, tick=9)
    assert novelty(model, dressed.key) == 0.5


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


def _shared(log: EpisodeLog) -> EpisodeLog:
    """The same records, each state the previous record's ``next_state``
    object where it equals it, as in a live run or a loaded log."""
    records, last = [], None
    for rec in log:
        if last is not None and rec.state == last:
            rec = dataclasses.replace(rec, state=last)
        records.append(rec)
        last = rec.next_state
    return EpisodeLog(records)


def _reference_tables(log, params: LearningParams, strategy: str, window_size: int) -> dict:
    """Learn ``log`` with windows built by pushing each record's state onto
    the window learned on last, resetting it and the segment at tick gaps."""
    model = TransitionModel(window_size=window_size)
    window, segment, previous = HistoryWindow(window_size), [], None
    for rec in log:
        if previous is not None and rec.tick != previous + 1:
            window, segment = HistoryWindow(window_size), []
        previous = rec.tick
        window = HistoryWindow(window_size, (window.states + (rec.state,))[-window_size:])
        if strategy == STRATEGY_TRANSITION_MAP:
            learn_transition(model, window, rec.next_state, rec.predicted_next, rec.energy, params)
        segment.append(rec)
        if rec.reinforcement_observed != 0:
            apply_global_feedback(model, Segment(tuple(segment), rec.reinforcement_observed), params)
            segment = []
    return model.to_tables()


@pytest.mark.parametrize("window_size", (1, 3))
@pytest.mark.parametrize("shared", (True, False), ids=("shared", "equal"))
def test_the_driver_window_ends_in_the_next_state(window_size, shared):
    log = _shared(_synthetic_log()) if shared else _synthetic_log()
    driver = LearningDriver(TransitionModel(window_size=window_size), make_params(), STRATEGY_SEGMENT)
    assert driver.window.states == ()
    for rec in log:
        driver.ingest(rec)
        assert driver.window.states[-1] is rec.next_state
        assert driver.window.key == state_key(driver.window.states)
        assert len(driver.window) == min(rec.tick + 2, window_size)


@pytest.mark.parametrize("window_size", (1, 3))
@pytest.mark.parametrize("strategy", (STRATEGY_SEGMENT, STRATEGY_TRANSITION_MAP))
def test_an_equal_state_learns_as_the_shared_one(window_size, strategy):
    log = _synthetic_log()
    shared = _shared(log)
    assert all(a.state == b.state for a, b in zip(log, shared))
    assert sum(a.state is not b.state for a, b in zip(log, shared)) == len(log) - 1
    params = make_params(step=0.25)
    tables = rebuild_from_log(log, params, strategy, window_size).to_tables()
    assert tables_equal(tables, rebuild_from_log(shared, params, strategy, window_size).to_tables()) == []
    assert tables_equal(tables, _reference_tables(log, params, strategy, window_size)) == []


def test_a_state_other_than_the_last_next_state_is_pushed_on_the_learned_window():
    # Record 1 starts where record 0 did not end: it is learned on
    # [r0.state, r1.state], never on a window holding r0.next_state.
    r0 = make_record(0, pos=0, next_pos=1)
    r1 = make_record(1, pos=2, next_pos=3, feedback=1.0)
    r2 = make_record(2, pos=3, next_pos=0)
    log = _shared(EpisodeLog([r0, r1, r2]))
    assert log.records[1].state is r1.state and log.records[2].state is r1.next_state
    model = TransitionModel(window_size=3)
    driver = LearningDriver(model, make_params(), STRATEGY_TRANSITION_MAP)
    for rec in log:
        driver.ingest(rec)
    assert state_key([r0.state, r1.state]) in model.utility
    assert state_key([r0.state, r1.state, r2.state]) in model.utility
    assert not any("1,0" in key.split("|") for key in model.utility)
    assert driver.window.states == (r1.state, r2.state, r2.next_state)
    assert tables_equal(model.to_tables(), _reference_tables(log, make_params(), STRATEGY_TRANSITION_MAP, 3)) == []


_RECORDS = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.sampled_from((0.0, 0.0, 1.0, -1.0)),
        st.sampled_from(("follow", "follow", "equal", "other")), st.integers(1, 3),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(plan=_RECORDS, window_size=st.integers(1, 3),
       strategy=st.sampled_from((STRATEGY_SEGMENT, STRATEGY_TRANSITION_MAP)))
def test_the_driver_learns_any_log_as_the_reference_walk(plan, window_size, strategy):
    # Records that follow share the previous next_state, equal ones copy it,
    # other ones start elsewhere; a tick step above 1 is a gap.
    records, tick = [], 0
    for pos, next_pos, feedback, link, step in plan:
        if records and step == 1:
            last = records[-1].next_state
            state = {"follow": last, "equal": dataclasses.replace(last),
                     "other": make_state(pos=(last.feelings[0] + 1) % 4, tick=tick)}[link]
        else:
            state = make_state(pos=pos, tick=tick)
        records.append(TransitionRecord(tick, state, (False, False), None, feedback, 0.0,
                                        make_state(pos=next_pos, hunger=abs(feedback), tick=tick + 1)))
        tick += step
    params = make_params(step=0.5)
    rebuilt = rebuild_from_log(records, params, strategy, window_size).to_tables()
    assert tables_equal(rebuilt, _reference_tables(records, params, strategy, window_size)) == []


def test_the_driver_window_starts_afresh_after_a_gap():
    driver = LearningDriver(TransitionModel(window_size=3), make_params(), STRATEGY_TRANSITION_MAP)
    r0, r1, r5 = make_record(0, pos=0, next_pos=1), make_record(1, pos=1, next_pos=2), make_record(5, pos=2, next_pos=3)
    for rec in _shared(EpisodeLog([r0, r1])):
        driver.ingest(rec)
    assert len(driver.window) == 3
    driver.ingest(r5)
    assert driver.window.states == (r5.state, r5.next_state)


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

    b["utility"][hk][sk] += 1.0
    assert any("utility" in p for p in tables_equal(a, b))

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
    problems = tables_equal(a, b)
    assert problems == [f"model.utility[{hk!r}][{sk!r}]: {a['utility'][hk][sk]} vs nan"]
    assert len(tables_equal(b, a)) == 1
