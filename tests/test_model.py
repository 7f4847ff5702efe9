"""Transition model: tables, probabilities, learning rules and rebuild."""

from __future__ import annotations

import dataclasses
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import needagent.model as model_module
from needagent.core import ConstraintMatrices, PriorityProfile, UsageError, reinforcement, state_distance, state_key
from needagent.decision import MODES, DecisionPolicy, decide
from needagent.harness import RunConfig, run
from needagent.memory import EpisodeLog, HistoryWindow, Segment, TransitionRecord
from needagent.model import (
    STRATEGY_SEGMENT,
    STRATEGY_TRANSITION_MAP,
    SUCCESSOR_KEYINGS,
    LearningDriver,
    LearningParams,
    Prospect,
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


def by_key(prospects: list[Prospect]) -> dict[str, Prospect]:
    """The prospects keyed by their sort key, which is unique in a row."""
    keyed = {p.sort_key: p for p in prospects}
    assert len(keyed) == len(prospects)
    return keyed


def test_predict_successors_pairs_each_successor_with_its_utility_and_probability():
    model = TransitionModel()
    window = HistoryWindow(1).push(make_state())
    x = make_state(pos=1, tick=1)
    y = make_state(pos=2, tick=1)
    model.observe(window, x, 10.0, 1.0)
    model.observe(window, y, 4.0, 1.0)
    model.observe(window, y, 4.0, 1.0)
    assert by_key(predict_successors(model, window)) == {
        x.key: Prospect(x, 10.0, 1 / 3, x.key),
        y.key: Prospect(y, 4.0, 2 / 3, y.key),
    }


def test_action_keying_ranks_states_that_share_an_action_by_state_key():
    model = TransitionModel(successor_keying="action")
    window = HistoryWindow(1).push(make_state())
    late = make_state(pos=2, go=True, tick=1)
    early = make_state(pos=1, go=True, tick=1)
    model.observe(window, late, 3.0, 1.0)
    model.observe(window, early, 1.0, 1.0)
    model.observe(window, make_state(pos=3, tick=1), 1.0, 1.0)
    prospects = by_key(predict_successors(model, window))
    # Both go-states read the one (go) row entry: utility 1.0, probability 2/3.
    for state in (early, late):
        assert prospects[state.key] == Prospect(state, 1.0, 2 / 3, state.key)
    # So they tie in every mode, and the smaller state key wins.
    constraints = ConstraintMatrices.empty(early.schema.width)
    for mode in MODES:
        made = decide(model, window, constraints, DecisionPolicy(mode=mode, exploration_rate=0.0), Random(0))
        assert made.expected_state == early, mode


def test_a_prospect_is_an_immutable_tuple_with_the_old_fields():
    assert Prospect._fields == ("state", "utility", "probability", "sort_key")
    prospect = Prospect(make_state(), 1.0, 0.5, "0,0")
    with pytest.raises(AttributeError):
        prospect.utility = 2.0
    with pytest.raises(AttributeError):
        prospect.note = "new"


def reference_prospects(model: TransitionModel, history: HistoryWindow) -> list[Prospect]:
    """The prospects as first written: one keyed lookup per successor."""
    states = model.successor_states.get(history.key)
    if not states:
        return []
    probability = model.probabilities(history.key)
    row_u = model.utility[history.key]
    return [
        Prospect(state, row_u[model.successor_key(state)], probability[model.successor_key(state)], skey)
        for skey, state in states.items()
    ]


_states = st.builds(
    make_state, pos=st.integers(0, 3), phase=st.integers(0, 2), go=st.booleans(), grab=st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(
    keying=st.sampled_from(SUCCESSOR_KEYINGS),
    window_size=st.sampled_from((1, 3)),
    heads=st.lists(_states, min_size=1, max_size=5),
    # (which window, successor, small integer l-value, step): exact ties occur
    observations=st.lists(
        st.tuples(st.integers(0, 4), _states, st.integers(-2, 2), st.sampled_from((0.5, 1.0))),
        max_size=30,
    ),
)
def test_predict_successors_matches_the_reference_ranking(keying, window_size, heads, observations):
    model = TransitionModel(window_size=window_size, successor_keying=keying)
    windows = [HistoryWindow(window_size).push(heads[0])]
    for state in heads[1:]:
        windows.append(windows[-1].push(state))
    for which, state, l_value, step in observations:
        model.observe(windows[which % len(windows)], state, float(l_value), step)
    for window in windows:
        assert by_key(predict_successors(model, window)) == by_key(reference_prospects(model, window))


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
            rec = rec._replace(state=last)
        records.append(rec)
        last = rec.next_state
    return EpisodeLog(records)


def _reference_tables(log, params: LearningParams, strategy: str, window_size: int) -> dict:
    """Learn ``log`` with windows built by pushing each record's state onto
    the window learned on last, resetting it and the segment at tick gaps,
    and credit a closed segment on windows built afresh from its own states."""
    model = TransitionModel(window_size=window_size)

    def fit(states) -> HistoryWindow:
        return HistoryWindow(window_size, states[-window_size:])

    window, segment, previous = fit(()), [], None
    for rec in log:
        if previous is not None and rec.tick != previous + 1:
            window, segment = fit(()), []
        previous = rec.tick
        window = fit(window.states + (rec.state,))
        if strategy == STRATEGY_TRANSITION_MAP:
            learn_transition(model, window, rec.next_state, rec.predicted_next, rec.energy, params)
        segment.append(rec)
        if rec.reinforcement_observed != 0:
            terminal = reinforcement(params.priority, rec.state.needs, rec.next_state.needs)
            credit = fit(())
            for old in segment:
                credit = fit(credit.states + (old.state,))
                value = terminal - params.priority.energy_weight * old.energy
                if old.predicted_next is not None and params.predictability_weight:
                    value += params.predictability_weight * (1.0 - state_distance(old.predicted_next, old.next_state))
                model.observe(credit, old.next_state, value, params.utility_step)
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
    assert log[1].state is r1.state and log[2].state is r1.next_state
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


def _log_from_plan(plan) -> list[TransitionRecord]:
    """Records that follow share the previous next_state, equal ones copy it,
    other ones start elsewhere; a tick step above 1 is a gap.  An entry may
    add the record's energy and whether it made a prediction."""
    records, tick = [], 0
    for pos, next_pos, feedback, link, step, *more in plan:
        energy, predicts = more or (0.0, False)
        if records and step == 1:
            last = records[-1].next_state
            state = {"follow": last, "equal": dataclasses.replace(last),
                     "other": make_state(pos=(last.feelings[0] + 1) % 4, tick=tick)}[link]
        else:
            state = make_state(pos=pos, tick=tick)
        predicted = make_state(pos=pos, tick=tick + 1) if predicts else None
        records.append(TransitionRecord(tick, state, (False, False), predicted, feedback, energy,
                                        make_state(pos=next_pos, hunger=abs(feedback), tick=tick + 1)))
        tick += step
    return records


@settings(max_examples=150, deadline=None)
@given(plan=_RECORDS, window_size=st.integers(1, 3),
       strategy=st.sampled_from((STRATEGY_SEGMENT, STRATEGY_TRANSITION_MAP)))
def test_the_driver_learns_any_log_as_the_reference_walk(plan, window_size, strategy):
    records = _log_from_plan(plan)
    params = make_params(step=0.5)
    rebuilt = rebuild_from_log(records, params, strategy, window_size).to_tables()
    assert tables_equal(rebuilt, _reference_tables(records, params, strategy, window_size)) == []


_CREDITED = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.sampled_from((0.0, 0.0, 1.0, -1.0)),
        st.sampled_from(("follow", "follow", "equal", "other")), st.integers(1, 3),
        st.sampled_from((0.0, 1.0)), st.booleans(),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(plan=_CREDITED, window_size=st.integers(1, 3),
       strategy=st.sampled_from((STRATEGY_SEGMENT, STRATEGY_TRANSITION_MAP)))
def test_segment_credit_on_learned_windows_equals_segment_local_credit(plan, window_size, strategy):
    # Segments shorter than the window, gaps and equal-but-distinct states
    # all occur; energy and prediction terms are on.
    records = _log_from_plan(plan)
    params = LearningParams(PriorityProfile(weights=(1.0, 0.0), energy_weight=0.5), 0.5, 0.25)
    learned = rebuild_from_log(records, params, strategy, window_size).to_tables()
    assert learned == _reference_tables(records, params, strategy, window_size)


def test_the_driver_credits_through_the_module_global_with_its_learned_windows(monkeypatch):
    calls = []
    original = model_module.apply_global_feedback

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(model_module, "apply_global_feedback", counted)
    driver = LearningDriver(TransitionModel(window_size=2), make_params(), STRATEGY_SEGMENT)
    learned = []
    for rec in _shared(_synthetic_log()):
        driver.ingest(rec)
        learned.append(driver._walk.learned)
    assert [[rec.tick for rec in args[1].records] for args in calls] == [[0, 1, 2], [3, 4]]
    assert [list(args[3]) for args in calls] == [learned[:3], learned[3:5]]


@pytest.mark.parametrize("window_size, pushes", ((1, 302), (3, 438)))
def test_a_default_run_pushes_one_window_per_tick(monkeypatch, window_size, pushes):
    # One push per tick moves the walk to the next decision; two more start
    # the run and the walk.  Window 3 rebuilds only the first two windows of
    # each closed segment; window 1 rebuilds none.
    count = [0]
    push = HistoryWindow.push

    def counted(self, state):
        count[0] += 1
        return push(self, state)

    monkeypatch.setattr(HistoryWindow, "push", counted)
    run(RunConfig(seed=0, ticks=300, window_size=window_size))
    assert count[0] == pushes


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
    assert tables_equal(a, b) == [f"model.utility[{hk!r}][{sk!r}]: {a['utility'][hk][sk]} vs {b['utility'][hk][sk]}"]

    c = model.to_tables()
    c["evidence"][hk][sk] += 1
    assert tables_equal(a, c) == [f"model.evidence[{hk!r}][{sk!r}]: {a['evidence'][hk][sk]} vs {c['evidence'][hk][sk]}"]

    d = model.to_tables()
    d["utility"]["9,9"] = {}
    assert tables_equal(a, d) == ["model.utility['9,9']: missing from the snapshot"]
    assert tables_equal(d, a) == ["model.utility['9,9']: missing from the rebuild"]


def _edit(tables: dict, steps: list):
    """Change the leaf at ``steps`` to another value of its type; returns the old and new values."""
    *parents, last = steps
    node = tables
    for step in parents:
        node = node[step]
    old = node[last]
    node[last] = "action" if old == "state" else old + 1
    return old, node[last]


@pytest.mark.parametrize(
    "steps, path",
    [
        (["window_size"], "model.window_size"),
        (["successor_keying"], "model.successor_keying"),
        (["utility", "0,0", "1,0"], "model.utility['0,0']['1,0']"),
        (["evidence", "0,0", "1,0"], "model.evidence['0,0']['1,0']"),
        (["successors", "0,0", "1,0", "y", 1], "model.successors['0,0']['1,0'].y[1]"),
        (["state_seen", "1,0"], "model.state_seen['1,0']"),
    ],
    ids=["window_size", "successor_keying", "utility", "evidence", "successors", "state_seen"],
)
def test_tables_equal_names_one_edited_leaf_by_its_path(steps, path):
    model = rebuild_from_log(_synthetic_log(), make_params(), STRATEGY_TRANSITION_MAP, 1)
    tables, edited = model.to_tables(), model.to_tables()
    old, new = _edit(edited, steps)
    assert tables_equal(tables, edited) == [f"{path}: {old!r} vs {new!r}"]


@pytest.mark.parametrize("section", ("utility", "evidence", "state_seen"))
@pytest.mark.parametrize("k", (2, 4))
def test_tables_equal_names_the_first_of_k_edits_and_counts_the_rest(section, k):
    model = rebuild_from_log(_synthetic_log(), make_params(), STRATEGY_TRANSITION_MAP, 1)
    tables, edited = model.to_tables(), model.to_tables()
    leaves = [[section, key] for key in tables[section]] if section == "state_seen" else [
        [section, hk, sk] for hk, row in tables[section].items() for sk in row]
    assert len(leaves) >= k
    for steps in leaves[:k]:
        _edit(edited, steps)
    (line,) = tables_equal(tables, edited)
    assert line.startswith(f"model.{section}[{leaves[0][1]!r}]")
    assert line.endswith(f" (and {k - 1} more)")


def test_tables_equal_names_a_section_one_side_lacks_and_never_prints_a_container():
    tables = rebuild_from_log(_synthetic_log(), make_params(), STRATEGY_TRANSITION_MAP, 1).to_tables()
    lacking = {key: value for key, value in tables.items() if key != "successors"}
    assert tables_equal(lacking, tables) == ["model.successors: missing from the snapshot"]
    assert tables_equal(tables, lacking) == ["model.successors: missing from the rebuild"]
    hk = next(iter(tables["utility"]))
    assert tables_equal({**tables, "utility": {hk: 3}}, tables) == [
        f"model.utility[{hk!r}]: 3 vs an object (and {len(tables['utility']) - 1} more)"]
    assert tables_equal({**tables, "window_size": []}, tables) == ["model.window_size: a list vs 1"]


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
