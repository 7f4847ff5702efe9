"""Grid ping-pong physics, need channel dynamics and the random baseline."""

from __future__ import annotations

from operator import eq
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needagent import pingpong
from needagent.core import SchemaError, StateVector
from needagent.pingpong import (
    ACTION_NAMES,
    EVENT_HIT,
    EVENT_MISS,
    HAPPY_GROWTH_PER_TICK,
    NEED_NAMES,
    SAD_DECAY_FACTOR,
    BoardConfig,
    PingPong,
    build_action_cost,
    build_constraints,
    build_schema,
    quantize,
    random_baseline,
)

STAY = (False, False)
LEFT = (True, False)
RIGHT = (False, True)


def place(env: PingPong, col: int, row: int, dcol: int, drow: int, racket: int) -> None:
    """Poke a known board situation into a reset environment."""
    env.ball_col, env.ball_row = col, row
    env.ball_dcol, env.ball_drow = dcol, drow
    env.racket_col = racket


# ----------------------------------------------------------------------
# configuration and schema
# ----------------------------------------------------------------------


def test_board_config_validation():
    # Single-field bounds are the config reader's; the board keeps the cross-field rule.
    with pytest.raises(SchemaError):
        BoardConfig(racket_width=7)


def test_racket_positions():
    assert BoardConfig().racket_positions == 6
    assert BoardConfig(racket_width=2).racket_positions == 5
    assert BoardConfig(racket_width=6).racket_positions == 1


def test_schema_matches_the_board():
    schema = build_schema(BoardConfig())
    assert [f.name for f in schema.feelings] == [
        "ball_col", "ball_row", "ball_dcol", "ball_drow", "racket_col",
    ]
    assert [f.cardinality for f in schema.feelings] == [6, 5, 2, 2, 6]
    assert schema.actions == ACTION_NAMES
    assert schema.needs == NEED_NAMES


def test_constraints_forbid_moving_both_ways():
    schema = build_schema(BoardConfig())
    m = build_constraints(schema)
    left, right = schema.index_of("move_left"), schema.index_of("move_right")
    assert m.exclusion == frozenset({(min(left, right), max(left, right))})


def test_action_cost_prices_each_move():
    schema = build_schema(BoardConfig())
    assert build_action_cost(schema).costs == (1.0, 1.0)


def test_quantize_snaps_to_the_level_grid():
    assert quantize(0.24, 10) == 0.2
    assert quantize(0.25, 10) == 0.3  # half rounds up
    assert quantize(-0.5, 10) == 0.0
    assert quantize(7.0, 10) == 1.0
    assert quantize(0.5, 1) == 1.0


@given(
    value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    levels=st.integers(min_value=1, max_value=50),
)
def test_quantize_error_is_at_most_half_a_level(value, levels):
    snapped = quantize(value, levels)
    assert 0.0 <= snapped <= 1.0
    assert abs(snapped - value) <= 0.5 / levels + 1e-12


# For an odd level count between 2**52 and 2**53, ``levels + 0.5`` rounds up
# to ``levels + 1``, so 1.0 snaps to ``(levels + 1) / levels`` and only the
# final clamp keeps it in range: at 6691973981075823 levels that is
# 1.0000000000000002.
@given(value=st.floats(allow_nan=False), levels=st.integers(min_value=1, max_value=10**300))
@example(value=1.0, levels=6691973981075823)
def test_quantize_stays_in_the_unit_interval(value, levels):
    assert 0.0 <= quantize(value, levels) <= 1.0


# ----------------------------------------------------------------------
# stepping rules
# ----------------------------------------------------------------------


def test_step_requires_reset_first():
    with pytest.raises(SchemaError):
        PingPong().step(STAY)


def test_step_checks_the_action_arity():
    env = PingPong()
    env.reset(seed=0)
    with pytest.raises(SchemaError):
        env.step((True,))


def test_hit_when_the_racket_covers_the_landing_cell():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=2, row=3, dcol=1, drow=1, racket=3)
    out = env.step(STAY)
    assert out.event == EVENT_HIT
    assert out.feedback == 1.0
    assert (env.ball_col, env.ball_row) == (3, 4)
    assert env.ball_drow == -1  # the ball bounces back up
    assert out.state.needs[0] == 0.0  # happiness satisfied on a hit


def test_miss_reserves_the_ball_and_saddens():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=2, row=3, dcol=1, drow=1, racket=0)
    out = env.step(STAY)
    assert out.event == EVENT_MISS
    assert out.feedback == -1.0
    assert env.ball_row == 0  # fresh serve from the top
    assert out.state.needs[1] == 1.0


def test_racket_moves_before_the_ball_is_checked():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=2, row=3, dcol=1, drow=1, racket=4)
    out = env.step(LEFT)  # racket 4 -> 3 catches the landing at column 3
    assert out.event == EVENT_HIT


def test_side_wall_reflection():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=0, row=1, dcol=-1, drow=1, racket=5)
    env.step(STAY)
    assert (env.ball_col, env.ball_row) == (1, 2)
    assert env.ball_dcol == 1


def test_top_wall_reflection():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=3, row=0, dcol=1, drow=-1, racket=5)
    env.step(STAY)
    assert (env.ball_col, env.ball_row) == (4, 1)
    assert env.ball_drow == 1


def test_racket_clamps_at_the_walls():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=0, row=0, dcol=1, drow=1, racket=0)
    env.step(LEFT)
    assert env.racket_col == 0
    place(env, col=0, row=0, dcol=1, drow=1, racket=5)
    env.step(RIGHT)
    assert env.racket_col == 5


def test_free_flight_displaces_by_the_velocity():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=1, row=0, dcol=1, drow=1, racket=5)
    env.step(STAY)
    env.step(STAY)
    assert (env.ball_col, env.ball_row) == (3, 2)


def test_energy_charges_for_the_active_move():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=0, row=0, dcol=1, drow=1, racket=2)
    assert env.step(STAY).energy == 0.0
    assert env.step(LEFT).energy == 1.0


# ----------------------------------------------------------------------
# need channels
# ----------------------------------------------------------------------


def test_happiness_grows_while_no_hit_arrives():
    env = PingPong()
    env.reset(seed=1)
    place(env, col=0, row=0, dcol=1, drow=1, racket=5)
    values = [env.step(STAY).state.needs[0] for _ in range(3)]
    assert values == [
        pytest.approx(1 * HAPPY_GROWTH_PER_TICK),
        pytest.approx(2 * HAPPY_GROWTH_PER_TICK),
        pytest.approx(3 * HAPPY_GROWTH_PER_TICK),
    ]


def test_sadness_halves_after_a_miss():
    env = PingPong()
    env.reset(seed=0)
    place(env, col=2, row=3, dcol=1, drow=1, racket=0)
    assert env.step(STAY).state.needs[1] == 1.0
    decayed = [env.step(STAY).state.needs[1] for _ in range(2)]
    assert decayed[0] == SAD_DECAY_FACTOR
    assert decayed[1] == quantize(SAD_DECAY_FACTOR**2, 10)


def test_feedback_delay_postpones_delivery():
    env = PingPong(BoardConfig(feedback_delay=2))
    env.reset(seed=0)
    place(env, col=2, row=3, dcol=1, drow=1, racket=3)
    first = env.step(STAY)
    assert first.event == EVENT_HIT
    assert first.feedback == 0.0
    second = env.step(STAY)
    assert second.event is None
    assert second.feedback == 0.0
    third = env.step(STAY)
    assert third.feedback == 1.0
    # The emotional response arrives with the news, not with the event.
    assert second.state.needs[0] > 0.0
    assert third.state.needs[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(
    delay=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    actions=st.lists(st.sampled_from((STAY, LEFT, RIGHT)), max_size=120),
)
def test_feedback_is_the_event_sequence_shifted_by_the_delay(delay, seed, actions):
    # Each hit or miss arrives as feedback exactly ``delay`` ticks after its
    # event, alone on its tick; a value lost or merged shifts the sequence.
    values = {EVENT_HIT: 1.0, EVENT_MISS: -1.0, None: 0.0}
    env = PingPong(BoardConfig(feedback_delay=delay))
    env.reset(seed)
    outcomes = [env.step(action) for action in actions]
    events = [values[o.event] for o in outcomes]
    assert [o.feedback for o in outcomes] == ([0.0] * delay + events)[: len(actions)]


@settings(max_examples=60, deadline=None)
@given(
    levels=st.integers(min_value=1, max_value=20),
    other=st.integers(min_value=1, max_value=19),
    delay=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    plan=st.lists(
        st.tuples(st.sampled_from((STAY, LEFT, RIGHT)), st.booleans(), st.floats(-0.5, 1.5)),
        max_size=80,
    ),
)
def test_need_levels_are_the_raw_channels_quantized(levels, other, delay, seed, plan):
    # Two environments with different levels step side by side; each state's
    # needs are its own levels of the raw channels recomputed here.
    other_levels = (levels + other - 1) % 20 + 1
    envs = [PingPong(BoardConfig(feedback_delay=delay, need_levels=n)) for n in (levels, other_levels)]
    states = [env.reset(seed) for env in envs]
    for state, n in zip(states, (levels, other_levels)):
        assert state.needs == (quantize(0.0, n), quantize(0.0, n), quantize(1.0, n), quantize(1.0, n))
    since_hit, sad = 0, 0.0
    for action, predicts, fresh in plan:
        outcomes = [env.step(action, predicted=state if predicts else None, novelty=lambda key: fresh)
                    for env, state in zip(envs, states)]
        feedback = outcomes[0].feedback
        since_hit = 0 if feedback > 0 else since_hit + 1
        sad = 1.0 if feedback < 0 else sad * SAD_DECAY_FACTOR
        new = outcomes[0].state
        similarity = 0.0
        if predicts:
            matches = sum(map(eq, states[0].feelings, new.feelings)) + sum(map(eq, states[0].actions, new.actions))
            similarity = matches / (len(new.feelings) + len(new.actions))
        raw = (min(1.0, HAPPY_GROWTH_PER_TICK * since_hit), sad, min(1.0, max(0.0, fresh)), 1.0 - similarity)
        for outcome, n in zip(outcomes, (levels, other_levels)):
            assert outcome.state.needs == tuple(quantize(value, n) for value in raw)
        states = [outcome.state for outcome in outcomes]


def test_novelty_reads_one_without_a_callable():
    # The model's measure before it has seen anything; a repeated board
    # configuration does not make it fall.
    env = PingPong()
    env.reset(seed=3)
    for _ in range(2):
        place(env, col=1, row=1, dcol=1, drow=1, racket=2)
        assert env.step(STAY).state.needs[2] == 1.0


def test_novelty_callable_receives_the_situation_key(monkeypatch):
    env = PingPong()
    env.reset(seed=3)
    place(env, col=1, row=1, dcol=1, drow=1, racket=2)
    seen = []
    built = []

    def counted(*args, **kwargs):
        built.append(StateVector(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pingpong, "StateVector", counted)
    out = env.step(RIGHT, novelty=lambda key: seen.append(key) or 1.0)
    assert seen == [out.state.key] and type(seen[0]) is str
    assert built == [out.state] and built[0] is out.state
    assert out.state.needs[2] == 1.0


def test_novelty_callable_result_is_clamped():
    env = PingPong()
    env.reset(seed=3)
    place(env, col=1, row=1, dcol=1, drow=1, racket=2)
    assert env.step(STAY, novelty=lambda s: 7.5).state.needs[2] == 1.0
    place(env, col=1, row=1, dcol=1, drow=1, racket=2)
    assert env.step(STAY, novelty=lambda s: -2.0).state.needs[2] == 0.0


def test_expectedness_reflects_prediction_mismatch():
    env = PingPong()
    start = env.reset(seed=3)
    assert start.needs[3] == 1.0  # nothing was predicted at reset
    place(env, col=1, row=1, dcol=1, drow=1, racket=2)
    exact = StateVector(
        schema=env.schema(),
        feelings=(2, 2, 1, 1, 2),
        actions=STAY,
        needs=(0.0,) * 4,
    )
    assert env.step(STAY, predicted=exact).state.needs[3] == 0.0


def test_expectedness_counts_mismatched_observables():
    env = PingPong()
    env.reset(seed=3)
    place(env, col=1, row=1, dcol=1, drow=1, racket=2)
    wrong = StateVector(
        schema=env.schema(),
        feelings=(0, 0, 0, 0, 2),  # four of five feelings wrong
        actions=STAY,
        needs=(0.0,) * 4,
    )
    out = env.step(STAY, predicted=wrong)
    assert out.state.needs[3] == quantize(4 / 7, 10)


# ----------------------------------------------------------------------
# determinism and bounds
# ----------------------------------------------------------------------


def test_reset_is_deterministic_per_seed():
    a = PingPong().reset(seed=5)
    b = PingPong().reset(seed=5)
    assert a == b
    assert PingPong().reset(seed=6) != a


def test_parallel_envs_stay_identical_under_the_same_actions():
    env_a, env_b = PingPong(), PingPong()
    env_a.reset(seed=9)
    env_b.reset(seed=9)
    rng = Random(7)
    for _ in range(300):
        action = rng.choice((STAY, LEFT, RIGHT))
        out_a, out_b = env_a.step(action), env_b.step(action)
        assert out_a == out_b


def test_long_random_run_stays_in_bounds():
    config = BoardConfig(width=4, height=4, racket_width=2)
    env = PingPong(config)
    env.reset(seed=11)
    rng = Random(13)
    events = 0
    for _ in range(10_000):
        out = env.step(rng.choice((STAY, LEFT, RIGHT)))
        assert 0 <= env.ball_col < config.width
        assert 0 <= env.ball_row < config.height
        assert 0 <= env.racket_col <= config.width - config.racket_width
        assert env.ball_dcol in (-1, 1) and env.ball_drow in (-1, 1)
        assert all(0.0 <= y <= 1.0 for y in out.state.needs)
        if out.event == EVENT_HIT:
            events += 1
            assert env.ball_row == config.height - 1  # bounced off the racket
        elif out.event == EVENT_MISS:
            events += 1
            assert env.ball_row == 0  # re-served from the top
    assert events > 100  # the ball keeps reaching the bottom row


# ----------------------------------------------------------------------
# random baseline
# ----------------------------------------------------------------------


def test_baseline_is_deterministic():
    config = BoardConfig()
    assert random_baseline(config, 7, 3000) == random_baseline(config, 7, 3000)


def test_baseline_with_a_full_width_racket_always_hits():
    assert random_baseline(BoardConfig(racket_width=6), 3, 2000) == 1.0


def test_baseline_without_events_is_none():
    # The serve starts at the top row; two ticks cannot reach the bottom.
    assert random_baseline(BoardConfig(), 0, 2) is None


def test_baseline_with_a_narrow_racket_is_modest():
    rate = random_baseline(BoardConfig(), 7, 5000)
    assert rate is not None
    assert 0.05 < rate < 0.35
