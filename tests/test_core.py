"""State algebra: schemas, vectors, constraints, keys and reinforcement."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needagent.core import (
    ActionCost,
    ConstraintMatrices,
    FeelingVar,
    PriorityProfile,
    SchemaError,
    StateSchema,
    StateVector,
    UsageError,
    action_key,
    check_constraints,
    energy_spent,
    motivation,
    reinforcement,
    state_distance,
    state_key,
)

from conftest import SCHEMA, make_state

# ----------------------------------------------------------------------
# schemas and vectors
# ----------------------------------------------------------------------


def test_feeling_cardinality_must_be_positive():
    with pytest.raises(SchemaError):
        FeelingVar("x", 0)


def test_variable_names_must_be_unique_across_partitions():
    with pytest.raises(SchemaError):
        StateSchema(feelings=(FeelingVar("x", 2),), actions=("x",), needs=())


def test_schema_width_and_indexing():
    assert SCHEMA.width == 6
    assert SCHEMA.variable_names() == ("pos", "phase", "go", "grab", "hunger", "rest")
    assert SCHEMA.index_of("grab") == 3
    with pytest.raises(SchemaError):
        SCHEMA.index_of("nope")


def test_state_vector_checks_partition_lengths():
    with pytest.raises(SchemaError):
        StateVector(schema=SCHEMA, feelings=(0,), actions=(False, False), needs=(0.0, 0.0))
    with pytest.raises(SchemaError):
        StateVector(schema=SCHEMA, feelings=(0, 0), actions=(False,), needs=(0.0, 0.0))
    with pytest.raises(SchemaError):
        StateVector(schema=SCHEMA, feelings=(0, 0), actions=(False, False), needs=(0.0,))


def test_state_vector_checks_feeling_range():
    with pytest.raises(SchemaError):
        make_state(pos=4)


def test_state_vector_checks_need_range():
    with pytest.raises(SchemaError):
        make_state(hunger=1.5)
    with pytest.raises(SchemaError):
        make_state(rest=-0.1)


def test_state_vector_rejects_negative_tick():
    with pytest.raises(SchemaError):
        make_state(tick=-1)


def test_values_concatenates_partitions_in_canonical_order():
    s = make_state(pos=2, phase=1, go=True, hunger=0.5)
    assert s.values() == (2, 1, 1.0, 0.0, 0.5, 0.0)


# ----------------------------------------------------------------------
# motivation and reinforcement
# ----------------------------------------------------------------------


def test_motivation_is_the_elementwise_product():
    profile = PriorityProfile(weights=(1.0, 0.25, 0.0, 0.0))
    z = motivation(profile, (0.0, 1.0, 0.5, 0.0))
    assert z.values == (0.0, 0.25, 0.0, 0.0)
    assert sum(z.values) == 0.25


def test_motivation_length_mismatch():
    with pytest.raises(SchemaError):
        motivation(PriorityProfile(weights=(1.0,)), (0.5, 0.5))


def test_reinforcement_is_the_weighted_actualization_drop():
    profile = PriorityProfile(weights=(2.0, 1.0))
    # First need worsens by 1 under weight 2, second improves by 1 under
    # weight 1: the balance is negative.
    assert reinforcement(profile, (0.0, 1.0), (1.0, 0.0)) == -1.0


def test_reinforcement_zero_without_change():
    profile = PriorityProfile(weights=(2.0, 1.0))
    assert reinforcement(profile, (0.3, 0.7), (0.3, 0.7)) == 0.0


def test_reinforcement_validates_lengths():
    profile = PriorityProfile(weights=(1.0, 1.0))
    with pytest.raises(SchemaError):
        reinforcement(profile, (0.1,), (0.1, 0.2))
    with pytest.raises(SchemaError):
        reinforcement(PriorityProfile(weights=(1.0,)), (0.1, 0.2), (0.1, 0.2))


_levels = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_weights = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@given(
    w=st.tuples(_weights, _weights),
    before=st.tuples(_levels, _levels),
    after=st.tuples(_levels, _levels),
)
def test_reinforcement_is_antisymmetric(w, before, after):
    # IEEE rounding is sign-symmetric, so the identity holds exactly.
    profile = PriorityProfile(weights=w)
    assert reinforcement(profile, before, after) == -reinforcement(profile, after, before)


@given(
    w=st.tuples(_weights, _weights),
    y=st.tuples(_levels, _levels),
    c=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)
def test_motivation_scales_linearly_with_weights(w, y, c):
    base = motivation(PriorityProfile(weights=w), y)
    scaled = motivation(PriorityProfile(weights=tuple(c * x for x in w)), y)
    assert sum(scaled.values) == pytest.approx(c * sum(base.values))


# ----------------------------------------------------------------------
# distance and energy
# ----------------------------------------------------------------------


def test_state_distance_counts_differing_variables():
    a = make_state(pos=0, phase=1, go=False, hunger=0.5)
    b = make_state(pos=0, phase=2, go=True, hunger=0.5)
    assert state_distance(a, b) == pytest.approx(2 / 6)


def test_state_distance_ignores_tick():
    assert state_distance(make_state(pos=1, tick=3), make_state(pos=1, tick=9)) == 0.0


def test_state_distance_includes_need_levels():
    assert state_distance(make_state(hunger=0.2), make_state(hunger=0.8)) == pytest.approx(1 / 6)


def test_state_distance_rejects_schema_mismatch():
    other = StateSchema(feelings=(FeelingVar("alone", 2),), actions=(), needs=())
    foreign = StateVector(schema=other, feelings=(0,), actions=(), needs=())
    with pytest.raises(SchemaError):
        state_distance(make_state(), foreign)


_states = st.builds(
    make_state,
    pos=st.integers(min_value=0, max_value=3),
    phase=st.integers(min_value=0, max_value=2),
    go=st.booleans(),
    grab=st.booleans(),
    hunger=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    rest=st.sampled_from((0.0, 0.5, 1.0)),
)


@given(a=_states, b=_states)
def test_state_distance_is_a_symmetric_bounded_metric(a, b):
    d = state_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == state_distance(b, a)
    assert (d == 0.0) == (a.values() == b.values())


@given(a=_states, b=_states, c=_states)
def test_state_distance_triangle_inequality(a, b, c):
    assert state_distance(a, c) <= state_distance(a, b) + state_distance(b, c) + 1e-12


# Feeling codes of mixed numeric types: equal codes of different types must
# compare as the canonical ``values()`` tuple compares them.
_typed_states = st.builds(
    make_state,
    pos=st.sampled_from((0, 1, 2, 3, 0.0, 1.0, 3.0, False, True)),
    phase=st.sampled_from((0, 1, 2, 2.0, True)),
    go=st.booleans(),
    grab=st.booleans(),
    hunger=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    rest=st.sampled_from((0.0, 0.5, 1.0)),
)


@settings(max_examples=200)
@given(a=_typed_states, b=_typed_states)
def test_state_distance_matches_the_values_formula(a, b):
    va, vb = a.values(), b.values()
    expected = sum(1 for x, y in zip(va, vb) if x != y) / len(va)
    assert state_distance(a, b) == expected


def test_energy_spent_sums_active_costs_only():
    cost = ActionCost(costs=(1.0, 2.5))
    assert energy_spent((False, False), cost) == 0.0
    assert energy_spent((True, False), cost) == 1.0
    assert energy_spent((True, True), cost) == 3.5


def test_energy_spent_length_mismatch():
    with pytest.raises(SchemaError):
        energy_spent((True,), ActionCost(costs=(1.0, 1.0)))


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------


def _old_encoding(window):
    # Reference encoding: feeling codes as str, "," within a state, "|" between states.
    return "|".join(",".join(str(v) for v in s.feelings) for s in window)


def test_state_key_matches_the_feeling_encoding():
    window = [make_state(pos=1.0), make_state(pos=True, phase=2), make_state(pos=3)]
    assert [s.key for s in window] == [_old_encoding([s]) for s in window]
    for n in (1, 2, 3):
        assert state_key(window[:n]) == _old_encoding(window[:n])
    assert state_key(window) == "1.0,0|True,2|3,0"


def test_equal_codes_of_different_types_keep_their_own_keys():
    # (1, 0), (1.0, 0) and (True, 0) are equal dict keys; a cache shared by
    # feeling codes would give all three the key of whichever came first.
    states = [make_state(pos=1), make_state(pos=1.0), make_state(pos=True)]
    assert len({s.feelings for s in states}) == 1
    assert [s.key for s in states] == ["1,0", "1.0,0", "True,0"]
    assert [state_key([s]) for s in states] == ["1,0", "1.0,0", "True,0"]


def test_a_state_is_slotted_and_builds_its_key_with_it():
    state = make_state(pos=1, phase=2, hunger=0.5)
    assert not hasattr(state, "__dict__")
    moved = dataclasses.replace(state, feelings=(3, 0))
    assert (state.key, moved.key) == ("1,2", "3,0")
    # The key takes no part in equality, hashing or the repr.
    assert moved == make_state(pos=3, hunger=0.5) and hash(moved) == hash(make_state(pos=3, hunger=0.5))
    assert "key" not in repr(state)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.key = "3,0"


def test_state_key_requires_a_state():
    with pytest.raises(UsageError):
        state_key([])


def test_state_key_covers_feelings_only():
    plain = make_state(pos=2, phase=1)
    dressed = make_state(pos=2, phase=1, go=True, grab=True, hunger=1.0, rest=0.5, tick=77)
    assert state_key([plain]) == state_key([dressed])


def test_state_key_joins_windows_oldest_first():
    a = make_state(pos=1)
    b = make_state(pos=2, phase=1)
    assert state_key([a, b]) == "1,0|2,1"
    assert state_key([a, b]) != state_key([b, a])


def test_state_key_injective_over_feelings():
    combos = list(itertools.product(range(4), range(3)))
    keys = {state_key([make_state(pos=p, phase=q)]) for p, q in combos}
    assert len(keys) == len(combos)


def test_state_key_injective_over_two_state_windows():
    singles = [make_state(pos=p, phase=q) for p, q in itertools.product(range(4), range(3))]
    keys = {state_key([a, b]) for a in singles for b in singles}
    assert len(keys) == len(singles) ** 2


def test_action_key_encodes_the_action_bits():
    assert action_key(make_state(go=True, grab=False)) == "1,0"
    assert action_key(make_state(go=False, grab=True)) == "0,1"
    assert action_key(make_state()) == "0,0"


# ----------------------------------------------------------------------
# constraints
# ----------------------------------------------------------------------


def test_exclusion_pairs_must_be_stored_normalized():
    with pytest.raises(SchemaError):
        ConstraintMatrices(size=4, exclusion=frozenset({(2, 1)}))


def test_reflexive_pairs_are_rejected():
    with pytest.raises(SchemaError):
        ConstraintMatrices(size=4, exclusion=frozenset({(1, 1)}))
    with pytest.raises(SchemaError):
        ConstraintMatrices(size=4, dependency=frozenset({(2, 2)}))


def test_out_of_range_indices_are_rejected():
    with pytest.raises(SchemaError):
        ConstraintMatrices(size=2, exclusion=frozenset({(0, 5)}))


def test_pair_cannot_be_exclusion_and_dependency_at_once():
    with pytest.raises(SchemaError):
        ConstraintMatrices(
            size=4, exclusion=frozenset({(0, 1)}), dependency=frozenset({(1, 0)})
        )


def test_build_normalizes_unordered_exclusion_input():
    m = ConstraintMatrices.build(4, exclusion=[(3, 0)])
    assert m.exclusion == frozenset({(0, 3)})


def test_check_constraints_vacuous_when_empty():
    assert check_constraints(make_state(pos=3, go=True), ConstraintMatrices.empty(6))


def test_check_constraints_exclusion():
    m = ConstraintMatrices.build(6, exclusion=[(2, 3)])  # go vs grab
    assert check_constraints(make_state(go=True), m)
    assert not check_constraints(make_state(go=True, grab=True), m)


def test_check_constraints_dependency():
    m = ConstraintMatrices.build(6, dependency=[(3, 2)])  # grab requires go
    assert check_constraints(make_state(), m)
    assert check_constraints(make_state(go=True, grab=True), m)
    assert not check_constraints(make_state(grab=True), m)


def test_check_constraints_size_mismatch():
    with pytest.raises(SchemaError):
        check_constraints(make_state(), ConstraintMatrices.empty(5))


_index_pairs = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1])


@settings(max_examples=200)
@given(
    state=_typed_states,
    exclusion=st.lists(_index_pairs, max_size=4),
    dependency=st.lists(_index_pairs, max_size=4),
)
def test_check_constraints_matches_naive_evaluation(state, exclusion, dependency):
    normalized = {(min(i, j), max(i, j)) for i, j in exclusion}
    deps = {p for p in dependency if (min(*p), max(*p)) not in normalized}
    m = ConstraintMatrices.build(6, exclusion=normalized, dependency=deps)
    active = [v > 0 for v in state.values()]
    expected = all(not (active[i] and active[j]) for i, j in m.exclusion) and all(
        active[j] or not active[i] for i, j in m.dependency
    )
    assert check_constraints(state, m) == expected
