"""Need-space state algebra.

The agent's situation at any tick is a single state vector split into three
ordered partitions:

* ``feelings``  -- discrete sensor variables (integer codes),
* ``actions``   -- boolean effector variables (the last committed action),
* ``needs``     -- per-need actualization levels in ``[0, 1]``, where 0 means
  the need is fully satisfied and 1 means it is maximally pressing.

A constant :class:`PriorityProfile` weights the needs against each other and
prices energy expenditure.  Everything in this module is an immutable value;
the functions are pure and raise :class:`SchemaError` when partition shapes
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul, ne, sub
from typing import Iterable, Sequence


class SchemaError(ValueError):
    """A value does not fit the declared state schema."""


class UsageError(RuntimeError):
    """An operation was called outside its contract (e.g. on an open segment)."""


# ======================================================================
# schema and state
# ======================================================================


@dataclass(frozen=True)
class FeelingVar:
    """A named discrete sensor variable with a fixed code range ``[0, cardinality)``."""

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if self.cardinality < 1:
            raise SchemaError(f"feeling {self.name!r}: cardinality must be >= 1")


@dataclass(frozen=True)
class StateSchema:
    """Fixed variable layout for one run.

    The schema is immutable after construction; every state vector carries a
    reference to it so shape checks are cheap.  ``width`` is the variable
    count, computed once with the schema.
    """

    feelings: tuple[FeelingVar, ...]
    actions: tuple[str, ...]
    needs: tuple[str, ...]
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = self.variable_names()
        if len(set(names)) != len(names):
            raise SchemaError("variable names must be unique across partitions")
        object.__setattr__(self, "width", len(names))

    def variable_names(self) -> tuple[str, ...]:
        """All variable names in canonical order: feelings, actions, needs."""
        return tuple(f.name for f in self.feelings) + self.actions + self.needs

    def index_of(self, name: str) -> int:
        """Canonical index of a variable, for constraint matrices."""
        try:
            return self.variable_names().index(name)
        except ValueError:
            raise SchemaError(f"unknown variable {name!r}") from None


@dataclass(frozen=True, slots=True)
class StateVector:
    """One observed state.  Immutable; equality is by value.

    ``tick`` is bookkeeping, not a state variable: two states observed at
    different ticks with identical partitions are the same situation.
    ``key`` is its fragment of :func:`state_key`, the :func:`feeling_key` of
    its codes as given: ``1``, ``1.0`` and ``True`` encode to different strings.
    """

    schema: StateSchema
    feelings: tuple[int, ...]
    actions: tuple[bool, ...]
    needs: tuple[float, ...]
    tick: int = 0
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sch = self.schema
        if len(self.feelings) != len(sch.feelings):
            raise SchemaError(
                f"feelings: expected {len(sch.feelings)} values, got {len(self.feelings)}"
            )
        if len(self.actions) != len(sch.actions):
            raise SchemaError(
                f"actions: expected {len(sch.actions)} values, got {len(self.actions)}"
            )
        if len(self.needs) != len(sch.needs):
            raise SchemaError(
                f"needs: expected {len(sch.needs)} values, got {len(self.needs)}"
            )
        for var, code in zip(sch.feelings, self.feelings):
            if not 0 <= code < var.cardinality:
                raise SchemaError(
                    f"feeling {var.name!r}: code {code} outside [0, {var.cardinality})"
                )
        for name, level in zip(sch.needs, self.needs):
            if not 0.0 <= level <= 1.0:
                raise SchemaError(f"need {name!r}: level {level} outside [0, 1]")
        if self.tick < 0:
            raise SchemaError(f"tick must be >= 0, got {self.tick}")
        object.__setattr__(self, "key", feeling_key(self.feelings))

    def values(self) -> tuple[float, ...]:
        """Concatenated variable values in canonical order."""
        return self.feelings + tuple(float(a) for a in self.actions) + self.needs


@dataclass(frozen=True)
class PriorityProfile:
    """Constant per-need weights plus the price of acting.

    The weights express the agent's disposition: how strongly a change in each
    need's actualization registers as reinforcement.  They never change during
    a run.
    """

    weights: tuple[float, ...]
    energy_weight: float = 0.0


@dataclass(frozen=True)
class MotivationVector:
    """Per-need drive levels: the priority-weighted actualizations."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class ActionCost:
    """Energy price per action variable; an inactive variable costs nothing."""

    costs: tuple[float, ...]


# ======================================================================
# constraints
# ======================================================================


@dataclass(frozen=True)
class ConstraintMatrices:
    """Exclusion and dependency relations over state-variable indices.

    ``exclusion`` holds unordered pairs that must never be active together
    (stored normalized with ``i < j``); ``dependency`` holds directed pairs
    ``(i, j)`` meaning an active ``i`` requires an active ``j``.  A pair may
    not appear in both relations.
    """

    size: int
    exclusion: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    dependency: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for i, j in self.exclusion:
            if i == j:
                raise SchemaError(f"exclusion pair ({i}, {j}) is reflexive")
            if not (i < j):
                raise SchemaError(f"exclusion pair ({i}, {j}) must be stored with i < j")
            self._check_index(i)
            self._check_index(j)
        for i, j in self.dependency:
            if i == j:
                raise SchemaError(f"dependency pair ({i}, {j}) is reflexive")
            self._check_index(i)
            self._check_index(j)
        overlap = {tuple(sorted(p)) for p in self.dependency} & set(self.exclusion)
        if overlap:
            raise SchemaError(f"pairs {sorted(overlap)} appear in both relations")

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise SchemaError(f"variable index {i} outside [0, {self.size})")

    @classmethod
    def empty(cls, size: int) -> "ConstraintMatrices":
        return cls(size=size)

    @classmethod
    def build(
        cls,
        size: int,
        exclusion: Iterable[tuple[int, int]] = (),
        dependency: Iterable[tuple[int, int]] = (),
    ) -> "ConstraintMatrices":
        """Normalize pair lists (exclusion pairs are unordered on input)."""
        ex = frozenset((min(i, j), max(i, j)) for i, j in exclusion)
        return cls(size=size, exclusion=ex, dependency=frozenset(dependency))

    def within(self, indices: range) -> "ConstraintMatrices":
        """Only the pairs whose two indices both lie in ``indices``."""
        def keep(pairs):
            return frozenset(p for p in pairs if p[0] in indices and p[1] in indices)
        return ConstraintMatrices(self.size, keep(self.exclusion), keep(self.dependency))


def pairs_hold(values: Sequence, constraints: ConstraintMatrices) -> bool:
    """True iff no exclusion pair is active together and no dependency pair
    has an active ``i`` without an active ``j``.

    ``values`` are variable values by canonical index; a variable counts as
    active when boolean true or numerically positive.  Only the variables a
    pair names are read.
    """
    for i, j in constraints.exclusion:
        if values[i] > 0 and values[j] > 0:
            return False
    for i, j in constraints.dependency:
        if values[i] > 0 and not values[j] > 0:
            return False
    return True


def check_constraints(state: StateVector, constraints: ConstraintMatrices) -> bool:
    """True iff the state violates no exclusion and no dependency."""
    width = state.schema.width
    if constraints.size != width:
        raise SchemaError(
            f"constraints sized for {constraints.size} variables, state has {width}"
        )
    return pairs_hold(state.feelings + state.actions + state.needs, constraints)


# ======================================================================
# pure state algebra
# ======================================================================


def motivation(profile: PriorityProfile, needs: Sequence[float]) -> MotivationVector:
    """Elementwise product of priority weights and need actualizations.

    A need drives behavior only to the extent that it is both weighted and
    actualized; a zero on either side silences it.
    """
    if len(profile.weights) != len(needs):
        raise SchemaError(
            f"profile has {len(profile.weights)} weights, state has {len(needs)} needs"
        )
    return MotivationVector(tuple(w * y for w, y in zip(profile.weights, needs)))


def reinforcement(
    profile: PriorityProfile,
    needs_before: Sequence[float],
    needs_after: Sequence[float],
) -> float:
    """Priority-weighted drop in actualization across one transition.

    Positive exactly when needs move toward satisfaction on balance; swapping
    the two arguments flips the sign.
    """
    if len(needs_before) != len(needs_after):
        raise SchemaError(
            f"need vectors differ in length: {len(needs_before)} vs {len(needs_after)}"
        )
    if len(profile.weights) != len(needs_before):
        raise SchemaError(
            f"profile has {len(profile.weights)} weights, state has {len(needs_before)} needs"
        )
    return sum(map(mul, profile.weights, map(sub, needs_before, needs_after)))


def state_distance(a: StateVector, b: StateVector) -> float:
    """Normalized Hamming distance over all state variables.

    Counts positions whose values differ and divides by the variable count,
    so the result lies in ``[0, 1]`` and satisfies the metric axioms.
    """
    if a.schema is not b.schema and a.schema != b.schema:
        raise SchemaError("cannot compare states with different schemas")
    differing = (
        sum(map(ne, a.feelings, b.feelings))
        + sum(map(ne, a.actions, b.actions))
        + sum(map(ne, a.needs, b.needs))
    )
    return differing / a.schema.width


def energy_spent(action_vector: Sequence[bool], cost: ActionCost) -> float:
    """Total energy for the active action variables; the idle vector is free."""
    if len(action_vector) != len(cost.costs):
        raise SchemaError(
            f"action vector has {len(action_vector)} entries, cost table {len(cost.costs)}"
        )
    return sum(c for a, c in zip(action_vector, cost.costs) if a)


def feeling_key(feelings: Sequence[int]) -> str:
    """The situation key of one state: its feeling codes, comma-joined."""
    return ",".join(map(str, feelings))


def state_key(window: Sequence[StateVector]) -> str:
    """Injective string encoding of a window's sensed situation, oldest first.

    The key covers the feeling variables only.  Need levels stay out because
    they are the continuous partition driving reinforcement, not identity.
    The action echo stays out because it records how the state was entered,
    which adds nothing to what the situation itself predicts; keying on it
    splits otherwise identical situations and starves each row of evidence.
    The tick is excluded so that revisiting a situation produces the same
    key.  Within one schema, windows with equal feeling codes map to equal
    keys and any feeling difference changes the key.  Keys sort
    deterministically, which the decision layer relies on for tie-breaking.
    """
    if not window:
        raise UsageError("state_key requires at least one state")
    if len(window) == 1:
        return window[0].key
    return "|".join([s.key for s in window])


def action_key(state: StateVector) -> str:
    """Key for the action sub-vector alone (the degenerate successor keying)."""
    return ",".join("1" if a else "0" for a in state.actions)
