"""Tabular transition-graph world model.

The model maps history windows (the last ``window_size`` states, keyed
injectively) to the successors observed after them.  Each (history, successor)
edge carries a learned utility and an integer evidence count; probabilities
are derived from the counts on demand and are never stored.

Utilities blend three signals per observation: need-derived reinforcement,
how predictable the outcome was, and the energy the step cost.  Credit is
assigned globally: when explicit feedback closes a segment, the terminal
reinforcement is written uniformly onto every transition of that segment
rather than trickling backwards step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

from needagent.core import (
    PriorityProfile,
    StateVector,
    UsageError,
    action_key,
    reinforcement,
    state_distance,
    state_key,  # unused here, but perfbench's tracer counts calls through this name
)
from needagent.memory import EpisodeLog, HistoryWalk, HistoryWindow, Segment, TransitionRecord, state_to_dict

STRATEGY_SEGMENT = "segment"
STRATEGY_TRANSITION_MAP = "transition-map"
STRATEGIES = (STRATEGY_SEGMENT, STRATEGY_TRANSITION_MAP)

SUCCESSOR_KEYING_STATE = "state"
SUCCESSOR_KEYING_ACTION = "action"
SUCCESSOR_KEYINGS = (SUCCESSOR_KEYING_STATE, SUCCESSOR_KEYING_ACTION)


@dataclass(frozen=True)
class LearningParams:
    """Knobs of the utility update.

    ``utility_step`` is the blend rate in ``(0, 1]``: 1 overwrites, smaller
    values average.  ``predictability_weight`` rewards transitions that match
    the agent's own prediction; the profile's ``energy_weight`` charges for
    effort.
    """

    priority: PriorityProfile
    utility_step: float = 1.0
    predictability_weight: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.utility_step <= 1.0:
            raise UsageError(f"utility_step must be in (0, 1], got {self.utility_step}")


@dataclass(frozen=True)
class Prospect:
    """One candidate outcome of the current history: a recorded successor
    with its learned utility and empirical probability."""

    state: StateVector
    utility: float
    probability: float
    sort_key: str


class TransitionModel:
    """Utilities, evidence counts and successor index keyed by history windows.

    ``successor_keying`` selects what identifies a successor in the utility
    and evidence tables: the full successor state, or only its action
    sub-vector (which collapses the tables to history x action).  The
    successor index always stores full states.
    """

    def __init__(self, window_size: int = 1, successor_keying: str = SUCCESSOR_KEYING_STATE) -> None:
        if window_size < 1:
            raise UsageError(f"window_size must be >= 1, got {window_size}")
        if successor_keying not in SUCCESSOR_KEYINGS:
            raise UsageError(f"unknown successor keying {successor_keying!r}")
        self.window_size = window_size
        self.successor_keying = successor_keying
        self.utility: dict[str, dict[str, float]] = {}
        self.evidence: dict[str, dict[str, int]] = {}
        self.successor_states: dict[str, dict[str, StateVector]] = {}
        self.state_seen: dict[str, int] = {}

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def successor_key(self, state: StateVector) -> str:
        if self.successor_keying == SUCCESSOR_KEYING_ACTION:
            return action_key(state)
        return state.key

    def observe(self, history: HistoryWindow, next_state: StateVector, l_value: float, step: float) -> None:
        """Record one transition and blend ``l_value`` into its utility."""
        if not 1 <= len(history) <= self.window_size:
            raise UsageError(
                f"history window length {len(history)} outside [1, {self.window_size}]"
            )
        hk = history.key
        nk = next_state.key
        sk = self.successor_key(next_state)
        row_u = self.utility.setdefault(hk, {})
        row_c = self.evidence.setdefault(hk, {})
        before = row_u.get(sk, 0.0)
        row_u[sk] = before + step * (l_value - before)
        row_c[sk] = row_c.get(sk, 0) + 1
        self.successor_states.setdefault(hk, {})[nk] = next_state
        seen = self.state_seen
        for key in (history.states[-1].key, nk):
            seen[key] = seen.get(key, 0) + 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def probabilities(self, history_key: str) -> dict[str, float]:
        """Empirical successor distribution for one history row."""
        row = self.evidence.get(history_key)
        if not row:
            raise UsageError(f"history {history_key!r} has no evidence")
        total = sum(row.values())
        return {sk: c / total for sk, c in row.items()}

    def transition_evidence(self, history: HistoryWindow, next_state: StateVector) -> int:
        return self.evidence.get(history.key, {}).get(self.successor_key(next_state), 0)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def to_tables(self) -> dict:
        return {
            "window_size": self.window_size,
            "successor_keying": self.successor_keying,
            "utility": {hk: dict(row) for hk, row in self.utility.items()},
            "evidence": {hk: dict(row) for hk, row in self.evidence.items()},
            "successors": {
                hk: {sk: state_to_dict(s) for sk, s in row.items()}
                for hk, row in self.successor_states.items()
            },
            "state_seen": dict(self.state_seen),
        }


def predict_successors(model: TransitionModel, history: HistoryWindow) -> list[Prospect]:
    """All recorded successors of the history with utility and probability.

    Empty when the history was never seen.  Ordering is deterministic:
    descending utility x probability, ties broken by ascending successor
    state key.
    """
    if len(history) == 0:
        raise UsageError("cannot predict from an empty history window")
    hk = history.key
    states = model.successor_states.get(hk)
    if not states:
        return []
    probability = model.probabilities(hk)
    row_u = model.utility[hk]
    prospects = []
    for skey, state in states.items():
        k = model.successor_key(state)
        prospects.append(
            Prospect(state=state, utility=row_u[k], probability=probability[k], sort_key=skey)
        )
    prospects.sort(key=lambda p: (-(p.utility * p.probability), p.sort_key))
    return prospects


# ======================================================================
# learning
# ======================================================================


def _l_value(
    params: LearningParams,
    explicit_term: float,
    predicted: StateVector | None,
    next_state: StateVector,
    energy: float,
) -> float:
    value = explicit_term - params.priority.energy_weight * energy
    # At weight zero the term is exactly +0.0, and ``value`` is never -0.0
    # (reinforcement sums from the integer 0), so skipping it keeps every bit.
    if predicted is not None and params.predictability_weight:
        value += params.predictability_weight * (1.0 - state_distance(predicted, next_state))
    return value


def learn_transition(
    model: TransitionModel,
    history: HistoryWindow,
    next_state: StateVector,
    predicted: StateVector | None,
    energy: float,
    params: LearningParams,
) -> None:
    """Per-step update with the immediate need-derived reinforcement.

    The explicit term is the priority-weighted actualization drop from the
    window's newest state to ``next_state``; the predictability term is
    omitted when no prediction was made or its weight is zero.
    """
    if len(history) == 0:
        raise UsageError("learn_transition requires a non-empty history window")
    explicit = reinforcement(params.priority, history.states[-1].needs, next_state.needs)
    l_value = _l_value(params, explicit, predicted, next_state, energy)
    model.observe(history, next_state, l_value, params.utility_step)


def apply_global_feedback(model: TransitionModel, segment: Segment, params: LearningParams) -> None:
    """Uniform terminal credit over a closed segment.

    The need-derived reinforcement of the segment's closing transition is
    used as the explicit term for every transition in the segment, oldest
    first; evidence counts rise by one per transition.  History windows are
    built from the segment's own records, so credit never leaks across
    segment boundaries.  Raises :class:`UsageError` on an open segment.
    """
    if not segment.closed:
        raise UsageError("cannot apply feedback from an open segment")
    last = segment.records[-1]
    terminal = reinforcement(params.priority, last.state.needs, last.next_state.needs)
    window = HistoryWindow(model.window_size)
    for rec in segment.records:
        window = window.push(rec.state)
        l_value = _l_value(params, terminal, rec.predicted_next, rec.next_state, rec.energy)
        model.observe(window, rec.next_state, l_value, params.utility_step)


def novelty(model: TransitionModel, key: str) -> float:
    """``1 / (1 + n)`` where ``n`` counts the recorded appearances of the
    situation ``key`` (a state's ``key``) as a history head or successor; 1
    for a never-seen situation, falling toward 0."""
    n = model.state_seen.get(key, 0)
    return 1.0 / (1.0 + n)


# ======================================================================
# incremental driver and rebuild
# ======================================================================


class LearningDriver:
    """Feeds transition records into a model exactly one way.

    The live harness and the snapshot replay both go through this class, so a
    rebuilt model reproduces the live one table for table.  Windows follow a
    :class:`HistoryWalk`; a tick gap (from a garbage-collected log) also
    drops the open segment instead of fabricating transitions across the hole.
    """

    def __init__(self, model: TransitionModel, params: LearningParams, strategy: str) -> None:
        if strategy not in STRATEGIES:
            raise UsageError(f"unknown learning strategy {strategy!r}")
        self.model = model
        self.params = params
        self.strategy = strategy
        self._walk = HistoryWalk(model.window_size)
        self._segment: list[TransitionRecord] = []

    def ingest(self, rec: TransitionRecord) -> None:
        if self._walk.advance(rec):
            self._segment = []
        if self.strategy == STRATEGY_TRANSITION_MAP:
            learn_transition(self.model, self._walk.learned, rec.next_state, rec.predicted_next,
                             rec.energy, self.params)
        self._segment.append(rec)
        if rec.reinforcement_observed != 0:
            segment = Segment(tuple(self._segment), rec.reinforcement_observed)
            apply_global_feedback(self.model, segment, self.params)
            self._segment = []

    @property
    def window(self) -> HistoryWindow:
        """The window that ends in the last record's ``next_state``."""
        return self._walk.window


def rebuild_from_log(
    log: EpisodeLog,
    params: LearningParams,
    strategy: str,
    window_size: int,
    successor_keying: str = SUCCESSOR_KEYING_STATE,
) -> TransitionModel:
    """Deterministically replay a log into a fresh model."""
    model = TransitionModel(window_size=window_size, successor_keying=successor_keying)
    driver = LearningDriver(model, params, strategy)
    for rec in log:
        driver.ingest(rec)
    return model


def tables_equal(a: dict, b: dict) -> list[str]:
    """Differences between two model table dumps; empty means equal.

    Every section must match exactly, as a replay is bit-exact.  Utilities
    are compared one by one, so a NaN on either side always differs.
    """
    problems: list[str] = []
    for section in ("window_size", "successor_keying", "evidence", "successors", "state_seen"):
        if a.get(section) != b.get(section):
            problems.append(f"model.{section} differs")
    ua, ub = a.get("utility", {}), b.get("utility", {})
    if set(ua) != set(ub):
        problems.append("model.utility: history keys differ")
    else:
        for hk in ua:
            if set(ua[hk]) != set(ub[hk]):
                problems.append(f"model.utility[{hk!r}]: successor keys differ")
                continue
            for sk in ua[hk]:
                if ua[hk][sk] != ub[hk][sk]:
                    problems.append(
                        f"model.utility[{hk!r}][{sk!r}]: {ua[hk][sk]} vs {ub[hk][sk]}"
                    )
    return problems
