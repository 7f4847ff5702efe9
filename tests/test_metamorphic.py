"""Whole-run metamorphic relations: two runs that must agree, compared with ``==``.

No relation needs a reference implementation.  Scaling every weight by
a power of two scales every learned utility exactly and changes no decision.
Garbage collection forgets log records but never touches the model, so it
changes no decision either.  A sweep runs each profile on its own, so the
order of its profiles changes no label's rows.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from needagent.core import PriorityProfile
from needagent.decision import MODES
from needagent.harness import RunConfig, metrics_to_csv, run, sweep
from needagent.model import STRATEGIES, SUCCESSOR_KEYINGS
from needagent.pingpong import BoardConfig

_WEIGHT = st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0])
_PROFILE = st.builds(PriorityProfile, st.tuples(_WEIGHT, _WEIGHT, _WEIGHT, _WEIGHT), st.sampled_from([0.0, 0.1, 0.5]))

configs = st.builds(
    RunConfig,
    seed=st.integers(0, 2**16),
    ticks=st.integers(0, 300),
    board=st.builds(BoardConfig, feedback_delay=st.integers(0, 2)),
    profile=_PROFILE,
    strategy=st.sampled_from(STRATEGIES),
    window_size=st.integers(1, 3),
    policy_mode=st.sampled_from(MODES),
    predictability_weight=st.sampled_from([0.0, 0.3, 1.0]),
    successor_keying=st.sampled_from(SUCCESSOR_KEYINGS),
)


def _scaled(config: RunConfig, factor: float) -> RunConfig:
    profile = config.profile
    return replace(config, profile=PriorityProfile(tuple(w * factor for w in profile.weights),
                                                   profile.energy_weight * factor),
                   predictability_weight=config.predictability_weight * factor)


@settings(max_examples=30, deadline=None)
@given(config=configs)
def test_scaling_every_weight_by_a_power_of_two_scales_every_utility_and_no_output(config):
    base = run(config)
    base_utility = base.model.to_tables()["utility"]
    for k in (-5, 3, 40):
        scaled = run(_scaled(config, 2.0**k))
        assert metrics_to_csv(scaled.metrics) == metrics_to_csv(base.metrics)
        expected = {hk: {sk: u * 2.0**k for sk, u in row.items()} for hk, row in base_utility.items()}
        assert scaled.model.to_tables()["utility"] == expected


@settings(max_examples=40, deadline=None)
@given(config=configs, horizon=st.sampled_from([0.5, 1.0, 5.0, 20.0]), min_trust=st.integers(0, 3),
       interval=st.integers(1, 20))
def test_garbage_collection_changes_only_the_log(config, horizon, min_trust, interval):
    full = run(config)
    collected = run(replace(config, gc_horizon=horizon, gc_min_trust=min_trust, gc_interval=interval))
    assert metrics_to_csv(collected.metrics) == metrics_to_csv(full.metrics)
    assert collected.model.to_tables() == full.model.to_tables()
    remaining = iter(full.log)
    assert all(rec in remaining for rec in collected.log)  # a subsequence: ``in`` consumes the iterator


@settings(max_examples=10, deadline=None)
@given(config=configs, profiles=st.lists(_PROFILE, min_size=2, max_size=3),
       seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=2, unique=True))
def test_sweep_rows_per_label_do_not_depend_on_profile_order(config, profiles, seeds):
    labelled = [(f"p{i}", profile) for i, profile in enumerate(profiles)]
    forward, backward = sweep(config, labelled, seeds), sweep(config, labelled[::-1], seeds)
    by_label = attrgetter("profile_label")
    for rows, reversed_rows in zip(forward, backward):  # the runs, then the summaries
        assert sorted(rows, key=by_label) == sorted(reversed_rows, key=by_label)
