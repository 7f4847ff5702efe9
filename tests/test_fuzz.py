"""Hostile inputs: arbitrary JSON and text fed to the config, snapshot and
metrics CSV readers.

Each input either parses into valid objects or fails with the documented
error type: ``ConfigError`` for configs and metrics files, ``SnapshotError``
for snapshots.  Any other exception would end the CLI in a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import re
import sys
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from needagent.cli import EXIT_CONFIG, EXIT_OK, main
from needagent.decision import MODES
from needagent.harness import (
    _FIELDS,
    CSV_COLUMNS,
    ConfigError,
    config_from_dict,
    metrics_from_csv,
    metrics_to_csv,
    run,
    snapshot_from_run,
    verify_snapshot,
)
from needagent.memory import SnapshotError, dumps_snapshot, loads_snapshot, record_to_dict, schema_to_dict
from needagent.model import STRATEGIES, SUCCESSOR_KEYINGS

# Any JSON value, NaN and the infinities included: ``json.load`` accepts
# them in config files, and they reach ``loads_snapshot`` as bare tokens.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

DELETE = object()  # a replacement that removes the field instead


def _paths(value, prefix=()):
    """Paths to every field of a JSON value, keeping it small: the first
    and last items of a list and at most two keys of a large object."""
    if isinstance(value, dict):
        keys = list(value) if len(value) <= 16 else list(value)[:2]
    elif isinstance(value, list):
        keys = sorted({0, len(value) - 1}) if value else []
    else:
        return []
    paths = []
    for key in keys:
        paths.append(prefix + (key,))
        paths.extend(_paths(value[key], prefix + (key,)))
    return paths


def _get(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _replaced(payload, path, value):
    payload = copy.deepcopy(payload)
    parent = _get(payload, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return payload


def mutations(payload: dict) -> st.SearchStrategy:
    """``payload`` with one field removed or replaced, by any JSON value or
    by a scalar from the same top-level section.  Drawing the section
    first keeps the small ones (``schema``, ``version``) as likely as the
    large ones; splicing makes near misses such as a repeated name."""
    sections: dict = {}
    for path in _paths(payload):
        sections.setdefault(path[0], []).append(path)

    def mutate(paths):
        leaves = [_get(payload, path) for path in paths]
        spliced = st.sampled_from([leaf for leaf in leaves if not isinstance(leaf, (dict, list))] or leaves)
        return st.builds(_replaced, st.just(payload), st.sampled_from(paths), JSON | spliced | st.just(DELETE))

    return st.sampled_from(list(sections.values())).flatmap(mutate)


# A config that sets a field in every section, so that each section is a
# mutation target; the snapshot of its run is the other base input.
_CONFIG = {
    "seed": 0,
    "ticks": 40,
    "window_size": 2,
    "strategy": "transition-map",
    "board": {"feedback_delay": 1},
    "profile": {"weights": [1.0, 0.25, 0.1, 0.1], "energy_weight": 0.1},
    "policy": {"mode": "prospected", "exploration_rate": 0.2},
    "learning": {"predictability_weight": 0.5, "successor_keying": "state"},
    "gc": {"horizon": None},
}

_RUN = run(config_from_dict(_CONFIG))
_SNAPSHOT = json.loads(dumps_snapshot(snapshot_from_run(_RUN)))
_METRICS_LINES = metrics_to_csv(_RUN.metrics).split("\n")


_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_FUZZ
@given(data=JSON | mutations(_CONFIG))
def test_config_from_dict_raises_only_config_errors(data):
    try:
        config_from_dict(data)
    except ConfigError:
        pass


@settings(_FUZZ, max_examples=300)
@given(payload=mutations(_SNAPSHOT))
def test_snapshot_fields_raise_only_snapshot_errors(payload):
    text = json.dumps(payload)
    try:
        verify_snapshot(loads_snapshot(text))
    except (ConfigError, SnapshotError):
        pass


# What a near miss puts in place of a number: the same number as the other of int and float (a float
# cut to an integer), one less (for a tick, the last record's), a boolean, a zero, a signed zero, and a
# number too large for a float.
_SWAPS = ("retyped", "less", True, 0, -0.0, 10**400)


@st.composite
def near_misses(draw, payload: dict) -> dict:
    """``payload`` with one log record or one of its states just outside the canonical shape: a key added
    or dropped, or a tick, code, level or other number swapped (see ``_SWAPS``).  Each change is as likely
    as any other, so that a reader that accepts one of them is found within a few hundred examples."""
    payload = copy.deepcopy(payload)
    record = draw(st.sampled_from(payload["log"]))
    state = draw(st.sampled_from([record[key] for key in ("state", "predicted_next", "next_state")
                                  if record[key] is not None]))
    target, key, swap = draw(st.sampled_from([
        *((value, "bogus", 0) for value in (record, state)),
        *((value, key, DELETE) for value in (record, state) for key in sorted(value)),
        *((value, key, swap) for value in (record, state) for key in sorted(value)
          if type(value[key]) in (int, float, list) for swap in _SWAPS),
    ]))
    if swap is DELETE:
        del target[key]
    elif key not in target:  # the unknown key
        target[key] = swap
    else:
        if type(target[key]) is list:
            target, key = target[key], draw(st.integers(0, len(target[key]) - 1))
        value = target[key]
        if swap == "retyped":
            swap = int(value) if type(value) is float else float(value)
        elif swap == "less":
            swap = value - 1
        target[key] = swap
    return payload


def _finite(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _as_written(records) -> bool:
    """True if ``records`` hold only the types a run writes: integer codes and ticks, boolean actions,
    finite numbers, need levels without a minus sign, and ticks that rise."""
    states = [s for r in records for s in (r.state, r.predicted_next, r.next_state) if s is not None]
    ticks = [r.tick for r in records]
    return (
        all(type(tick) is int for tick in ticks + [s.tick for s in states])
        and all(earlier < later for earlier, later in zip(ticks, ticks[1:]))
        and all(type(a) is bool for r in records for a in r.chosen_action)
        and all(_finite(r.reinforcement_observed) and _finite(r.energy) for r in records)
        and all(type(code) is int for s in states for code in s.feelings)
        and all(type(a) is bool for s in states for a in s.actions)
        and all(_finite(level) and math.copysign(1.0, level) > 0 for s in states for level in s.needs)
    )


def _assert_loads_as_written(payload):
    """A payload, encoded canonically, is a snapshot error, or loads to records of the writer's types
    that re-encode to exactly its own bytes."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        snapshot = loads_snapshot(text)
    except SnapshotError:
        return
    assert _as_written(snapshot.log)
    assert dumps_snapshot(snapshot) == text


@settings(_FUZZ, max_examples=300)
@given(payload=mutations(_SNAPSHOT))
def test_a_mutated_snapshot_loads_as_written_or_not_at_all(payload):
    _assert_loads_as_written(payload)


@settings(_FUZZ, max_examples=600)
@given(payload=near_misses(_SNAPSHOT))
def test_a_near_miss_loads_as_written_or_not_at_all(payload):
    _assert_loads_as_written(payload)


def test_the_unmutated_snapshot_verifies():
    assert verify_snapshot(loads_snapshot(json.dumps(_SNAPSHOT))) == []


def _whole_tree(snapshot) -> str:
    """The snapshot text as one ``json.dumps`` of the whole payload tree: the reference for ``dumps_snapshot``,
    which encodes section by section and record by record."""
    payload = {
        "version": snapshot.version,
        "schema": schema_to_dict(snapshot.schema),
        "log": [record_to_dict(rec) for rec in snapshot.log],
        "model": snapshot.model_tables,
        "config": snapshot.config,
        "config_fingerprint": snapshot.config_fingerprint,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@settings(_FUZZ, max_examples=300)
@given(payload=mutations(_SNAPSHOT) | near_misses(_SNAPSHOT))
def test_a_loadable_snapshot_dumps_as_its_whole_tree(payload):
    try:
        snapshot = loads_snapshot(json.dumps(payload))
    except SnapshotError:
        return
    assert dumps_snapshot(snapshot) == _whole_tree(snapshot)


def test_a_collected_window_run_dumps_as_its_whole_tree():
    config = {"ticks": 600, "window_size": 3, "board": {"feedback_delay": 2},
              "learning": {"predictability_weight": 0.5}, "gc": {"horizon": 20, "interval": 25, "min_trust": 3}}
    snapshot = snapshot_from_run(run(config_from_dict(config)))
    ticks = [rec.tick for rec in snapshot.log]
    assert ticks != list(range(ticks[0], ticks[0] + len(ticks)))  # GC left gaps
    assert any(rec.predicted_next is not None for rec in snapshot.log)
    assert dumps_snapshot(snapshot) == _whole_tree(snapshot)


_HEADER = ",".join(CSV_COLUMNS)
_CELL = st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "-0", "1e999", "1_0", " 2", "x", "", "١"]) | st.text(max_size=4)
_ROW = st.lists(_CELL, min_size=len(CSV_COLUMNS) - 1, max_size=len(CSV_COLUMNS) + 1).map(",".join)


@_FUZZ
@given(text=st.text() | st.lists(_ROW, max_size=4).map(lambda rows: "\n".join([_HEADER, *rows])))
def test_metrics_from_csv_raises_only_config_errors(text):
    try:
        metrics_from_csv(text)
    except ConfigError:
        pass


@_FUZZ
@given(line=st.integers(1, len(_METRICS_LINES) - 2), column=st.integers(0, len(CSV_COLUMNS) - 1), cell=_CELL)
def test_metrics_from_csv_reads_only_what_the_writer_writes(line, column, cell):
    cells = _METRICS_LINES[line].split(",")
    cells[column] = cell
    text = "\n".join([*_METRICS_LINES[:line], ",".join(cells), *_METRICS_LINES[line + 1:]])
    try:
        rows = metrics_from_csv(text)
    except ConfigError:
        return
    assert metrics_to_csv(rows) == text


# ----------------------------------------------------------------------
# whole configs drawn from the edges of the domain, through the CLI
# ----------------------------------------------------------------------

# Zero, one, powers of ten (past float range from 10**309), the largest and the least positive float, an
# integer beyond float range, and a level count at which 1.0 snaps past 1.0 before quantize's last clamp.
_EDGE = (st.sampled_from([0, 1, sys.float_info.max, 5e-324, 2**1024, 6691973981075823])
         | st.integers(0, 310).map(lambda k: 10**k))
_NUMERIC_ROWS = ("seed", "board.width", "board.height", "board.racket_width", "board.feedback_delay",
                 "board.need_levels", "profile.energy_weight", "window_size", "policy.exploration_rate",
                 "learning.utility_step", "learning.predictability_weight", "gc.horizon", "gc.min_trust",
                 "gc.interval")
_WEIGHTS = st.lists(_EDGE, min_size=4, max_size=4)
_ROW_VALUES = {**{path: _EDGE for path in _NUMERIC_ROWS},
               "profile.weights": _WEIGHTS,
               "strategy": st.sampled_from(STRATEGIES),
               "policy.mode": st.sampled_from(MODES),
               "learning.successor_keying": st.sampled_from(SUCCESSOR_KEYINGS)}
# Labels may repeat, which ``sweep`` rejects.
_PROFILE_ENTRIES = st.lists(st.fixed_dictionaries({"label": st.sampled_from(["a", "b"]), "weights": _WEIGHTS},
                                                  optional={"energy_weight": _EDGE}), min_size=1, max_size=2)
_PATH = r"[a-z_]+(\[\d+\])?(\.[a-z_]+(\[\d+\])?)*"
# A sweep names the profile and seed of a run whose learned utilities overflowed, then the fields to blame.
_CONFIG_ERROR = re.compile(rf"config error: (profile '\w+' seed \d+: )?{_PATH}(, {_PATH})*: ")


@st.composite
def edge_configs(draw) -> dict:
    """A config with ``ticks`` from {0, 1, 20} and any subset of the other rows, each at an edge value."""
    config: dict = {"ticks": draw(st.sampled_from([0, 1, 20]))}
    for path in sorted(draw(st.sets(st.sampled_from(sorted(_ROW_VALUES))))):
        section, _, key = path.rpartition(".")
        (config.setdefault(section, {}) if section else config)[key] = draw(_ROW_VALUES[path])
    return config


def _main(argv: list[str]) -> tuple[int, str]:
    """The exit code and standard error of one CLI call; an exception propagates as a traceback would."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def _assert_wrote_all_or_nothing(argv: list[str], out: str, names: list[str]) -> int:
    code, err = _main([*argv, "--out", out])
    if code == EXIT_OK:
        assert sorted(os.listdir(out)) == names
    else:
        assert code == EXIT_CONFIG and _CONFIG_ERROR.match(err), err
        assert not os.path.exists(out)
    return code


def test_the_edge_configs_draw_every_config_row():
    assert {"ticks", "out_dir", *_ROW_VALUES} == {path for path, _, _ in _FIELDS}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=edge_configs(), profiles=_PROFILE_ENTRIES)
@example(config={"ticks": 20, "board": {"need_levels": 6691973981075823}}, profiles=[{"label": "a", "weights": [1] * 4}])
def test_an_edge_config_runs_and_replays_or_is_a_named_config_error(config, profiles):
    """``run`` then ``replay``, ``sweep`` over two seeds and a 20-tick ``baseline`` each exit 0 or name the bad field,
    and a command writes all of its files or none."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        profiles_path = os.path.join(tmp, "profiles.json")
        for path, payload in ((config_path, config), (profiles_path, profiles)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        out = os.path.join(tmp, "run")
        if _assert_wrote_all_or_nothing(["run", "--config", config_path], out,
                                        ["metrics.csv", "snapshot.json"]) == EXIT_OK:
            assert _main(["replay", "--snapshot", os.path.join(out, "snapshot.json")]) == (EXIT_OK, "")
        _assert_wrote_all_or_nothing(["sweep", "--config", config_path, "--profiles", profiles_path, "--seeds", "0..1"],
                                     os.path.join(tmp, "sweep"), ["sweep_runs.csv", "sweep_summary.csv"])
        code, err = _main(["baseline", "--config", config_path, "--ticks", "20"])
        assert code == EXIT_OK or code == EXIT_CONFIG and _CONFIG_ERROR.match(err), err
