"""Command line behavior: exit codes, output files, directory resolution."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from needagent.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, OUT_DIR_ENV, main
from needagent.harness import CSV_COLUMNS


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def config_path(tmp_path):
    return write_json(tmp_path / "config.json", {"seed": 3, "ticks": 60})


@pytest.fixture()
def profiles_path(tmp_path):
    return write_json(
        tmp_path / "profiles.json",
        [
            {"label": "skewed", "weights": [1.0, 0.25, 0.1, 0.1], "energy_weight": 0.5},
            {"label": "even", "weights": [1.0, 1.0, 0.1, 0.1]},
        ],
    )


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def test_run_writes_metrics_and_snapshot(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "run seed=3 ticks=60" in captured.out
    assert "final_rolling_hit_rate=" in captured.out
    metrics = (out / "metrics.csv").read_text(encoding="utf-8")
    assert metrics.startswith("tick,")
    assert len(metrics.strip().split("\n")) == 61
    snapshot = json.loads((out / "snapshot.json").read_text(encoding="utf-8"))
    assert snapshot["config"]["seed"] == 3


def test_run_seed_flag_beats_the_config_file(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--seed", "9", "--out", str(out)]) == EXIT_OK
    snapshot = json.loads((out / "snapshot.json").read_text(encoding="utf-8"))
    assert snapshot["config"]["seed"] == 9


def test_run_rejects_a_config_with_unknown_fields(tmp_path, capsys):
    config = write_json(tmp_path / "bad.json", {"bogus": 1})
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_rejects_a_non_object_config(tmp_path, capsys):
    config = write_json(tmp_path / "bad.json", [1, 2])
    assert main(["run", "--config", config]) == EXIT_CONFIG
    assert "top level: expected an object" in capsys.readouterr().err


def test_run_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "invalid JSON" in capsys.readouterr().err


def test_run_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": "\xff"}')  # 0xff never occurs in UTF-8
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_run_rejects_a_gc_horizon_of_zero(tmp_path, capsys):
    # A zero horizon would let GC remove the newest record, and the next
    # append would no longer follow the last tick.
    config = write_json(
        tmp_path / "config.json",
        {"ticks": 100, "strategy": "segment", "gc": {"horizon": 0, "interval": 5, "min_trust": 2}},
    )
    assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: gc.horizon: must be > 0")
    assert not (tmp_path / "out").exists()


def test_run_reports_a_missing_config_as_an_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# output directory resolution
# ----------------------------------------------------------------------


def test_out_flag_beats_config_and_environment(tmp_path, monkeypatch):
    flag_dir = tmp_path / "from_flag"
    env_dir = tmp_path / "from_env"
    cfg_dir = tmp_path / "from_config"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    config = write_json(
        tmp_path / "config.json", {"seed": 0, "ticks": 5, "out_dir": str(cfg_dir)}
    )
    assert main(["run", "--config", config, "--out", str(flag_dir)]) == EXIT_OK
    assert (flag_dir / "metrics.csv").exists()
    assert not env_dir.exists()
    assert not cfg_dir.exists()


def test_config_out_dir_beats_the_environment(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    cfg_dir = tmp_path / "from_config"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    config = write_json(
        tmp_path / "config.json", {"seed": 0, "ticks": 5, "out_dir": str(cfg_dir)}
    )
    assert main(["run", "--config", config]) == EXIT_OK
    assert (cfg_dir / "metrics.csv").exists()
    assert not env_dir.exists()


def test_environment_directory_is_used_when_nothing_else_is_set(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    config = write_json(tmp_path / "config.json", {"seed": 0, "ticks": 5})
    assert main(["run", "--config", config]) == EXIT_OK
    assert (env_dir / "snapshot.json").exists()


def test_working_directory_is_the_last_resort(tmp_path, monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    config = write_json(tmp_path / "config.json", {"seed": 0, "ticks": 5})
    assert main(["run", "--config", "config.json"]) == EXIT_OK
    assert (tmp_path / "metrics.csv").exists()


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


@pytest.fixture()
def snapshot_path(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_OK
    return out / "snapshot.json"


def test_replay_verifies_an_untouched_snapshot(snapshot_path, capsys):
    capsys.readouterr()
    assert main(["replay", "--snapshot", str(snapshot_path)]) == EXIT_OK
    assert "verified" in capsys.readouterr().out


def test_replay_rejects_a_tampered_snapshot(snapshot_path, capsys):
    payload = json.loads(snapshot_path.read_text(encoding="utf-8"))
    history_key = next(iter(payload["model"]["utility"]))
    successor_key = next(iter(payload["model"]["utility"][history_key]))
    payload["model"]["utility"][history_key][successor_key] += 0.5
    snapshot_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--snapshot", str(snapshot_path)]) == EXIT_VERIFY
    assert "mismatch" in capsys.readouterr().err


def test_replay_rejects_a_forged_config_fingerprint(snapshot_path, capsys):
    payload = json.loads(snapshot_path.read_text(encoding="utf-8"))
    payload["config"]["seed"] += 1
    snapshot_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--snapshot", str(snapshot_path)]) == EXIT_VERIFY
    assert "fingerprint" in capsys.readouterr().err


def _tamper(snapshot_path, change):
    payload = json.loads(snapshot_path.read_text(encoding="utf-8"))
    change(payload)
    # json.dumps writes a NaN utility as the bare token NaN.
    snapshot_path.write_text(json.dumps(payload), encoding="utf-8")


def _set_nan_utility(payload):
    row = next(iter(payload["model"]["utility"].values()))
    row[next(iter(row))] = float("nan")


def _set_row(payload, section, row):
    payload["model"][section]["h"] = row


def _repeat_a_variable_name(payload):
    schema = payload["schema"]
    schema["actions"][0] = schema["needs"][0]


def _set_code(state, key, index, before, after):
    assert state[key][index] == before
    state[key][index] = after


def _set_successor_code(payload):
    _set_code(payload["model"]["successors"]["0,0,0,1,2"]["1,1,1,1,1"], "f", 0, 1, True)


@pytest.mark.parametrize(
    "change,message",
    [
        (_set_nan_utility, "not valid JSON: NaN is not a number"),
        (lambda p: p["log"].__setitem__(0, 5), "log[0]: expected an object"),
        (lambda p: p["log"][1].__setitem__("energy", "x"), "log[1].energy: expected a finite number"),
        (
            lambda p: p["log"][2].__setitem__("reinforcement", "1"),
            "log[2].reinforcement: expected a finite number",
        ),
        (lambda p: p["config"].__setitem__("ticks", -1), "config.ticks: must be >= 0"),
        (lambda p: p["model"].__setitem__("utility", 5), "model.utility: expected an object"),
        (lambda p: _set_row(p, "utility", 5), "model.utility['h']: expected an object"),
        (lambda p: _set_row(p, "utility", [1.0]), "model.utility['h']: expected an object"),
        (lambda p: _set_row(p, "evidence", {"x": 1.5}), "model.evidence['h']['x']: expected an integer"),
        (lambda p: _set_row(p, "successors", []), "model.successors['h']: expected an object"),
        (lambda p: _set_row(p, "utility", {"x": "0.5"}), "model.utility['h']['x']: expected a finite number"),
        (lambda p: p["model"]["state_seen"].__setitem__("x", "1"), "model.state_seen['x']: expected an integer"),
        (lambda p: p["model"].__setitem__("state_seen", []), "model.state_seen: expected an object"),
        (lambda p: p["model"].__setitem__("window_size", "1"), "model.window_size: expected an integer"),
        (lambda p: p["model"].__setitem__("successor_keying", 7), "model.successor_keying: expected a string"),
        (lambda p: p["model"].__setitem__("bogus", {"x": 1}), "model.bogus: unknown field"),
        (lambda p: p.__setitem__("bogus", {"x": 1}), "bogus: unknown field"),
        (_repeat_a_variable_name, "schema: variable names must be unique"),
        (lambda p: p.__setitem__("version", True), "version: expected an integer, got True"),
        (lambda p: p["log"][0].__setitem__("tick", False), "log[0].tick: expected an integer, got False"),
        (lambda p: p["log"][0]["chosen_action"].__setitem__(1, 5), "log[0].chosen_action[1]: must be in [0, 1]"),
        (
            lambda p: p["log"][0]["chosen_action"].__setitem__(1, True),
            "log[0].chosen_action[1]: expected an integer, got True",
        ),
        (lambda p: p["log"][1]["state"]["a"].__setitem__(1, 5), "log[1].state.a[1]: must be in [0, 1]"),
        (
            lambda p: _set_code(p["log"][40]["predicted_next"], "f", 0, 4, 4.0),
            "log[40].predicted_next.f[0]: expected an integer, got 4.0",
        ),
        (
            lambda p: _set_code(p["log"][0]["next_state"], "y", 2, 1.0, True),
            "log[0].next_state.y[2]: expected a finite number, got True",
        ),
        (lambda p: p["log"][1]["state"].__setitem__("tick", True), "log[1].state.tick: expected an integer, got True"),
        (lambda p: p["log"][1]["state"].__setitem__("tick", 1.0), "log[1].state.tick: expected an integer, got 1.0"),
        (
            _set_successor_code,
            "model.successors['0,0,0,1,2']['1,1,1,1,1'].f[0]: expected an integer, got True",
        ),
    ],
    ids=[
        "nan-utility", "record-not-an-object", "energy-string", "reinforcement-string", "bad-config",
        "utility-number", "utility-row-number", "utility-row-list", "evidence-float",
        "successors-row-list", "utility-string", "state-seen-string", "state-seen-list",
        "window-size-string", "successor-keying-number",
        "model-unknown-key", "top-level-unknown-key", "schema-duplicate-names", "version-bool", "tick-bool",
        "action-code-five", "action-code-bool", "state-action-code-five", "predicted-feeling-float",
        "need-level-bool", "state-tick-bool", "state-tick-float", "successor-feeling-bool",
    ],
)
def test_replay_reports_a_malformed_snapshot_field(snapshot_path, capsys, change, message):
    _tamper(snapshot_path, change)
    capsys.readouterr()
    assert main(["replay", "--snapshot", str(snapshot_path)]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"snapshot error: {message}")


def _drop_a_need_everywhere(payload):
    """A consistent snapshot with three needs, where the board has four."""
    payload["schema"]["needs"].pop()
    states = [rec[key] for rec in payload["log"] for key in ("state", "next_state", "predicted_next")]
    states += [state for row in payload["model"]["successors"].values() for state in row.values()]
    for state in filter(None, states):
        state["y"].pop()


@pytest.mark.parametrize(
    "change",
    [lambda p: p["schema"]["feelings"][0].__setitem__("name", "renamed"), _drop_a_need_everywhere],
    ids=["renamed-feeling", "three-needs"],
)
def test_replay_reports_a_schema_other_than_the_boards(snapshot_path, capsys, change):
    _tamper(snapshot_path, change)
    capsys.readouterr()
    assert main(["replay", "--snapshot", str(snapshot_path)]) == EXIT_VERIFY
    assert "mismatch: schema does not match the board" in capsys.readouterr().err


def _flip_the_chosen_action(payload):
    payload["log"][10]["chosen_action"] = [1 - code for code in payload["log"][10]["chosen_action"]]


def _nudge_a_utility(payload):
    # Replay is bit-exact, so no edit is small enough to pass.
    row = next(iter(payload["model"]["utility"].values()))
    row[next(iter(row))] += 5e-13


@pytest.mark.parametrize(
    "change, message",
    [
        (_flip_the_chosen_action, "log[10].chosen_action: differs from next_state.actions"),
        (lambda p: p["log"][10]["state"].__setitem__("tick", 9999), "log[10].state.tick: 9999 is not"),
        (lambda p: p["log"][10].__setitem__("energy", 42.0), "log[10].energy: 42.0 is not the cost"),
        (_nudge_a_utility, "model.utility["),
    ],
    ids=["chosen-action-flipped", "state-tick-9999", "energy-42", "utility-plus-5e-13"],
)
def test_replay_reports_a_broken_log_invariant_as_a_mismatch(snapshot_path, capsys, change, message):
    _tamper(snapshot_path, change)
    capsys.readouterr()
    assert main(["replay", "--snapshot", str(snapshot_path)]) == EXIT_VERIFY
    assert capsys.readouterr().err.startswith(f"mismatch: {message}")


def test_replay_reports_a_missing_model_section_as_a_mismatch(snapshot_path, capsys):
    _tamper(snapshot_path, lambda p: p["model"].pop("evidence"))
    capsys.readouterr()
    assert main(["replay", "--snapshot", str(snapshot_path)]) == EXIT_VERIFY
    assert "mismatch: model.evidence differs" in capsys.readouterr().err


def test_replay_reports_malformed_snapshots_as_io_errors(tmp_path, capsys):
    path = tmp_path / "snapshot.json"
    path.write_text('{"version": 1}', encoding="utf-8")
    assert main(["replay", "--snapshot", str(path)]) == EXIT_IO
    assert "snapshot error" in capsys.readouterr().err


def test_replay_reports_a_snapshot_that_is_not_utf8_as_a_snapshot_error(tmp_path, capsys):
    path = tmp_path / "snapshot.json"
    path.write_bytes(b'{"version": "\xff"}')
    assert main(["replay", "--snapshot", str(path)]) == EXIT_IO
    assert capsys.readouterr().err.startswith("snapshot error:")


def test_replay_reports_a_missing_snapshot_as_an_io_error(tmp_path):
    assert main(["replay", "--snapshot", str(tmp_path / "nope.json")]) == EXIT_IO


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def test_baseline_reports_a_hit_rate(config_path, capsys):
    assert main(["baseline", "--config", config_path, "--ticks", "2000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "baseline hit_rate=" in out
    assert "seed=3" in out


def test_baseline_seed_flag_is_reflected(config_path, capsys):
    assert main(["baseline", "--config", config_path, "--ticks", "500", "--seed", "8"]) == EXIT_OK
    assert "seed=8" in capsys.readouterr().out


def test_baseline_with_too_few_ticks_reports_no_events(config_path, capsys):
    assert main(["baseline", "--config", config_path, "--ticks", "2"]) == EXIT_OK
    assert "no events" in capsys.readouterr().out


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_sweep_writes_both_tables(tmp_path, config_path, profiles_path, capsys):
    config = write_json(tmp_path / "sweep_config.json", {"ticks": 40})
    out = tmp_path / "sweep_out"
    code = main(
        ["sweep", "--config", config, "--profiles", profiles_path,
         "--seeds", "0..2", "--out", str(out)]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert "profile=skewed runs=3" in captured
    assert "profile=even runs=3" in captured
    runs_lines = (out / "sweep_runs.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(runs_lines) == 7  # header + 2 profiles x 3 seeds
    summary_lines = (out / "sweep_summary.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(summary_lines) == 3


def test_sweep_accepts_a_single_seed(tmp_path, profiles_path):
    config = write_json(tmp_path / "config.json", {"ticks": 20})
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", config, "--profiles", profiles_path,
         "--seeds", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = (out / "sweep_runs.csv").read_text(encoding="utf-8").strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["4", "4"]


@pytest.mark.parametrize("seeds", ["5..3", "x", "1..y"])
def test_sweep_rejects_bad_seed_ranges(tmp_path, profiles_path, seeds, capsys):
    config = write_json(tmp_path / "config.json", {"ticks": 10})
    code = main(
        ["sweep", "--config", config, "--profiles", profiles_path,
         "--seeds", seeds, "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"label": "a"},
        [{"weights": [1, 1, 1, 1]}],
        [{"label": "a", "weights": [1, 1, 1]}],
        [{"label": "a", "weights": [1, 1, 1, "x"]}],
        [{"label": "a", "weights": [1, 1, 1, 1]},
         {"label": "a", "weights": [1, 1, 1, 1]}],
    ],
)
def test_sweep_rejects_bad_profile_files(tmp_path, payload, capsys):
    config = write_json(tmp_path / "config.json", {"ticks": 10})
    profiles = write_json(tmp_path / "profiles.json", payload)
    code = main(
        ["sweep", "--config", config, "--profiles", profiles,
         "--seeds", "0", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")


@pytest.mark.parametrize(
    "entry, field",
    [
        ({"weights": [-1, "NaN", 0, 0]}, "profiles[1].weights[0]"),
        ({"weights": [1, 1, 1, 1], "energy_weight": "-inf"}, "profiles[1].energy_weight"),
        ({"weights": [1, 1, 1, 1], "bogus": 3}, "profiles[1].bogus"),
        ({}, "profiles[1].weights"),
        ({"label": "a,b", "weights": [1, 1, 1, 1]}, "profiles[1].label"),
        ({"label": "x\ny", "weights": [1, 1, 1, 1]}, "profiles[1].label"),
    ],
)
def test_sweep_profile_errors_name_the_entry(tmp_path, entry, field, capsys):
    config = write_json(tmp_path / "config.json", {"ticks": 10})
    profiles = write_json(
        tmp_path / "profiles.json",
        [{"label": "ok", "weights": [1, 1, 1, 1]}, {"label": "bad", **entry}],
    )
    code = main(
        ["sweep", "--config", config, "--profiles", profiles,
         "--seeds", "0", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err


def test_sweep_rejects_a_profiles_file_that_is_not_utf8(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", {"ticks": 10})
    profiles = tmp_path / "profiles.json"
    profiles.write_bytes(b'[{"label": "\xff"}]')
    code = main(
        ["sweep", "--config", config, "--profiles", str(profiles),
         "--seeds", "0", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


# ----------------------------------------------------------------------
# plot
# ----------------------------------------------------------------------


def test_plot_renders_a_metrics_file(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "--config", config_path, "--out", str(out)]) == EXIT_OK
    svg_path = tmp_path / "plot.svg"
    code = main(["plot", "--metrics", str(out / "metrics.csv"), "--out", str(svg_path)])
    assert code == EXIT_OK
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 5


def test_plot_rejects_a_malformed_metrics_file(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_text("wrong,header\n1,2\n", encoding="utf-8")
    code = main(["plot", "--metrics", str(path), "--out", str(tmp_path / "p.svg")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    path.write_text(",".join(CSV_COLUMNS) + "\n1,abc,0,0,0,0,0,0,0,0,0\n", encoding="utf-8")
    code = main(["plot", "--metrics", str(path), "--out", str(tmp_path / "p.svg")])
    assert code == EXIT_CONFIG
    assert "line 2, happy" in capsys.readouterr().err


def test_plot_reports_a_missing_metrics_file_as_an_io_error(tmp_path):
    code = main(["plot", "--metrics", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "p.svg")])
    assert code == EXIT_IO


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    config = write_json(tmp_path / "config.json", {"seed": 1, "ticks": 500})
    proc = subprocess.run(
        [sys.executable, "-m", "needagent.cli", "baseline", "--config", str(config),
         "--ticks", "500"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "baseline hit_rate=" in proc.stdout
