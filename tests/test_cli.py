"""CLI tests: exercise every subcommand through main() and check the
documented exit codes."""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from seedevo.cli import LOCK_FILENAME, main
from seedevo.config import SETTINGS, load_config
from seedevo.engine import EvolutionEngine
from seedevo.events import read_events
from seedevo.executors import build_executor
from seedevo.reporting import compute_operator_stats
from seedevo.workspace import RunStore


def run_args(output, *extra: str) -> list[str]:
    return ["run", "--output", str(output), "--max-iterations", "2",
            "--patience", "50", "--seed", "11", *extra]


# -- run -------------------------------------------------------------


def test_run_print_config_only(tmp_path, capsys):
    out = tmp_path / "never_created"
    code = main(["run", "--output", str(out), "--print-config", "--seed", "7",
                 "--population", "2"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["master_seed"] == 7
    assert printed["population_size"] == 2
    assert printed["base_probs"]["eda"] == 0.5
    assert not out.exists()


def test_run_completes_and_reports(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    stdout = capsys.readouterr().out
    assert "stopped after iteration 2" in stdout
    assert "best score" in stdout
    assert (out / "events.jsonl").exists()
    assert (out / "checkpoint.json").exists()
    report = json.loads((out / "report" / "report.json").read_text())
    assert len(report["best_score_progression"]) == 2


def test_run_twice_same_seed_is_bitwise_identical(tmp_path):
    assert main(run_args(tmp_path / "a")) == 0
    assert main(run_args(tmp_path / "b")) == 0
    assert (tmp_path / "a/events.jsonl").read_bytes() == (
        tmp_path / "b/events.jsonl"
    ).read_bytes()


def test_run_invalid_config_exits_1(tmp_path, capsys):
    code = main(["run", "--output", str(tmp_path / "x"), "--population", "0"])
    assert code == 1
    assert "population_size" in capsys.readouterr().err


def test_run_external_without_data_exits_1(tmp_path, capsys):
    code = main(["run", "--output", str(tmp_path / "x"),
                 "--external-command", "train.sh"])
    assert code == 1
    assert "data_path" in capsys.readouterr().err


def test_run_into_existing_output_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    capsys.readouterr()
    assert main(run_args(out)) == 2
    assert "error" in capsys.readouterr().err


#: Agent for the run_name test: one usable result and three names the
#: archive cannot store as <run_name>.json.
UNSAFE_RUN_NAMES_AGENT = """
import json, os
names = ["good", "../../../../escaped", "sub/dir", "x" * 300]
for i, name in enumerate(names):
    d = os.path.join("Experiments", "main_training", "run_%d" % i)
    os.makedirs(d)
    with open(os.path.join(d, "results.json"), "w") as fh:
        json.dump({"run_name": name, "score": 0.5 + i / 10}, fh)
"""


def test_run_skips_run_names_unusable_as_file_names(tmp_path, capsys):
    agent = tmp_path / "agent.py"
    agent.write_text(UNSAFE_RUN_NAMES_AGENT)
    data = tmp_path / "data"
    data.mkdir()
    out = tmp_path / "deep" / "run"
    before = sorted(tmp_path.rglob("*"))
    code = main(["run", "--output", str(out), "--population", "2", "--max-iterations", "1",
                 "--data", str(data), "--external-command", sys.executable, str(agent)])
    assert code == 0
    assert "best score 0.5 " in capsys.readouterr().out
    outside = [p for p in tmp_path.rglob("*") if out not in p.parents and p != out]
    assert sorted(outside) == sorted(before + [tmp_path / "deep"])
    manifest = json.loads((out / "archives" / "it0001_slot00" / "manifest.json").read_text())
    assert manifest["experiments"] == ["good"]
    assert set(manifest["diagnostics"]) == {"parse:run_1", "parse:run_2", "parse:run_3"}


def test_run_config_file_with_flag_override(tmp_path, capsys):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"master_seed": 5, "population_size": 4}))
    code = main(["run", "--output", str(tmp_path / "x"), "--config",
                 str(config_file), "--seed", "8", "--print-config"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["master_seed"] == 8  # flag beats file
    assert printed["population_size"] == 4


def test_run_malformed_sim_params_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(run_args(tmp_path / "x", "--sim-params", str(bad))) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("configuration error: sim_params:") for line in err.splitlines())
    assert not (tmp_path / "x").exists()


#: Well-formed JSON that SimModelParams.from_dict must reject, with the
#: field its error names.
BAD_SIM_PARAMS = [
    ({"base_mean": "abc"}, "base_mean"),
    ({"gain_mean": {"bogus": 0.1}}, "gain_mean.bogus"),
    ({"gain_sd": {"merge": None}}, "gain_sd.merge"),
    ({"failure_prob": 0.1}, "failure_prob"),
    ({"higher_is_better": "false"}, "higher_is_better"),
    ({"higher_is_better": 0}, "higher_is_better"),
    ({"metric": 5}, "metric"),
    ({"base_sd": "0.1"}, "base_sd"),
    ({"gain_mean": {"merge": True}}, "gain_mean.merge"),
    ({"base_mean": float("nan")}, "base_mean"),
    ({"gain_sd": {"eda": float("inf")}}, "gain_sd.eda"),
]


@pytest.mark.parametrize("params,field", BAD_SIM_PARAMS)
def test_run_bad_sim_param_values_exit_1(tmp_path, capsys, params, field):
    bad = tmp_path / "p.json"
    bad.write_text(json.dumps(params))
    assert main(run_args(tmp_path / "o", "--sim-params", str(bad))) == 1
    err = capsys.readouterr().err
    assert any(line.startswith(f"configuration error: {field}:") for line in err.splitlines())
    assert not (tmp_path / "o").exists()


#: Config values of the wrong type, with the field each error names.
BAD_CONFIG_VALUES = [
    ({"excluded_globs": "x*"}, "excluded_globs"),
    ({"floors": 3}, "floors"),
    ({"base_probs": {"eda": "0.5"}}, "base_probs.eda"),
    ({"population_size": "abc"}, "population_size"),
    ({"workers": 2.5}, "workers"),
    ({"num_training_runs": True}, "num_training_runs"),
    ({"higher_is_better": "no"}, "higher_is_better"),
    ({"external_command": "train.sh"}, "external_command"),
    ({"floors": {"eda": float("nan")}}, "floors.eda"),
    ({"base_probs": {"initial": 0, "continue": 0.5, "ablation": 0, "merge": 0, "jumpstart": 0,
                     "eda": 0.5},
      "ceilings": {"continue": 0.3, "eda": 0.3}}, "ceilings"),
]


@pytest.mark.parametrize("values,field", BAD_CONFIG_VALUES)
def test_config_value_of_wrong_type_exits_1_or_3(tmp_path, capsys, values, field):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(values))
    assert main(run_args(tmp_path / "x", "--config", str(config_file))) == 1
    err = capsys.readouterr().err
    assert any(line.startswith(f"configuration error: {field}:") for line in err.splitlines())
    assert not (tmp_path / "x").exists()

    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    stored = json.loads((out / "run_config.json").read_text())
    (out / "run_config.json").write_text(json.dumps({**stored, **values}))
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"corrupt state: run_config.json: {field}:")


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False)],
)
def test_higher_is_better_flag_and_env_accept_booleans(tmp_path, capsys, monkeypatch,
                                                       value, expected):
    assert main(["run", "--output", str(tmp_path / "a"), "--print-config",
                 "--higher-is-better", value]) == 0
    assert json.loads(capsys.readouterr().out)["higher_is_better"] is expected
    monkeypatch.setenv("GA_HIGHER_IS_BETTER", value)
    assert main(["run", "--output", str(tmp_path / "b"), "--print-config"]) == 0
    assert json.loads(capsys.readouterr().out)["higher_is_better"] is expected


@pytest.mark.parametrize("value", ["treu", "ture", "", "on", "2"])
def test_misspelled_higher_is_better_exits_1(tmp_path, capsys, monkeypatch, value):
    assert main(["run", "--output", str(tmp_path / "a"), "--print-config",
                 "--higher-is-better", value]) == 1
    assert capsys.readouterr().err.startswith("configuration error: higher_is_better:")
    monkeypatch.setenv("GA_HIGHER_IS_BETTER", value)
    assert main(["run", "--output", str(tmp_path / "b"), "--print-config"]) == 1
    assert capsys.readouterr().err.startswith("configuration error: higher_is_better:")


#: One text value per settings-table field, with the value it parses to;
#: none is the field's default.
SETTING_SAMPLES = {
    "population_size": ("4", 4),
    "workers": ("2", 2),
    "learning_rate": ("0.25", 0.25),
    "clip_cap": ("3.5", 3.5),
    "max_iterations": ("7", 7),
    "patience": ("9", 9),
    "improvement_threshold": ("0.01", 0.01),
    "continue_parents_max": ("2", 2),
    "num_training_runs": ("3", 3),
    "higher_is_better": ("false", False),
    "master_seed": ("42", 42),
    "executor": ("external", "external"),
    "data_path": ("/task/data", "/task/data"),
    "data_provisioning": ("copy", "copy"),
    "external_timeout_seconds": ("90.5", 90.5),
}

#: What an external executor needs, so the executor row validates.
SETTING_BASE = {"external_command": ["train.sh"], "data_path": "/base/data"}


def print_config(tmp_path, monkeypatch, capsys, file_values=None, env=None, flags=()):
    """The printed config for one layering of file, environment and flags,
    or the exit code and stderr when it fails."""
    config_file = tmp_path / "layer.json"
    config_file.write_text(json.dumps({**SETTING_BASE, **(file_values or {})}))
    for var, text in (env or {}).items():
        monkeypatch.setenv(var, text)
    code = main(["run", "--output", str(tmp_path / "never"), "--print-config",
                 "--config", str(config_file), *flags])
    for var in env or {}:
        monkeypatch.delenv(var)
    captured = capsys.readouterr()
    assert not (tmp_path / "never").exists()
    return json.loads(captured.out) if code == 0 else (code, captured.err)


def setting_sources(key: str, text: str, value) -> dict:
    """print_config arguments that set one field from each of its sources."""
    var, flag = SETTINGS[key]
    sources = {"file": {"file_values": {key: value}}, "env": {"env": {var: text}}}
    if flag:
        sources["flag"] = {"flags": (flag, text)}
    return sources


def test_setting_samples_cover_the_table():
    assert set(SETTING_SAMPLES) == set(SETTINGS)


@pytest.mark.parametrize("key", sorted(SETTINGS))
def test_flag_variable_and_file_give_the_same_value(tmp_path, monkeypatch, capsys, key):
    text, expected = SETTING_SAMPLES[key]
    printed = {
        source: print_config(tmp_path, monkeypatch, capsys, **kwargs)
        for source, kwargs in setting_sources(key, text, expected).items()
    }
    for config in printed.values():
        assert config[key] == expected and type(config[key]) is type(expected)
        assert config == printed["file"]


#: Malformed text for a setting, and the field its error names.
BAD_SETTING_VALUES = [
    ("population_size", "abc"),
    ("executor", "bogus"),
    ("data_provisioning", "teleport"),
    ("master_seed", "1.5"),
    ("improvement_threshold", "tiny"),
    ("higher_is_better", "treu"),
    ("learning_rate", "nan"),
    ("external_timeout_seconds", "-5"),
    ("improvement_threshold", "-0.01"),
]


@pytest.mark.parametrize("key, text", BAD_SETTING_VALUES)
def test_bad_setting_from_any_source_exits_1(tmp_path, monkeypatch, capsys, key, text):
    for source, kwargs in setting_sources(key, text, text).items():
        code, err = print_config(tmp_path, monkeypatch, capsys, **kwargs)
        assert code == 1, source
        assert err.startswith(f"configuration error: {key}:"), (source, err)


@pytest.mark.parametrize(
    "flags", [("--population", "abc"), ("--executor", "bogus"), ("--mount-data", "teleport")]
)
def test_bad_run_flag_exits_1_without_creating_the_root(tmp_path, capsys, flags):
    assert main(run_args(tmp_path / "o", *flags)) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "o").exists()


# -- one writer per output root ----------------------------------------


def root_bytes(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@contextlib.contextmanager
def holding_lock(root):
    with open(root / LOCK_FILENAME, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield


def test_resume_of_locked_root_exits_2_and_changes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    config = load_config(env={}, overrides={"master_seed": 11, "max_iterations": 3})
    EvolutionEngine.start(config, build_executor(config), out).step()
    with holding_lock(out):
        before = root_bytes(out)
        assert main(["resume", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: output root in use")
        assert root_bytes(out) == before
    assert main(["resume", "--output", str(out)]) == 0


def test_run_into_locked_root_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    with holding_lock(out):
        assert main(run_args(out)) == 2
        assert capsys.readouterr().err.startswith("error: output root in use")
    assert [p.name for p in out.iterdir()] == [LOCK_FILENAME]


def test_resume_of_missing_root_creates_nothing(tmp_path):
    assert main(["resume", "--output", str(tmp_path / "nowhere")]) == 3
    assert list(tmp_path.iterdir()) == []


#: Agent for the concurrent-resume test: every slot of iteration 2 waits
#: (at most 20 s) until the gate file exists; scores follow the slot.
GATED_AGENT = """
import json, os, sys, time
gate = sys.argv[1]
manifest = json.load(open("seed_manifest.json"))
iteration = manifest["context_params"]["iteration"]
if iteration == 2:
    open(gate + ".waiting", "a").close()
    deadline = time.monotonic() + 20
    while not os.path.exists(gate) and time.monotonic() < deadline:
        time.sleep(0.02)
d = os.path.join("Experiments", "main_training", "run")
os.makedirs(d)
with open(os.path.join(d, "results.json"), "w") as fh:
    json.dump({"run_name": "r", "score": iteration + manifest["slot"] / 10}, fh)
"""


def test_resume_beside_a_live_run_leaves_its_log_intact(tmp_path, capsys):
    agent = tmp_path / "agent.py"
    agent.write_text(GATED_AGENT)
    gate = tmp_path / "gate"
    (tmp_path / "data").mkdir()

    def args(out):
        return ["run", "--output", str(out), "--population", "2", "--max-iterations", "4",
                "--patience", "50", "--seed", "5", "--data", str(tmp_path / "data"),
                "--external-command", sys.executable, str(agent), str(gate)]

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    live = subprocess.Popen([sys.executable, "-m", "seedevo.cli", *args(tmp_path / "live")],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not Path(f"{gate}.waiting").exists():
            assert live.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        assert main(["resume", "--output", str(tmp_path / "live")]) == 2
        assert capsys.readouterr().err.startswith("error: output root in use")
    finally:
        gate.touch()
        _, err = live.communicate(timeout=120)
    assert live.returncode == 0, err
    assert main(args(tmp_path / "alone")) == 0
    for name in ("events.jsonl", "checkpoint.json", "report/report.json"):
        assert (tmp_path / "live" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_run_with_inactive_initial_and_a_merge_that_finds_no_other_elite(tmp_path, monkeypatch,
                                                                          capsys):
    # slot 1's initial child fails, so slot 0's merge finds no other
    # elite and runs as initial against its own: a gain for an operator
    # the allocator does not track
    for op, p in (("INITIAL", "0"), ("MERGE", "0.3"), ("EDA", "0.4")):
        monkeypatch.setenv(f"GA_PROB_{op}", p)
    params = tmp_path / "fp.json"
    params.write_text(json.dumps({"failure_prob": {"initial": 0.5}}))
    out = tmp_path / "o"
    assert main(["run", "--output", str(out), "--population", "2", "--seed", "0",
                 "--max-iterations", "8", "--sim-params", str(params)]) == 0
    events, _ = read_events(out / "events.jsonl")
    assert any(e["operator"] == "initial" and e["delta"] is not None
               for e in events if e["type"] == "tournament")


# -- resume ----------------------------------------------------------


def test_resume_completed_run_is_a_no_op(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 0
    assert "already complete" in capsys.readouterr().out


def test_resume_without_checkpoint_exits_3(tmp_path, capsys):
    store = RunStore.create(tmp_path / "run")
    store.write_config({"population_size": 5})
    code = main(["resume", "--output", str(tmp_path / "run")])
    assert code == 3
    assert "corrupt state" in capsys.readouterr().err


def test_resume_corrupt_checkpoint_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    (out / "checkpoint.json").write_text("{mangled")
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    assert "corrupt state" in capsys.readouterr().err


def test_resume_invalid_run_config_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    config = json.loads((out / "run_config.json").read_text())
    config["workers"] = 0
    (out / "run_config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("corrupt state: run_config.json: workers")


def test_resume_root_with_retired_config_keys_is_identical(tmp_path, capsys):
    # run_config.json files written before continue_parents_min and
    # max_bound_iterations were retired hold both keys
    assert main(run_args(tmp_path / "full", "--max-iterations", "3")) == 0
    config = load_config(overrides={"master_seed": 11, "max_iterations": 3, "patience": 50})
    EvolutionEngine.start(config, build_executor(config), tmp_path / "old").step()
    path = tmp_path / "old" / "run_config.json"
    stored = json.loads(path.read_text())
    path.write_text(json.dumps({**stored, "continue_parents_min": 1, "max_bound_iterations": 10}))
    assert main(["resume", "--output", str(tmp_path / "old")]) == 0
    for name in ("events.jsonl", "report/report.json"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_resume_missing_run_dir_exits_3(tmp_path):
    assert main(["resume", "--output", str(tmp_path / "nowhere")]) == 3


def test_resume_short_event_log_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--output", str(out), "--seed", "3", "--max-iterations", "3",
                 "--population", "2", "--workers", "1"]) == 0
    events = out / "events.jsonl"
    events.write_bytes(events.read_bytes()[: events.stat().st_size // 2])
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert any(line.startswith("corrupt state:") for line in err.splitlines())


def test_resume_relative_output_from_another_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    assert main(run_args("rel")) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["resume", "--output", "sub/rel"]) == 0
    assert "already complete" in capsys.readouterr().out


def test_resume_relative_data_from_another_directory(tmp_path, monkeypatch, capsys):
    (tmp_path / "task" / "d").mkdir(parents=True)
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "task")
    assert main(run_args(tmp_path / "full", "--data", "./d")) == 0
    config = load_config(overrides={"master_seed": 11, "max_iterations": 2, "patience": 50,
                                    "data_path": "./d"})
    EvolutionEngine.start(config, build_executor(config), tmp_path / "cut").step()
    stored = json.loads((tmp_path / "cut" / "run_config.json").read_text())["data_path"]
    assert os.path.isabs(stored) and os.path.samefile(stored, tmp_path / "task" / "d")
    monkeypatch.chdir(tmp_path / "elsewhere")
    capsys.readouterr()
    assert main(["resume", "--output", str(tmp_path / "cut")]) == 0
    assert "stopped after iteration 2" in capsys.readouterr().out
    for name in ("events.jsonl", "report/report.json"):
        assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_run_with_missing_data_exits_1_and_writes_no_run(tmp_path, capsys):
    out, data = tmp_path / "run", tmp_path / "data"
    assert main(run_args(out, "--data", str(data))) == 1
    assert capsys.readouterr().err.startswith("configuration error: data_path: ")
    assert [p.name for p in out.iterdir()] == [LOCK_FILENAME]
    data.mkdir()
    assert main(run_args(out, "--data", str(data))) == 0


def crashed_root(tmp_path, **overrides):
    """tmp_path/cut: a run_args run cut inside iteration 2, holding the
    leftovers a resume would prune and truncate."""
    out = tmp_path / "cut"
    config = load_config(overrides={"master_seed": 11, "max_iterations": 2, "patience": 50,
                                    **overrides})
    EvolutionEngine.start(config, build_executor(config), out).step()
    (out / "workspaces" / "iter_0002" / "slot_00").mkdir(parents=True)
    with open(out / "events.jsonl", "ab") as fh:
        fh.write(b'{"type": "partial"')
    return out


def edit_json(path, **fields) -> None:
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def test_resume_with_missing_data_exits_1_and_changes_nothing(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    assert main(run_args(tmp_path / "full", "--data", str(data))) == 0
    out = crashed_root(tmp_path, data_path=str(data))
    before = root_bytes(out)
    data.rename(tmp_path / "moved")
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: data_path: ")
    assert {k: v for k, v in root_bytes(out).items() if k != LOCK_FILENAME} == before
    (tmp_path / "moved").rename(data)
    assert main(["resume", "--output", str(out)]) == 0
    for name in ("events.jsonl", "report/report.json"):
        assert (out / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_resume_with_relative_missing_data_names_the_working_directory(tmp_path, monkeypatch,
                                                                       capsys):
    # roots written before data_path was made absolute store it as given
    out = crashed_root(tmp_path)
    edit_json(out / "run_config.json", data_path="./data")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: data_path: data source missing: ./data (relative to {os.getcwd()})\n"
    )


def test_resume_with_bad_sim_params_exits_3_and_changes_nothing(tmp_path, capsys):
    out = crashed_root(tmp_path)
    edit_json(out / "run_config.json", sim_params={"base_mean": "abc"})
    before = root_bytes(out)
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("corrupt state: run_config.json: base_mean: ")
    assert {k: v for k, v in root_bytes(out).items() if k != LOCK_FILENAME} == before


def test_resume_with_mistyped_manifest_score_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    elite = next(e["child_id"] for e in read_events(out / "events.jsonl")[0] if e.get("child_won"))
    edit_json(out / "archives" / elite / "manifest.json", score="0.57")
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("corrupt state: archive manifest") and "field score: '0.57'" in err


def rewrite_log(edit):
    """A tampering that applies edit to the root's events, a str standing
    for a raw line, and commits the result up to its new end.  Events are
    written as the engine writes them, so only the edited lines differ."""

    def tamper(out):
        path = out / "events.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        edit(events)
        data = "".join(e if isinstance(e, str) else
                       json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events)
        path.write_text(data)
        edit_json(out / "checkpoint.json", event_log_offset=len(data.encode()))

    return tamper


def set_field(index, **fields):
    return rewrite_log(lambda events: events[index].update(fields))


def commit_at_line_end(count, cut=0):
    """A tampering that moves the commit point to the end of the log's
    first count lines, less cut bytes."""

    def tamper(out):
        lines = (out / "events.jsonl").read_bytes().splitlines(keepends=True)
        edit_json(out / "checkpoint.json",
                  event_log_offset=sum(map(len, lines[:count])) - cut)

    return tamper


def replace_line(index, line):
    def edit(events):
        events[index] = line + "\n"

    return rewrite_log(edit)


def swap(i, j):
    def edit(events):
        events[i], events[j] = events[j], events[i]

    return rewrite_log(edit)


def differs(line, iteration):
    return f"event log line {line} is not what iteration {iteration} settles to"


#: Tamperings of a finished 2-slot, 3-iteration root (events 0-3 are
#: iteration 1, 4-7 iteration 2, 8-11 iteration 3) and what the error
#: names.  Iteration 3 archives both slots; slot 0's child wins, and
#: slot 1's loses.
TAMPERED_ROOTS = {
    "line-not-json": (replace_line(0, "{mangled"), differs(1, 1)),
    "line-not-object": (replace_line(4, "[1, 2]"), differs(5, 2)),
    "hedge-before-tournament": (swap(1, 2), differs(2, 1)),
    "iteration-skipped": (
        rewrite_log(lambda events: [e.update(iteration=3) for e in events[4:8]]), differs(5, 2)),
    "population-size": (
        lambda out: edit_json(out / "run_config.json", population_size=3),
        "inside iteration 3 (population_size is 3)"),
    "archive-in-wrong-slot": (
        lambda out: edit_json(out / "archives" / "it0003_slot00" / "manifest.json", slot=1),
        "names id 'it0003_slot00', iteration 3, slot 1"),
    "unknown-operator": (set_field(4, operator="mutate"), differs(5, 2)),
    "child-won-int": (set_field(4, child_won=1), differs(5, 2)),
    "child-id-int": (set_field(4, child_id=7), differs(5, 2)),
    "child-won-without-id": (set_field(4, child_won=True, child_id=None), differs(5, 2)),
    "delta-string": (set_field(4, delta="x"), differs(5, 2)),
    "best-so-far-string": (set_field(11, best_so_far="0.5"), differs(12, 3)),
    "stagnation-negative": (set_field(7, stagnation=-1), differs(8, 2)),
    "stop-string": (set_field(11, stop="true"), differs(12, 3)),
    "stop-missing": (rewrite_log(lambda events: events[11].pop("stop")), differs(12, 3)),
    "ends-inside-an-iteration": (
        commit_at_line_end(6), "committed events end inside iteration 2"),
    "ends-at-nothing": (commit_at_line_end(0), "committed events end inside iteration 1"),
    "ends-inside-a-line": (
        commit_at_line_end(8, cut=5), "event log line 8 is not an event ending by offset"),
    "iteration-best-edited": (set_field(11, iteration_best=0.5), differs(12, 3)),
    "child-score-edited": (set_field(4, child_score=0.5), differs(5, 2)),
    "non-elite-manifest-score": (
        lambda out: edit_json(out / "archives" / "it0003_slot01" / "manifest.json", score=0.5),
        differs(10, 3)),
}


@pytest.mark.parametrize("name", TAMPERED_ROOTS)
def test_resume_of_tampered_root_exits_3_and_changes_nothing(tmp_path, capsys, name):
    out = tmp_path / "run"
    assert main(["run", "--output", str(out), "--seed", "11", "--population", "2",
                 "--max-iterations", "3", "--patience", "50"]) == 0
    tamper, message = TAMPERED_ROOTS[name]
    tamper(out)
    before = root_bytes(out)
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("corrupt state:") and message in err, err
    assert root_bytes(out) == before


@pytest.mark.parametrize("learning_rate", [0.3, 1e308])
def test_resume_under_a_changed_learning_rate_exits_3_and_changes_nothing(tmp_path, capsys,
                                                                         learning_rate):
    # run_config.json must be the file the log was written under; this
    # root's allocator first updates in iteration 2 (the table's root
    # updates it in none of its iterations), and at 1e308 that update
    # overflows to NaN probabilities, which no committed log holds
    out = tmp_path / "run"
    assert main(["run", "--output", str(out), "--seed", "11", "--population", "3",
                 "--max-iterations", "2", "--patience", "50"]) == 0
    edit_json(out / "run_config.json", learning_rate=learning_rate)
    before = root_bytes(out)
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"corrupt state: {differs(9, 2)}\n"
    assert root_bytes(out) == before


def test_run_whose_allocator_overflows_exits_2_and_keeps_the_last_checkpoint(
    tmp_path, monkeypatch, capsys
):
    # finite, but so large that the log-weights overflow and the
    # sampling probabilities become NaN, which the event log refuses
    monkeypatch.setenv("GA_ETA", "1e308")
    out = tmp_path / "run"
    assert main(run_args(out)) == 2
    assert capsys.readouterr().err.startswith("error: event not valid JSON")
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert (out / "events.jsonl").stat().st_size == checkpoint["event_log_offset"]
    lines = (out / "events.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    assert (last["type"], last["iteration"]) == ("stopping", 1)
    for line in lines:
        json.loads(line, parse_constant=pytest.fail)


#: Agent for the output-storage tests: prints argv[1] bytes to stdout,
#: writes solution/main.py, and reports a result unless its slot is
#: listed after the byte count.
PRINTING_AGENT = """
import json, os, sys
manifest = json.load(open("seed_manifest.json"))
sys.stdout.write("o" * int(sys.argv[1]))
os.makedirs("solution", exist_ok=True)
with open(os.path.join("solution", "main.py"), "w") as fh:
    fh.write("slot %d" % manifest["slot"])
if str(manifest["slot"]) not in sys.argv[2:]:
    d = os.path.join("Experiments", "main_training", "run")
    os.makedirs(d)
    score = manifest["context_params"]["iteration"] + manifest["slot"] / 10
    with open(os.path.join(d, "results.json"), "w") as fh:
        json.dump({"run_name": "r", "score": score}, fh)
"""


def printing_run(tmp_path, out, stdout_bytes: int, *failing_slots: str, iterations: str = "2"):
    agent = tmp_path / "agent.py"
    agent.write_text(PRINTING_AGENT)
    (tmp_path / "data").mkdir(exist_ok=True)
    return main(run_args(out, "--population", "2", "--max-iterations", iterations,
                         "--data", str(tmp_path / "data"), "--external-command",
                         sys.executable, str(agent), str(stdout_bytes), *failing_slots))


def test_command_output_is_stored_once_per_archive_and_parent_copy(tmp_path, capsys):
    out = tmp_path / "run"
    assert printing_run(tmp_path, out, 200_000) == 0
    archives = sorted((out / "archives").iterdir())
    parent_copies = sorted(out.glob("workspaces/*/*/Previous Experiments/parent_*"))
    assert len(archives) == 4 and parent_copies
    logs = sorted(out.rglob("stdout.log"))
    expected = [a / "logs" / "stdout.log" for a in archives]
    expected += [p / "logs" / "stdout.log" for p in parent_copies]
    assert logs == sorted(expected)
    assert all(path.stat().st_size == 200_000 for path in logs)


def test_invalid_child_workspace_keeps_solution_and_logs(tmp_path, capsys):
    out = tmp_path / "run"
    assert printing_run(tmp_path, out, 10, "1", iterations="1") == 0
    verified, invalid = (out / "workspaces" / "iter_0001" / f"slot_0{i}" for i in (0, 1))
    assert not (verified / "solution").exists() and not (verified / "logs").exists()
    archive = out / "archives" / "it0001_slot00"
    assert (archive / "solution" / "main.py").read_text() == "slot 0"
    assert (archive / "logs" / "stdout.log").read_text() == "o" * 10
    assert (invalid / "solution" / "main.py").read_text() == "slot 1"
    assert (invalid / "logs" / "stdout.log").read_text() == "o" * 10
    assert not (out / "archives" / "it0001_slot01").exists()


# -- report ----------------------------------------------------------


def test_report_json_and_csv(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    capsys.readouterr()

    dest = tmp_path / "rj"
    assert main(["report", "--output", str(out), "--dest", str(dest)]) == 0
    assert str(dest / "report.json") in capsys.readouterr().out
    assert (dest / "report.json").exists()

    dest_csv = tmp_path / "rc"
    assert main(["report", "--output", str(out), "--format", "csv",
                 "--dest", str(dest_csv)]) == 0
    listed = capsys.readouterr().out
    for name in ("operator_stats.csv", "progression.csv", "lineage_edges.csv"):
        assert (dest_csv / name).exists()
        assert name in listed


def test_report_missing_run_exits_3(tmp_path, capsys):
    assert main(["report", "--output", str(tmp_path / "nope")]) == 3
    assert "corrupt state" in capsys.readouterr().err


# -- simulate --------------------------------------------------------


def test_simulate_prints_operator_table(tmp_path, capsys):
    code = main(["simulate", "--tournaments", "40", "--seed", "3",
                 "--output", str(tmp_path / "sims")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "elite tournaments" in stdout
    assert "initial" in stdout and "win_rate" in stdout
    assert (tmp_path / "sims" / "sim_000" / "events.jsonl").exists()


def test_simulate_is_deterministic(tmp_path, capsys):
    assert main(["simulate", "--tournaments", "30", "--seed", "4",
                 "--output", str(tmp_path / "a")]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--tournaments", "30", "--seed", "4",
                 "--output", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == first


def test_simulate_with_params_file(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"base_mean": 0.4, "failure_prob": {"initial": 0.0}}))
    code = main(["simulate", "--tournaments", "20", "--seed", "1",
                 "--params", str(params), "--output", str(tmp_path / "s")])
    assert code == 0
    assert "pooled win rate" in capsys.readouterr().out


def test_simulate_malformed_params_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "--tournaments", "20", "--params", str(bad),
                 "--output", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert any(line.startswith("configuration error: params:") for line in err.splitlines())


@pytest.mark.parametrize("params,field", BAD_SIM_PARAMS)
def test_simulate_bad_param_values_exit_1(tmp_path, capsys, params, field):
    bad = tmp_path / "p.json"
    bad.write_text(json.dumps(params))
    code = main(["simulate", "--tournaments", "5", "--params", str(bad),
                 "--output", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert any(line.startswith(f"configuration error: {field}:") for line in err.splitlines())


#: failure_prob maps for simulate and its exit code.  Where initial
#: children always fail no run can pool; at 0.9 seed 8's first run pools
#: nothing by chance and the second run pools.
SIMULATE_FAILURE_PROBS = {
    "every-operator-1": ({op: 1.0 for op in ("initial", "continue", "ablation", "merge",
                                             "jumpstart", "eda")}, 1),
    "initial-1": ({"initial": 1.0}, 1),
    "initial-0.9": ({"initial": 0.9}, 0),
}


@pytest.mark.parametrize("name", SIMULATE_FAILURE_PROBS)
def test_simulate_refuses_only_initial_children_that_always_fail(tmp_path, name):
    # in a child process, so a simulate that never stops fails on its timeout
    failure_prob, code = SIMULATE_FAILURE_PROBS[name]
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"failure_prob": failure_prob}))
    out = tmp_path / "s"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "seedevo.cli", "simulate", "--tournaments", "1",
                           "--seed", "8", "--params", str(params), "--output", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    if code:
        assert done.stderr == ("configuration error: failure_prob.initial: "
                               "must be < 1 for simulate, got 1.0\n")
        assert not out.exists()
    else:
        runs = [read_events(d / "events.jsonl")[0] for d in sorted(out.iterdir())]
        pooled = [sum(s.tournaments for s in compute_operator_stats(run)) for run in runs]
        assert pooled[0] == 0 and pooled[-1] > 0, pooled


@pytest.mark.parametrize("count", ["0", "-3"])
def test_simulate_with_fewer_than_one_tournament_exits_1(tmp_path, capsys, count):
    code = main(["simulate", "--tournaments", count, "--output", str(tmp_path / "s")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: tournaments: must be >= 1, got {count}\n"
    assert not (tmp_path / "s").exists()


# -- compress --------------------------------------------------------


def write_transcript(path, n_long: int = 12) -> None:
    rows = [{"role": "system", "text": "stay focused"}]
    for i in range(n_long):
        rows.append({"role": "human", "text": " ".join(f"w{i}_{j}" for j in range(120))})
        rows.append({"role": "ai", "text": f"short answer {i}"})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def test_compress_writes_rendered_and_sidecar(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    write_transcript(transcript)
    rendered = tmp_path / "context.jsonl"
    sidecar = tmp_path / "selection.json"
    code = main(["compress", str(transcript), "--rendered", str(rendered),
                 "--sidecar", str(sidecar), "--target-tokens", "800",
                 "--protected-groups", "3", "--summary-fraction", "0.2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "25 messages in 25 groups" in stdout
    raw = json.loads(sidecar.read_text())
    assert raw["total_tokens"] <= 800
    assert raw["over_budget"] is False
    statuses = [g["status"] for g in raw["groups"]]
    assert statuses[-3:] == ["original"] * 3
    assert "compressed" in statuses
    lines = [json.loads(l) for l in rendered.read_text().splitlines()]
    assert {l["status"] for l in lines} <= {"original", "compressed", "truncate"}
    assert len(lines) == sum(1 for s in statuses if s != "drop")


def test_compress_under_target_is_identity(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    write_transcript(transcript, n_long=1)
    rendered = tmp_path / "context.jsonl"
    code = main(["compress", str(transcript), "--rendered", str(rendered),
                 "--target-tokens", "5000"])
    assert code == 0
    lines = [json.loads(l) for l in rendered.read_text().splitlines()]
    assert all(l["status"] == "original" for l in lines)
    assert len(lines) == 3


def test_compress_rejects_bad_transcript(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text("{mangled\n")
    code = main(["compress", str(transcript), "--rendered", str(tmp_path / "r.jsonl")])
    assert code == 1
    assert "transcript" in capsys.readouterr().err


def compress_second_line_error(tmp_path, capsys, row) -> str:
    """Compress a transcript whose second line is row; it must exit 1
    with a transcript error, which is returned."""
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"role": "system", "text": "ok"}) + "\n" + json.dumps(row) + "\n")
    code = main(["compress", str(transcript), "--rendered", str(tmp_path / "r.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: transcript:")
    return err


@pytest.mark.parametrize(
    "row, field",
    [
        ({"role": "ai", "text": "x", "tool_call_args": "oops"}, "tool_call_args"),
        ({"role": "ai", "text": "x", "tool_call_args": ["k", "v"]}, "tool_call_args"),
        ({"role": "human", "text": 5}, "text"),
        ({"role": "human", "text": None}, "text"),
        ({"role": "human", "text": "hi there", "id": True}, "id"),
    ],
)
def test_compress_rejects_malformed_fields(tmp_path, capsys, row, field):
    err = compress_second_line_error(tmp_path, capsys, row)
    assert f"t.jsonl:2: {field} must be" in err


@pytest.mark.parametrize(
    "row, error",
    [
        ({"role": "robot", "text": "beep"}, "unknown role 'robot'"),
        ({"role": "human", "text": "again", "id": 0}, "duplicate message id 0"),
    ],
)
def test_compress_rejected_message_names_its_line(tmp_path, capsys, row, error):
    err = compress_second_line_error(tmp_path, capsys, row)
    assert f"t.jsonl:2: {error}" in err


def test_compress_rejects_bad_budget(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    write_transcript(transcript, n_long=1)
    code = main(["compress", str(transcript), "--rendered", str(tmp_path / "r.jsonl"),
                 "--target-tokens", "1000", "--trigger-tokens", "500"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


#: `seedevo compress` flags that must exit 1, with the field each error names.
BAD_COMPRESS_FLAGS = [
    (["--summary-fraction", "0"], "summary_fraction"),
    (["--protected-groups", "-3"], "budget"),
]


@pytest.mark.parametrize("flags, field", BAD_COMPRESS_FLAGS)
def test_compress_bad_flag_exits_1(tmp_path, capsys, flags, field):
    transcript = tmp_path / "t.jsonl"
    write_transcript(transcript, n_long=1)
    rendered = tmp_path / "r.jsonl"
    assert main(["compress", str(transcript), "--rendered", str(rendered), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"configuration error: {field}:")
    assert not rendered.exists()


def test_compress_missing_transcript_exits_1(tmp_path, capsys):
    code = main(["compress", str(tmp_path / "absent.jsonl"),
                 "--rendered", str(tmp_path / "r.jsonl")])
    assert code == 1


# -- parser ----------------------------------------------------------


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["fly"])
    assert exc.value.code == 2


def test_run_requires_output():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
