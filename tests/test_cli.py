"""CLI tests: exercise every subcommand through main() and check the
documented exit codes."""

from __future__ import annotations

import json
import sys

import pytest

from seedevo.cli import main
from seedevo.config import load_config
from seedevo.engine import EvolutionEngine
from seedevo.executors import build_executor
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
    ({"base_probs": {"eda": "0.5"}}, "base_probs"),
    ({"population_size": "abc"}, "population_size"),
    ({"workers": 2.5}, "workers"),
    ({"num_training_runs": True}, "num_training_runs"),
    ({"higher_is_better": "no"}, "higher_is_better"),
    ({"external_command": "train.sh"}, "external_command"),
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


def test_resume_pool_size_mismatch_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out, "--population", "2")) == 0
    config = json.loads((out / "run_config.json").read_text())
    config["population_size"] = 3
    (out / "run_config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("corrupt state:")
    assert "population_size is 3" in err


def test_resume_invalid_run_config_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out)) == 0
    config = json.loads((out / "run_config.json").read_text())
    config["workers"] = 0
    (out / "run_config.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("corrupt state: run_config.json: workers")


def test_resume_archive_in_wrong_slot_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(run_args(out, "--population", "2")) == 0
    path = out / "checkpoint.json"
    raw = json.loads(path.read_text())
    assert raw["pool"][1].endswith("_slot01")
    raw["pool"][0] = raw["pool"][1]
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["resume", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("corrupt state:")
    assert f"slot 0 holds {raw['pool'][1]}" in err


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
