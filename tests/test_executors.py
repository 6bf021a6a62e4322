"""Executor tests: outcome invariants, the simulated score model, the
external command backend, and result-file parsing."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

from seedevo.config import RunConfig
from seedevo.engine import AgentSeed, MetricDirection
from seedevo.errors import ConfigurationError
from seedevo.executors import (
    ExperimentRecord,
    ExternalCommandExecutor,
    RunOutcome,
    SimModelParams,
    SimulatedExecutor,
    build_executor,
    parse_experiment_results,
)
from seedevo.operators import Operator as Op
from seedevo.workspace import ArchiveRef

HIGHER = MetricDirection(True)
LOWER = MetricDirection(False)

#: Stub body for external-command tests: writes the result files given
#: as a JSON argv payload, then exits with the requested status.
WRITE_RESULTS = """
import json, os, sys
payload = json.loads(sys.argv[1])
for i, rec in enumerate(payload.get("results", [])):
    d = os.path.join("Experiments", "main_training", "run_%02d" % (i + 1))
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "results.json"), "w") as fh:
        fh.write(rec if isinstance(rec, str) else json.dumps(rec))
if payload.get("stderr"):
    print(payload["stderr"], file=sys.stderr)
sys.exit(payload.get("exit", 0))
"""


def stub_command(results: list, exit_code: int = 0, stderr: str = "") -> list[str]:
    payload = json.dumps({"results": results, "exit": exit_code, "stderr": stderr})
    return [sys.executable, "-c", WRITE_RESULTS, payload]


def sim_seed(
    operator: Op = Op.INITIAL,
    slot: int = 0,
    iteration: int = 1,
    parent_score: float | None = None,
) -> AgentSeed:
    parents = ()
    if parent_score is not None:
        ref = ArchiveRef(
            id="p0", path=Path("/nonexistent"), score=parent_score,
            origin_operator=Op.INITIAL, origin_iteration=1, slot=slot,
        )
        parents = (ref,)
    return AgentSeed(
        operator, slot, parents,
        {"iteration": iteration, "num_training_runs": 5},
    )


def noiseless_params(**overrides) -> SimModelParams:
    base = dict(
        base_mean=0.75,
        base_sd=0.0,
        gain_sd={op: 0.0 for op in Op},
        failure_prob={op: 0.0 for op in Op},
        experiment_spread=0.0,
    )
    base.update(overrides)
    return SimModelParams(**base)


# -- outcome invariants ----------------------------------------------


def test_outcome_verified_requires_experiments_and_finite_score():
    record = ExperimentRecord(run_name="run_1", score=0.5)
    RunOutcome(score=0.5, experiments=(record,), verified=True)
    with pytest.raises(ValueError):
        RunOutcome(score=0.5, experiments=(), verified=True)
    with pytest.raises(ValueError):
        RunOutcome(score=None, experiments=(record,), verified=True)
    with pytest.raises(ValueError):
        RunOutcome(score=float("nan"), experiments=(record,), verified=True)


def test_outcome_failure_helper():
    out = RunOutcome.failure(timeout="killed after 5s")
    assert not out.verified
    assert out.score is None and out.experiments == ()
    assert out.diagnostics == {"timeout": "killed after 5s"}


def test_experiment_record_serialization():
    bare = ExperimentRecord(run_name="run_1", score=0.5)
    assert bare.to_dict() == {"run_name": "run_1", "score": 0.5, "metric": "score"}
    full = ExperimentRecord(run_name="run_2", score=0.6, metric="auc", notes="warm start")
    assert full.to_dict()["notes"] == "warm start"


# -- simulator parameters --------------------------------------------


def test_sim_params_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="typo_key"):
        SimModelParams.from_dict({"typo_key": 1})


def test_sim_params_rejects_bad_failure_prob():
    with pytest.raises(ConfigurationError):
        SimModelParams(failure_prob={Op.CONTINUE: 1.5})


def test_sim_params_round_trip():
    params = SimModelParams(base_mean=0.3, experiment_spread=0.01)
    again = SimModelParams.from_dict(params.to_dict())
    assert again == params


def test_sim_params_partial_override_keeps_other_operators():
    params = SimModelParams.from_dict({"gain_mean": {"merge": 0.2}})
    assert params.gain_mean[Op.MERGE] == 0.2
    assert params.gain_mean[Op.CONTINUE] == SimModelParams().gain_mean[Op.CONTINUE]


def test_sim_params_read_ints_as_floats():
    params = SimModelParams.from_dict({"base_mean": 1, "gain_sd": {"eda": 0}})
    assert params.base_mean == 1.0 and type(params.base_mean) is float
    assert type(params.gain_sd[Op.EDA]) is float
    assert params.to_dict()["base_mean"] == 1.0


# -- simulated executor ----------------------------------------------


def test_sim_noiseless_initial_hits_base_mean(tmp_path):
    executor = SimulatedExecutor(noiseless_params(), master_seed=3)
    out = executor.execute(sim_seed(), tmp_path)
    assert out.verified
    assert out.score == pytest.approx(0.75)
    assert len(out.experiments) == 5
    assert all(r.score == pytest.approx(0.75) for r in out.experiments)


def test_sim_noiseless_continue_adds_gain(tmp_path):
    executor = SimulatedExecutor(noiseless_params(), master_seed=3)
    out = executor.execute(
        sim_seed(Op.CONTINUE, parent_score=0.80), tmp_path / "a"
    )
    assert out.score == pytest.approx(0.81)


def test_sim_noiseless_lower_direction_subtracts_gain(tmp_path):
    params = noiseless_params(direction=LOWER)
    executor = SimulatedExecutor(params, master_seed=3)
    out = executor.execute(sim_seed(Op.CONTINUE, parent_score=0.80), tmp_path)
    assert out.score == pytest.approx(0.79)


def test_sim_records_improve_toward_headline(tmp_path):
    executor = SimulatedExecutor(SimModelParams(), master_seed=11)
    out = executor.execute(sim_seed(slot=2, iteration=3), tmp_path)
    scores = [r.score for r in out.experiments]
    assert len(scores) == 5
    assert scores == sorted(scores)
    assert scores[-1] == out.score
    assert out.experiments[-1].run_name == "run_5"


def test_sim_single_training_run(tmp_path):
    seed = AgentSeed(Op.INITIAL, 0, (), {"iteration": 1, "num_training_runs": 1})
    executor = SimulatedExecutor(SimModelParams(), master_seed=2)
    out = executor.execute(seed, tmp_path)
    assert len(out.experiments) == 1
    assert out.experiments[0].score == out.score


def test_sim_descending_records_when_lower_is_better(tmp_path):
    params = SimModelParams(direction=LOWER, base_mean=-0.5)
    executor = SimulatedExecutor(params, master_seed=11)
    out = executor.execute(sim_seed(slot=2, iteration=3), tmp_path)
    scores = [r.score for r in out.experiments]
    assert scores == sorted(scores, reverse=True)
    assert scores[-1] == out.score


def test_sim_determinism_and_schedule_independence(tmp_path):
    executor = SimulatedExecutor(SimModelParams(), master_seed=9)
    seeds = [sim_seed(slot=s, iteration=2, parent_score=None) for s in range(4)]
    forward = [executor.execute(s, tmp_path / f"f{s.slot}") for s in seeds]
    backward = [executor.execute(s, tmp_path / f"b{s.slot}") for s in reversed(seeds)]
    assert [o.score for o in forward] == [o.score for o in reversed(backward)]
    again = executor.execute(seeds[1], tmp_path / "again")
    assert again.score == forward[1].score
    assert [r.score for r in again.experiments] == [r.score for r in forward[1].experiments]


def test_sim_mirror_flips_every_score_bitwise(tmp_path):
    hi = SimulatedExecutor(SimModelParams(direction=HIGHER), master_seed=17)
    lo = SimulatedExecutor(
        SimModelParams(direction=LOWER, base_mean=SimModelParams().base_mean),
        master_seed=17,
    )
    for slot in range(5):
        a = hi.execute(sim_seed(slot=slot, iteration=1), tmp_path / f"hi{slot}")
        b = lo.execute(sim_seed(slot=slot, iteration=1), tmp_path / f"lo{slot}")
        assert b.score == -a.score
        assert [r.score for r in b.experiments] == [-r.score for r in a.experiments]
    a = hi.execute(sim_seed(Op.CONTINUE, 1, 2, parent_score=0.62), tmp_path / "hic")
    b = lo.execute(sim_seed(Op.CONTINUE, 1, 2, parent_score=-0.62), tmp_path / "loc")
    assert b.score == -a.score


def test_sim_certain_failure(tmp_path):
    params = SimModelParams(failure_prob={op: 1.0 for op in Op})
    executor = SimulatedExecutor(params, master_seed=5)
    out = executor.execute(sim_seed(), tmp_path)
    assert not out.verified
    assert out.score is None
    assert "failure" in out.diagnostics


def test_sim_failure_rate_tracks_probability(tmp_path):
    params = SimModelParams(failure_prob={op: 0.3 for op in Op})
    executor = SimulatedExecutor(params, master_seed=23)
    failures = 0
    for i in range(500):
        out = executor.execute(sim_seed(slot=i % 50, iteration=i // 50 + 1), tmp_path / str(i))
        failures += 0 if out.verified else 1
    assert 0.24 < failures / 500 < 0.36


def test_sim_writes_solution_notes(tmp_path):
    executor = SimulatedExecutor(noiseless_params(), master_seed=1)
    executor.execute(sim_seed(), tmp_path)
    assert "operator=initial" in (tmp_path / "solution/notes.txt").read_text()


# -- external command executor ---------------------------------------


def make_workspace(tmp_path: Path) -> Path:
    ws = tmp_path / "ws"
    ws.mkdir(parents=True)
    (ws / "seed_manifest.json").write_text("{}")
    return ws


def test_external_picks_best_by_direction(tmp_path):
    results = [
        {"run_name": "run_1", "score": 0.57},
        {"run_name": "run_2", "score": 0.58},
    ]
    out = ExternalCommandExecutor(stub_command(results), HIGHER).execute(
        sim_seed(), make_workspace(tmp_path)
    )
    assert out.verified and out.score == 0.58
    assert [r.run_name for r in out.experiments] == ["run_1", "run_2"]

    out = ExternalCommandExecutor(stub_command(results), LOWER).execute(
        sim_seed(), make_workspace(tmp_path / "lo")
    )
    assert out.verified and out.score == 0.57


def test_external_no_results_is_unverified(tmp_path):
    out = ExternalCommandExecutor(stub_command([]), HIGHER).execute(
        sim_seed(), make_workspace(tmp_path)
    )
    assert not out.verified and out.score is None


def test_external_nonzero_exit_still_verifies_results(tmp_path):
    results = [{"run_name": "run_1", "score": 0.4}]
    command = stub_command(results, exit_code=3, stderr="late crash")
    out = ExternalCommandExecutor(command, HIGHER).execute(
        sim_seed(), make_workspace(tmp_path)
    )
    assert out.verified and out.score == 0.4
    assert out.diagnostics["exit_code"] == "3"
    assert "late crash" in out.diagnostics["stderr_tail"]


def test_external_malformed_result_skipped_with_diagnostic(tmp_path):
    results = ["{broken", {"run_name": "run_2", "score": 0.5}]
    out = ExternalCommandExecutor(stub_command(results), HIGHER).execute(
        sim_seed(), make_workspace(tmp_path)
    )
    assert out.verified and out.score == 0.5
    assert len(out.experiments) == 1
    assert any("unreadable" in v for v in out.diagnostics.values())


def test_external_timeout_kills_promptly(tmp_path):
    command = [sys.executable, "-c", "import time; time.sleep(30)"]
    executor = ExternalCommandExecutor(command, HIGHER, timeout_seconds=0.2)
    start = time.monotonic()
    out = executor.execute(sim_seed(), make_workspace(tmp_path))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert not out.verified
    assert "timeout" in out.diagnostics


@pytest.mark.parametrize(
    "script, timeout",
    [
        # times out while a background job still sleeps
        ("(sleep 0.3; touch late) & sleep 30", 0.2),
        # exits at once, leaving a detached background job
        ("(sleep 0.3; touch late) >/dev/null 2>&1 &", 60.0),
    ],
    ids=["timeout", "normal-exit"],
)
def test_external_command_leaves_no_process_behind(tmp_path, script, timeout):
    ws = make_workspace(tmp_path)
    executor = ExternalCommandExecutor(["sh", "-c", script], HIGHER, timeout_seconds=timeout)
    start = time.monotonic()
    executor.execute(sim_seed(), ws)
    assert time.monotonic() - start < 5.0
    time.sleep(1.0)  # well past the background job's own sleep
    assert not (ws / "late").exists()


def test_external_background_job_holding_output_does_not_stall(tmp_path):
    # the background job inherits the command's stdout and stderr; the
    # slot ends when the command exits, not when the job lets go of them
    script = (
        "mkdir -p Experiments/main_training/run_1 && "
        "echo '{\"run_name\": \"run_1\", \"score\": 0.7}' "
        "> Experiments/main_training/run_1/results.json; (sleep 5) & exit 0"
    )
    executor = ExternalCommandExecutor(["sh", "-c", script], HIGHER, timeout_seconds=2)
    start = time.monotonic()
    out = executor.execute(sim_seed(), make_workspace(tmp_path))
    assert time.monotonic() - start < 1.0
    assert "timeout" not in out.diagnostics
    assert out.verified and out.score == 0.7


def test_external_output_goes_to_workspace_logs(tmp_path):
    ws = make_workspace(tmp_path)
    script = "echo to-out; echo to-err >&2; exit 4"
    out = ExternalCommandExecutor(["sh", "-c", script], HIGHER).execute(sim_seed(), ws)
    assert (ws / "logs" / "stdout.log").read_text() == "to-out\n"
    assert (ws / "logs" / "stderr.log").read_text() == "to-err\n"
    assert out.diagnostics["exit_code"] == "4"
    assert out.diagnostics["stderr_tail"] == "to-err\n"


def test_external_stderr_tail_is_the_last_500_characters(tmp_path):
    # multi-byte characters, so reading from the end of the file may cut one
    text = "é" * 300 + "€" * 300 + "𝄞" * 400
    command = stub_command([], exit_code=1, stderr=text)
    out = ExternalCommandExecutor(command, HIGHER).execute(sim_seed(), make_workspace(tmp_path))
    assert out.diagnostics["stderr_tail"] == (text + "\n")[-500:]


def test_external_spawn_failure(tmp_path):
    executor = ExternalCommandExecutor(["/nonexistent/binary"], HIGHER)
    out = executor.execute(sim_seed(), make_workspace(tmp_path))
    assert not out.verified
    assert "spawn" in out.diagnostics


def test_external_placeholder_substitution(tmp_path):
    ws = make_workspace(tmp_path)
    command = [
        sys.executable, "-c",
        "import pathlib, sys; pathlib.Path(sys.argv[1]).write_text(sys.argv[2])",
        "{workspace}/echo.txt",
        "{seed_manifest}",
    ]
    ExternalCommandExecutor(command, HIGHER).execute(sim_seed(), ws)
    assert (ws / "echo.txt").read_text() == str(ws / "seed_manifest.json")


def test_external_literal_braces_pass_through(tmp_path):
    """Only the documented placeholders are substituted; other brace
    text (JSON payloads, unknown names) reaches the command verbatim."""
    ws = make_workspace(tmp_path)
    command = [
        sys.executable, "-c",
        "import pathlib, sys; pathlib.Path('args.txt').write_text('\\n'.join(sys.argv[1:]))",
        '{"k": [1, 2]}',
        "{unknown_name}",
        "{workspace}",
    ]
    ExternalCommandExecutor(command, HIGHER).execute(sim_seed(), ws)
    lines = (ws / "args.txt").read_text().splitlines()
    assert lines == ['{"k": [1, 2]}', "{unknown_name}", str(ws)]


def test_external_exports_environment(tmp_path):
    ws = make_workspace(tmp_path)
    script = (
        "import os, pathlib; pathlib.Path('env.txt').write_text("
        "os.environ['SEEDEVO_SEED_MANIFEST'] + '\\n' + "
        "os.environ['SEEDEVO_WORKSPACE'])"
    )
    executor = ExternalCommandExecutor([sys.executable, "-c", script], HIGHER)
    executor.execute(sim_seed(), ws)
    lines = (ws / "env.txt").read_text().splitlines()
    assert lines == [str(ws / "seed_manifest.json"), str(ws)]


def test_external_empty_command_rejected():
    with pytest.raises(ConfigurationError):
        ExternalCommandExecutor([], HIGHER)


# -- result parsing --------------------------------------------------


def write_result(ws: Path, run_dir: str, payload) -> None:
    d = ws / "Experiments" / "main_training" / run_dir
    d.mkdir(parents=True, exist_ok=True)
    text = payload if isinstance(payload, str) else json.dumps(payload)
    (d / "results.json").write_text(text)


def test_parse_missing_root_is_empty(tmp_path):
    assert parse_experiment_results(tmp_path) == ((), {})


def test_parse_dir_without_results_file_is_skipped(tmp_path):
    (tmp_path / "Experiments" / "main_training" / "run_1").mkdir(parents=True)
    records, diags = parse_experiment_results(tmp_path)
    assert records == () and diags == {}


def test_parse_sorted_by_directory_name(tmp_path):
    write_result(tmp_path, "b_run", {"run_name": "b", "score": 0.2})
    write_result(tmp_path, "a_run", {"run_name": "a", "score": 0.1})
    records, _ = parse_experiment_results(tmp_path)
    assert [r.run_name for r in records] == ["a", "b"]


def test_parse_duplicate_run_name_keeps_first(tmp_path):
    write_result(tmp_path, "run_1", {"run_name": "same", "score": 0.1})
    write_result(tmp_path, "run_2", {"run_name": "same", "score": 0.2})
    records, diags = parse_experiment_results(tmp_path)
    assert len(records) == 1 and records[0].score == 0.1
    assert "parse:run_2" in diags


def test_parse_rejects_non_object(tmp_path):
    write_result(tmp_path, "run_1", "[1, 2, 3]")
    records, diags = parse_experiment_results(tmp_path)
    assert records == ()
    assert "not an object" in diags["parse:run_1"]


def test_parse_rejects_non_finite_and_bool_scores(tmp_path):
    write_result(tmp_path, "run_1", '{"run_name": "a", "score": NaN}')
    write_result(tmp_path, "run_2", {"run_name": "b", "score": True})
    write_result(tmp_path, "run_3", {"run_name": "c"})
    records, diags = parse_experiment_results(tmp_path)
    assert records == ()
    assert set(diags) == {"parse:run_1", "parse:run_2", "parse:run_3"}


def test_parse_run_name_falls_back_to_directory(tmp_path):
    write_result(tmp_path, "run_7", {"score": 0.3})
    records, diags = parse_experiment_results(tmp_path)
    assert records[0].run_name == "run_7"
    assert diags == {}


def test_parse_rejects_non_string_run_name(tmp_path):
    write_result(tmp_path, "run_1", {"run_name": 12, "score": 0.3})
    records, diags = parse_experiment_results(tmp_path)
    assert records == ()
    assert "run_name" in diags["parse:run_1"]


@pytest.mark.parametrize("run_name", [
    "../../../../escaped",  # would leave the archive
    "sub/dir",  # names a missing subdirectory
    "a\u0000b",  # the OS refuses a NUL
    "\ud800",  # a lone surrogate has no UTF-8 form
    "x" * 300,  # longer than a file name may be
    "x" * 247,  # <name>.json.tmp is 256 bytes
    "\u00e9" * 124,  # 124 characters, but 248 bytes
], ids=["parent_dirs", "slash", "nul", "surrogate", "300_chars", "256_byte_tmp", "utf8_bytes"])
def test_parse_rejects_run_name_unusable_as_file_name(tmp_path, run_name):
    write_result(tmp_path, "run_1", {"run_name": run_name, "score": 0.3})
    write_result(tmp_path, "run_2", {"run_name": "ok", "score": 0.4})
    records, diags = parse_experiment_results(tmp_path)
    assert [r.run_name for r in records] == ["ok"]
    assert "not usable as a file name" in diags["parse:run_1"]


def test_parse_accepts_longest_file_name(tmp_path):
    # <name>.json.tmp at exactly 255 bytes
    write_result(tmp_path, "run_1", {"run_name": "x" * 246, "score": 0.3})
    write_result(tmp_path, "run_2", {"run_name": "..", "score": 0.4})  # the file "...json"
    records, diags = parse_experiment_results(tmp_path)
    assert [r.run_name for r in records] == ["x" * 246, ".."]
    assert diags == {}


def test_parse_rejects_long_directory_name_fallback(tmp_path):
    write_result(tmp_path, "d" * 250, {"score": 0.3})
    records, diags = parse_experiment_results(tmp_path)
    assert records == ()
    assert "not usable as a file name" in diags["parse:" + "d" * 250]


def test_parse_optional_fields(tmp_path):
    write_result(tmp_path, "run_1", {"score": 1, "metric": "rmse", "notes": ["x"]})
    records, _ = parse_experiment_results(tmp_path)
    rec = records[0]
    assert rec.score == 1.0 and isinstance(rec.score, float)
    assert rec.metric == "rmse"
    assert rec.notes is None  # non-string notes are dropped


# -- factory ---------------------------------------------------------


def test_build_executor_simulated_default():
    executor = build_executor(RunConfig(master_seed=42))
    assert isinstance(executor, SimulatedExecutor)
    assert executor.master_seed == 42
    assert executor.params.direction == HIGHER


def test_build_executor_sim_direction_mismatch():
    config = RunConfig(higher_is_better=False, sim_params={"higher_is_better": True})
    with pytest.raises(ConfigurationError, match="sim_params"):
        build_executor(config)


def test_build_executor_sim_inherits_direction():
    executor = build_executor(RunConfig(higher_is_better=False))
    assert executor.params.direction == LOWER


def test_build_executor_external():
    config = RunConfig(
        executor="external",
        external_command=["train.sh", "{workspace}"],
        data_path="/data",
        external_timeout_seconds=60.0,
        higher_is_better=False,
    )
    executor = build_executor(config)
    assert isinstance(executor, ExternalCommandExecutor)
    assert executor.command == ["train.sh", "{workspace}"]
    assert executor.timeout_seconds == 60.0
    assert executor.direction == LOWER


def test_build_executor_unknown_name():
    config = RunConfig(executor="quantum")
    with pytest.raises(ConfigurationError, match="executor"):
        build_executor(config)
