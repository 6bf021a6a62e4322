"""Run execution backends.

An executor takes an agent seed plus a prepared workspace and returns a
RunOutcome.  The contract is total: executors catch their own failures
and report them as unverified outcomes instead of raising into the
engine.  Two backends ship here; anything callable with the same
execute() shape plugs in.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .config import conforms, operator_map
from .errors import ConfigurationError
from .operators import Operator
from .rng import derive_rng
from .scoring import MetricDirection, better
from .workspace import AgentSeed

if TYPE_CHECKING:
    from .config import RunConfig

#: Where external runs leave their per-experiment result files,
#: relative to the workspace.
RESULTS_SUBDIR = Path("Experiments") / "main_training"
RESULTS_FILENAME = "results.json"

#: Environment handed to external commands.
ENV_SEED_MANIFEST = "SEEDEVO_SEED_MANIFEST"
ENV_WORKSPACE = "SEEDEVO_WORKSPACE"


@dataclass(frozen=True)
class ExperimentRecord:
    """One scored training run inside a larger agent run."""

    run_name: str
    score: float
    metric: str = "score"
    notes: str | None = None

    def to_dict(self) -> dict:
        out = {"run_name": self.run_name, "score": self.score, "metric": self.metric}
        if self.notes is not None:
            out["notes"] = self.notes
        return out


@dataclass(frozen=True)
class RunOutcome:
    """What one run produced.

    verified means the run yielded at least one parseable scored
    experiment and the headline score is finite; only verified outcomes
    can enter tournaments or be archived.
    """

    score: float | None
    experiments: tuple[ExperimentRecord, ...]
    verified: bool
    diagnostics: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.verified:
            if not self.experiments:
                raise ValueError("verified outcome must carry experiment records")
            if self.score is None or not math.isfinite(self.score):
                raise ValueError(f"verified outcome needs a finite score, got {self.score!r}")

    @classmethod
    def failure(cls, **diagnostics: str) -> "RunOutcome":
        return cls(score=None, experiments=(), verified=False, diagnostics=diagnostics)


@dataclass(frozen=True)
class SimModelParams:
    """Score model for the simulated executor.

    Initial runs draw around base_mean; parent-conditioned runs add an
    operator-specific gain to the first parent's score, applied in the
    favorable direction.  experiment_spread shapes the synthetic
    per-experiment records under the headline score.
    """

    direction: MetricDirection = MetricDirection(True)
    base_mean: float = 0.5
    base_sd: float = 0.06
    gain_mean: dict[Operator, float] = field(
        default_factory=lambda: {
            Operator.CONTINUE: 0.010,
            Operator.ABLATION: 0.000,
            Operator.MERGE: 0.012,
            Operator.EDA: 0.008,
            Operator.JUMPSTART: 0.010,
        }
    )
    gain_sd: dict[Operator, float] = field(
        default_factory=lambda: {
            Operator.CONTINUE: 0.030,
            Operator.ABLATION: 0.030,
            Operator.MERGE: 0.040,
            Operator.EDA: 0.035,
            Operator.JUMPSTART: 0.030,
        }
    )
    failure_prob: dict[Operator, float] = field(
        default_factory=lambda: {op: 0.05 for op in Operator}
    )
    experiment_spread: float = 0.02
    metric: str = "score"

    def __post_init__(self):
        for op, p in self.failure_prob.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"failure_prob[{op}]", f"must be in [0,1], got {p}")

    def to_dict(self) -> dict:
        return {
            "higher_is_better": self.direction.higher_is_better,
            "base_mean": self.base_mean,
            "base_sd": self.base_sd,
            "gain_mean": {op.value: v for op, v in self.gain_mean.items()},
            "gain_sd": {op.value: v for op, v in self.gain_sd.items()},
            "failure_prob": {op.value: v for op, v in self.failure_prob.items()},
            "experiment_spread": self.experiment_spread,
            "metric": self.metric,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SimModelParams":
        """Read a parameter file: each value must have its default's type
        (an int passes as a float), and operator maps merge per operator."""
        merged = cls().to_dict()
        unknown = set(raw) - set(merged)
        if unknown:
            raise ConfigurationError(sorted(unknown)[0], "unknown simulator parameter")
        for key, default in merged.items():
            kind = type(default)
            if kind is dict:
                merged[key] = {**operator_map(key, default), **operator_map(key, raw.get(key, {}))}
            elif key in raw:
                if not conforms(raw[key], kind):
                    raise ConfigurationError(key, f"must be {kind.__name__}, got {raw[key]!r}")
                merged[key] = kind(raw[key])
        direction = MetricDirection(merged.pop("higher_is_better"))
        return cls(direction=direction, **merged)


class SimulatedExecutor:
    """Deterministic stand-in for real agent runs.

    Scores follow SimModelParams; every draw comes from a stream
    derived from (master seed, iteration, slot), so outcomes do not
    depend on scheduling.  Flipping the direction and negating
    base_mean mirrors every score exactly, not just in distribution.
    """

    def __init__(self, params: SimModelParams, master_seed: int = 0):
        self.params = params
        self.master_seed = master_seed

    def execute(self, seed: AgentSeed, workspace: Path) -> RunOutcome:
        p = self.params
        iteration = seed.context_params.get("iteration", 0)
        rng = derive_rng(self.master_seed, "sim", iteration, seed.slot)
        failed = rng.random() < p.failure_prob.get(seed.operator, 0.0)
        noise = rng.gauss(0.0, 1.0)
        sign = 1.0 if p.direction.higher_is_better else -1.0

        if seed.parents:
            gain = p.gain_mean.get(seed.operator, 0.0) + p.gain_sd.get(seed.operator, 0.0) * noise
            score = seed.parents[0].score + sign * gain
        else:
            score = sign * (p.base_mean + p.base_sd * noise)

        num_runs = int(seed.context_params.get("num_training_runs", 5))
        offsets = sorted(rng.uniform(0.0, p.experiment_spread) for _ in range(num_runs - 1))
        # earlier runs sit below the final, best one in the favorable direction
        records = tuple(
            ExperimentRecord(
                run_name=f"run_{i + 1}",
                score=score - sign * off,
                metric=p.metric,
            )
            for i, off in enumerate(reversed(offsets))
        ) + (ExperimentRecord(run_name=f"run_{num_runs}", score=score, metric=p.metric),)

        if failed:
            return RunOutcome.failure(failure="simulated run failure")

        try:
            sol = Path(workspace) / "solution"
            sol.mkdir(exist_ok=True)
            (sol / "notes.txt").write_text(
                f"operator={seed.operator.value} score={score!r}\n", encoding="utf-8"
            )
        except OSError:
            pass  # workspace side effects are best-effort

        return RunOutcome(score=score, experiments=records, verified=True)


class ExternalCommandExecutor:
    """Runs a real command inside the workspace and collects results.

    The command is launched with the workspace as its working directory
    and the seed manifest path in its environment, as the leader of a
    new session, its stdout and stderr going to logs/stdout.log and
    logs/stderr.log, which the archive keeps.  Only the command itself
    is waited for.  When it exits or times out, every process left in
    that session's process group is killed, so nothing it started in
    the background writes into the workspace after the slot ends.  Then
    every Experiments/main_training/*/results.json is parsed; the
    outcome is verified as soon as one experiment parses, regardless of
    exit status.  Never raises into the engine.
    """

    def __init__(
        self,
        command: list[str],
        direction: MetricDirection,
        timeout_seconds: float = 1800.0,
    ):
        if not command:
            raise ConfigurationError("external_command", "must not be empty")
        self.command = list(command)
        self.direction = direction
        self.timeout_seconds = timeout_seconds

    def execute(self, seed: AgentSeed, workspace: Path) -> RunOutcome:
        workspace = Path(workspace)
        manifest = workspace / "seed_manifest.json"
        substitutions = {
            "workspace": str(workspace),
            "seed_manifest": str(manifest),
            "data": str(workspace / "data"),
        }
        diagnostics: dict[str, str] = {}
        # targeted replacement, not str.format: commands may carry
        # literal braces (JSON payloads, shell snippets) and must
        # never make execute() raise
        argv = []
        for arg in self.command:
            for key, value in substitutions.items():
                arg = arg.replace("{" + key + "}", value)
            argv.append(arg)

        env = dict(os.environ)
        env[ENV_SEED_MANIFEST] = str(manifest)
        env[ENV_WORKSPACE] = str(workspace)

        logs = workspace / "logs"
        try:
            logs.mkdir(exist_ok=True)
            # the command holds its own copies of the two descriptors
            with open(logs / "stdout.log", "wb") as out, open(logs / "stderr.log", "wb") as err:
                proc = subprocess.Popen(
                    argv, cwd=workspace, env=env, stdout=out, stderr=err, start_new_session=True
                )
        except OSError as exc:
            return RunOutcome.failure(spawn=str(exc))
        with proc:  # on leaving, waits for the command
            try:
                # the command alone: a background job it started may
                # hold its output files open, but is killed below
                proc.wait(timeout=self.timeout_seconds)
            except subprocess.TimeoutExpired:
                diagnostics["timeout"] = f"killed after {self.timeout_seconds}s"
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        if "timeout" not in diagnostics and proc.returncode != 0:
            diagnostics["exit_code"] = str(proc.returncode)
            tail = _tail(logs / "stderr.log", 500)
            if tail:
                diagnostics["stderr_tail"] = tail

        records, parse_diags = parse_experiment_results(workspace)
        diagnostics.update(parse_diags)
        if not records:
            return RunOutcome(score=None, experiments=(), verified=False, diagnostics=diagnostics)
        best = records[0].score
        for rec in records[1:]:
            if better(rec.score, best, self.direction):
                best = rec.score
        return RunOutcome(score=best, experiments=records, verified=True, diagnostics=diagnostics)


def _tail(path: Path, chars: int) -> str:
    """The last chars characters of a UTF-8 file, read from its end: a
    character takes at most 4 bytes, and a cut one at most 3 more."""
    try:
        with open(path, "rb") as fh:
            fh.seek(max(0, fh.seek(0, os.SEEK_END) - 4 * chars - 3))
            return fh.read().decode("utf-8", "replace")[-chars:]
    except OSError:
        return ""


def parse_experiment_results(workspace: Path) -> tuple[tuple[ExperimentRecord, ...], dict]:
    """Collect scored experiments an external run left behind.

    Each Experiments/main_training/<run>/results.json must be an object
    with run_name and a finite numeric score; metric and notes ride
    along when present; the archive stores each as <run_name>.json.
    Malformed files are skipped with a diagnostic, never fatal.
    """
    results_root = Path(workspace) / RESULTS_SUBDIR
    records: list[ExperimentRecord] = []
    diagnostics: dict[str, str] = {}
    seen: set[str] = set()
    if not results_root.is_dir():
        return (), {}
    for run_dir in sorted(results_root.iterdir()):
        path = run_dir / RESULTS_FILENAME
        if not path.is_file():
            continue
        key = f"parse:{run_dir.name}"
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            diagnostics[key] = f"unreadable results.json: {exc}"
            continue
        if not conforms(raw, dict):
            diagnostics[key] = "results.json is not an object"
            continue
        score = raw.get("score")
        if not conforms(score, float):
            diagnostics[key] = f"score missing or not finite: {score!r}"
            continue
        run_name = raw.get("run_name") or run_dir.name
        if not conforms(run_name, str):
            diagnostics[key] = f"run_name not a string: {run_name!r}"
            continue
        if not _is_file_stem(run_name):
            diagnostics[key] = f"run_name not usable as a file name: {run_name!r}"
            continue
        if run_name in seen:
            diagnostics[key] = f"duplicate run_name {run_name!r}"
            continue
        seen.add(run_name)
        records.append(
            ExperimentRecord(
                run_name=run_name,
                score=float(score),
                metric=str(raw.get("metric", "score")),
                notes=raw.get("notes") if conforms(raw.get("notes"), str) else None,
            )
        )
    return tuple(records), diagnostics


def _is_file_stem(name: str) -> bool:
    """Whether <name>.json names one file in the archive's experiments
    directory: no path separator or NUL, valid UTF-8, and its temporary
    <name>.json.tmp within the 255-byte file name limit."""
    try:
        size = len(name.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return "/" not in name and "\0" not in name and size + len(".json.tmp") <= 255


def build_executor(config: "RunConfig"):
    """Instantiate the executor a config names."""
    direction = MetricDirection(config.higher_is_better)
    if config.executor == "simulated":
        raw = dict(config.sim_params or {})
        raw.setdefault("higher_is_better", config.higher_is_better)
        params = SimModelParams.from_dict(raw)
        if params.direction != direction:
            raise ConfigurationError(
                "sim_params", "simulator direction disagrees with higher_is_better"
            )
        return SimulatedExecutor(params, master_seed=config.master_seed)
    if config.executor == "external":
        return ExternalCommandExecutor(
            command=config.external_command or [],
            direction=direction,
            timeout_seconds=config.external_timeout_seconds,
        )
    raise ConfigurationError("executor", f"unknown executor {config.executor!r}")
