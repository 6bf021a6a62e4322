"""Run configuration: defaults, validation, file/env/flag layering.

Precedence when assembling a config is flags > environment > config
file > defaults.  The effective result is dumped into the output root
at run start so any run can be audited or resumed without the original
invocation.
"""

from __future__ import annotations

import json
import os
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path
from sys import float_info

from .errors import ConfigurationError
from .hedge import BOUND_SWEEPS, HedgeConfig
from .operators import Operator

DEFAULT_BASE_PROBS = {
    Operator.INITIAL: 0.1,
    Operator.CONTINUE: 0.2,
    Operator.ABLATION: 0.1,
    Operator.MERGE: 0.1,
    Operator.JUMPSTART: 0.0,
    Operator.EDA: 0.5,
}

DEFAULT_FLOORS = {
    Operator.INITIAL: 0.05,
    Operator.CONTINUE: 0.10,
    Operator.ABLATION: 0.05,
    Operator.MERGE: 0.05,
    Operator.JUMPSTART: 0.05,
    Operator.EDA: 0.05,
}

DEFAULT_CEILINGS = {Operator.MERGE: 0.30}

DEFAULT_MAX_FILE_BYTES = 64 * 1024 * 1024

#: Config fields that map operators to probabilities.
PROB_MAPS = ("base_probs", "floors", "ceilings")


@dataclass
class RunConfig:
    population_size: int = 5
    workers: int = 3
    base_probs: dict[Operator, float] = field(default_factory=lambda: dict(DEFAULT_BASE_PROBS))
    floors: dict[Operator, float] = field(default_factory=lambda: dict(DEFAULT_FLOORS))
    ceilings: dict[Operator, float] = field(default_factory=lambda: dict(DEFAULT_CEILINGS))
    learning_rate: float = 0.15
    clip_cap: float = 4.0
    max_iterations: int = 30
    patience: int = 5
    improvement_threshold: float = 0.0
    continue_parents_max: int = 1
    num_training_runs: int = 5
    higher_is_better: bool = True
    master_seed: int = 0
    executor: str = "simulated"
    sim_params: dict | None = None
    external_command: list[str] | None = None
    external_timeout_seconds: float = 1800.0
    data_path: str | None = None
    data_provisioning: str = "link"
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES
    excluded_globs: list[str] = field(default_factory=list)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not conforms(value, _FIELD_TYPES[f.name]):
                raise ConfigurationError(f.name, f"must be {f.type}, got {value!r}")
        if self.population_size < 1:
            raise ConfigurationError("population_size", f"must be >= 1, got {self.population_size}")
        if self.workers < 1:
            raise ConfigurationError("workers", f"must be >= 1, got {self.workers}")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations", f"must be >= 1, got {self.max_iterations}")
        if self.patience < 1:
            raise ConfigurationError("patience", f"must be >= 1, got {self.patience}")
        if self.improvement_threshold < 0:
            raise ConfigurationError("improvement_threshold", "must be >= 0")
        if self.continue_parents_max < 1:
            raise ConfigurationError("continue_parents_max", "must be >= 1")
        if self.num_training_runs < 1:
            raise ConfigurationError("num_training_runs", "must be >= 1")
        if self.executor not in ("simulated", "external"):
            raise ConfigurationError("executor", f"unknown executor {self.executor!r}")
        if self.executor == "external" and not self.external_command:
            raise ConfigurationError("external_command", "required when executor is external")
        if self.executor == "external" and not self.data_path:
            raise ConfigurationError("data_path", "required when executor is external")
        if self.external_timeout_seconds <= 0:
            raise ConfigurationError("external_timeout_seconds", "must be > 0")
        if self.data_provisioning not in ("copy", "link"):
            raise ConfigurationError(
                "data_provisioning", f"must be copy or link, got {self.data_provisioning!r}"
            )
        if self.max_file_bytes < 1:
            raise ConfigurationError("max_file_bytes", "must be >= 1")
        if (
            self.population_size < 2
            and self.base_probs.get(Operator.MERGE, 0.0) > 0.0
        ):
            raise ConfigurationError(
                "population_size", "merge is active but population of 1 has no second parent"
            )
        # surfaces bad probability maps early, with field-level messages
        self.hedge_config()

    def hedge_config(self) -> HedgeConfig:
        return HedgeConfig.build(
            base_probs=self.base_probs,
            floors=self.floors,
            ceilings=self.ceilings,
            learning_rate=self.learning_rate,
            clip_cap=self.clip_cap,
        )

    def to_dict(self) -> dict:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in PROB_MAPS:
            raw[key] = {op.value: p for op, p in raw[key].items()}
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = dict(raw)
        # retired keys that run_config.json files written before their
        # removal still hold; neither ever changed a run at these values
        raw.pop("continue_parents_min", None)
        if raw.pop("max_bound_iterations", BOUND_SWEEPS) != BOUND_SWEEPS:
            raise ConfigurationError("max_bound_iterations", f"retired; must be {BOUND_SWEEPS}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(sorted(unknown)[0], "unknown config key")
        merged = cls().to_dict()
        merged.update(raw)
        for key in PROB_MAPS:
            merged[key] = operator_map(key, merged[key])
        return cls(**merged)


_FIELD_TYPES = typing.get_type_hints(RunConfig)  # resolved once, not on every validate


def conforms(value, hint) -> bool:
    """Whether a value read from outside the program has a declared
    type: a float must be finite, ints pass as floats (within float
    range), bools are not numbers and strings are not lists."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(conforms(value, arg) for arg in args)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:  # NaN, the infinities and ints past float range fail the bound
        return (isinstance(value, float) or conforms(value, int)) and abs(value) <= float_info.max
    if origin is list:
        return isinstance(value, list) and all(conforms(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(conforms(v, args[1]) for v in value.values())
    return isinstance(value, hint)


def operator_map(key: str, raw) -> dict[Operator, float]:
    """A map of operator names to numbers, read from outside the
    program; an error names the map, or <map>.<operator>."""
    if not isinstance(raw, dict):
        raise ConfigurationError(key, f"must map operator names to numbers, got {raw!r}")
    for name, value in raw.items():
        if name not in set(Operator):
            raise ConfigurationError(f"{key}.{name}", "unknown operator")
        if not conforms(value, float):
            raise ConfigurationError(f"{key}.{name}", f"must be a finite number, got {value!r}")
    return {Operator(name): float(value) for name, value in raw.items()}


#: Each user-settable field's environment variable and command-line flag
#: (None: no flag).  Both carry text, which parse_setting reads by the
#: field's declared type.  Probability maps get one GA_PROB_<OPERATOR>
#: variable per operator instead.
SETTINGS = {
    "population_size": ("GA_POPULATION", "--population"),
    "workers": ("GA_WORKERS", "--workers"),
    "learning_rate": ("GA_ETA", None),
    "clip_cap": ("GA_KAPPA", None),
    "max_iterations": ("GA_MAX_ITERATIONS", "--max-iterations"),
    "patience": ("GA_PATIENCE", "--patience"),
    "improvement_threshold": ("GA_THRESHOLD", "--threshold"),
    "continue_parents_max": ("GA_CONTINUE_PARENTS_MAX", None),
    "num_training_runs": ("NUM_TRAINING_RUNS", "--num-training-runs"),
    "higher_is_better": ("GA_HIGHER_IS_BETTER", "--higher-is-better"),
    "master_seed": ("GA_SEED", "--seed"),
    "executor": ("GA_EXECUTOR", "--executor"),
    "data_path": ("GA_DATA", "--data"),
    "data_provisioning": ("GA_MOUNT_DATA", "--mount-data"),
    "external_timeout_seconds": ("GA_TIMEOUT_SECONDS", None),
}


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_setting(key: str, text: str, source: str):
    """A flag or variable value, read by its field's declared type (the X
    of X | None); source names where the text came from.  A bool takes
    1/true/yes or 0/false/no in any case, never a silent false."""
    kind = (typing.get_args(_FIELD_TYPES[key]) or (_FIELD_TYPES[key],))[0]
    try:
        return _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        want = "1/true/yes or 0/false/no" if kind is bool else kind.__name__
        raise ConfigurationError(key, f"{source} needs {want}, got {text!r}") from None


def _env_overrides(env: dict) -> dict:
    out = {
        key: parse_setting(key, env[var], f"${var}")
        for key, (var, _) in SETTINGS.items()
        if var in env
    }
    for op in Operator:
        var = f"GA_PROB_{op.value.upper()}"
        if var in env:
            try:
                out.setdefault("base_probs", {})[op.value] = float(env[var])
            except ValueError as exc:
                raise ConfigurationError("base_probs", f"bad value in ${var}") from exc
    return out


def load_config(
    config_file: Path | None = None,
    env: dict | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """Assemble a RunConfig with flags > env > file > defaults; a
    relative data_path is made absolute against the working directory."""
    merged = RunConfig().to_dict()
    if config_file is not None:
        _merge_layer(merged, read_json_object(config_file, "config_file"))
    _merge_layer(merged, _env_overrides(env if env is not None else dict(os.environ)))
    _merge_layer(merged, overrides or {})
    config = RunConfig.from_dict(merged)
    config.validate()
    if config.data_path:  # run_config.json records it; a resume may start anywhere
        config.data_path = os.path.abspath(config.data_path)
    return config


def read_json_object(path: Path, what: str) -> dict:
    """Parse a JSON file whose top level must be an object; any
    failure is a ConfigurationError naming the file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(what, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(what, f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(what, "top level must be an object")
    return raw


def _merge_layer(base: dict, layer: dict) -> None:
    """Apply one precedence layer; probability maps merge per operator."""
    for key, value in layer.items():
        if key in PROB_MAPS and isinstance(value, dict):
            current = dict(base.get(key) or {})
            current.update(value)
            base[key] = current
        else:
            base[key] = value
