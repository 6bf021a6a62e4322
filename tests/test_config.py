"""Configuration tests: defaults, validation, serialization, and the
flags > environment > file > defaults layering."""

from __future__ import annotations

import json
import typing
from dataclasses import fields

import pytest

from seedevo.config import SETTINGS, RunConfig, load_config, parse_setting
from seedevo.errors import ConfigurationError
from seedevo.operators import Operator as Op


# -- defaults --------------------------------------------------------


def test_defaults_frozen():
    config = RunConfig()
    assert config.population_size == 5
    assert config.workers == 3
    assert config.base_probs == {
        Op.INITIAL: 0.1,
        Op.CONTINUE: 0.2,
        Op.ABLATION: 0.1,
        Op.MERGE: 0.1,
        Op.JUMPSTART: 0.0,
        Op.EDA: 0.5,
    }
    assert config.floors == {
        Op.INITIAL: 0.05,
        Op.CONTINUE: 0.10,
        Op.ABLATION: 0.05,
        Op.MERGE: 0.05,
        Op.JUMPSTART: 0.05,
        Op.EDA: 0.05,
    }
    assert config.ceilings == {Op.MERGE: 0.30}
    assert config.learning_rate == 0.15
    assert config.clip_cap == 4.0
    assert config.max_iterations == 30
    assert config.patience == 5
    assert config.improvement_threshold == 0.0
    assert config.continue_parents_max == 1
    assert config.num_training_runs == 5
    assert config.higher_is_better is True
    assert config.master_seed == 0
    assert config.executor == "simulated"
    assert config.external_timeout_seconds == 1800.0
    assert config.data_provisioning == "link"
    assert config.max_file_bytes == 64 * 1024 * 1024
    assert config.excluded_globs == []
    config.validate()


def test_default_instances_do_not_share_maps():
    a, b = RunConfig(), RunConfig()
    a.base_probs[Op.EDA] = 0.9
    assert b.base_probs[Op.EDA] == 0.5


# -- validation ------------------------------------------------------


#: Every float setting, NaN and the infinities; a float setting added
#: later is covered without a new row.
NON_FINITE_ROWS = [
    (name, value)
    for name, hint in typing.get_type_hints(RunConfig).items()
    if hint is float
    for value in (float("nan"), float("inf"), float("-inf"))
]


@pytest.mark.parametrize(
    "field,value",
    [
        ("population_size", 0),
        ("workers", 0),
        ("max_iterations", 0),
        ("patience", 0),
        ("continue_parents_max", 0),
        ("num_training_runs", 0),
        ("executor", "quantum"),
        ("data_provisioning", "nfs"),
        ("max_file_bytes", 0),
        ("external_timeout_seconds", 0),
        ("external_timeout_seconds", -5),
        *NON_FINITE_ROWS,
    ],
)
def test_validate_rejects_bad_scalar(field, value):
    config = RunConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        config.validate()


def test_validate_external_requires_command_and_data():
    config = RunConfig(executor="external")
    with pytest.raises(ConfigurationError, match="external_command"):
        config.validate()
    config = RunConfig(executor="external", external_command=["run.sh"])
    with pytest.raises(ConfigurationError, match="data_path"):
        config.validate()
    RunConfig(
        executor="external", external_command=["run.sh"], data_path="/data"
    ).validate()


def test_validate_merge_needs_population_two():
    config = RunConfig(population_size=1)
    with pytest.raises(ConfigurationError, match="population_size"):
        config.validate()
    RunConfig(
        population_size=1,
        base_probs={Op.CONTINUE: 1.0},
        floors={},
        ceilings={},
    ).validate()


def test_validate_surfaces_bad_probability_maps():
    config = RunConfig(base_probs={Op.CONTINUE: -0.2, Op.EDA: 1.2})
    with pytest.raises(ConfigurationError):
        config.validate()


# -- serialization ---------------------------------------------------


def test_round_trip_preserves_everything():
    config = RunConfig(
        population_size=7,
        base_probs={Op.CONTINUE: 0.6, Op.EDA: 0.4},
        floors={Op.CONTINUE: 0.1},
        ceilings={},
        higher_is_better=False,
        sim_params={"base_mean": 0.4},
        excluded_globs=["*.ckpt"],
    )
    again = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config


def test_to_dict_uses_operator_value_keys():
    raw = RunConfig().to_dict()
    assert raw["base_probs"]["continue"] == 0.2
    assert raw["ceilings"] == {"merge": 0.3}


def test_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="n_pop"):
        RunConfig.from_dict({"n_pop": 5})


def test_from_dict_rejects_unknown_operator():
    with pytest.raises(ConfigurationError, match="base_probs"):
        RunConfig.from_dict({"base_probs": {"mutate": 0.5}})


def test_from_dict_drops_retired_keys():
    # run_config.json files written before the two settings were retired
    config = RunConfig.from_dict({"continue_parents_min": 2, "max_bound_iterations": 10})
    assert config == RunConfig()
    with pytest.raises(ConfigurationError, match="max_bound_iterations"):
        RunConfig.from_dict({"max_bound_iterations": 12})


def test_from_dict_partial_prob_map_replaces_whole_map():
    # from_dict is a full-document read: a map given there is the map
    config = RunConfig.from_dict({"base_probs": {"continue": 1.0}})
    assert config.base_probs == {Op.CONTINUE: 1.0}


# -- layering --------------------------------------------------------


def test_load_config_defaults_when_everything_absent():
    assert load_config(env={}) == RunConfig()


def test_file_layer_overrides_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"population_size": 9, "patience": 2}))
    config = load_config(path, env={})
    assert config.population_size == 9
    assert config.patience == 2
    assert config.workers == 3


def test_file_prob_maps_merge_per_operator(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"base_probs": {"eda": 0.2, "continue": 0.5}}))
    config = load_config(path, env={})
    assert config.base_probs[Op.EDA] == 0.2
    assert config.base_probs[Op.CONTINUE] == 0.5
    assert config.base_probs[Op.MERGE] == 0.1  # untouched default


def test_env_layer_beats_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"population_size": 9, "master_seed": 1}))
    config = load_config(path, env={"GA_POPULATION": "4"})
    assert config.population_size == 4
    assert config.master_seed == 1


def test_flag_layer_beats_env_and_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"population_size": 9}))
    config = load_config(
        path, env={"GA_POPULATION": "4"}, overrides={"population_size": 2, "workers": 1}
    )
    assert config.population_size == 2
    assert config.workers == 1


def test_env_scalar_coverage():
    env = {
        "GA_POPULATION": "6",
        "GA_WORKERS": "2",
        "GA_ETA": "0.2",
        "GA_KAPPA": "3.5",
        "GA_MAX_ITERATIONS": "12",
        "GA_PATIENCE": "4",
        "GA_THRESHOLD": "0.01",
        "GA_CONTINUE_PARENTS_MAX": "2",
        "NUM_TRAINING_RUNS": "3",
        "GA_HIGHER_IS_BETTER": "false",
        "GA_SEED": "99",
        "GA_MOUNT_DATA": "copy",
        "GA_TIMEOUT_SECONDS": "90.5",
    }
    config = load_config(env=env)
    assert config.population_size == 6
    assert config.workers == 2
    assert config.learning_rate == 0.2
    assert config.clip_cap == 3.5
    assert config.max_iterations == 12
    assert config.patience == 4
    assert config.improvement_threshold == 0.01
    assert config.continue_parents_max == 2
    assert config.num_training_runs == 3
    assert config.higher_is_better is False
    assert config.master_seed == 99
    assert config.data_provisioning == "copy"
    assert config.external_timeout_seconds == 90.5


def test_env_prob_vars_merge_per_operator():
    env = {"GA_PROB_EDA": "0.3", "GA_PROB_JUMPSTART": "0.2"}
    config = load_config(env=env)
    assert config.base_probs[Op.EDA] == 0.3
    assert config.base_probs[Op.JUMPSTART] == 0.2
    assert config.base_probs[Op.CONTINUE] == 0.2


def test_env_bad_value_names_config_key():
    with pytest.raises(ConfigurationError, match="population_size"):
        load_config(env={"GA_POPULATION": "many"})
    with pytest.raises(ConfigurationError, match="base_probs"):
        load_config(env={"GA_PROB_MERGE": "a lot"})


def test_higher_is_better_env_parsing():
    for value, expected in (
        ("1", True), ("true", True), ("YES", True),
        ("0", False), ("false", False), ("no", False),
    ):
        assert load_config(env={"GA_HIGHER_IS_BETTER": value}).higher_is_better is expected


def test_settings_table_names_fields_and_repeats_nothing():
    assert set(SETTINGS) <= {f.name for f in fields(RunConfig)}
    variables = [var for var, _ in SETTINGS.values()]
    flags = [flag for _, flag in SETTINGS.values() if flag]
    assert len(set(variables)) == len(variables)
    assert len(set(flags)) == len(flags)
    assert not any(var.startswith("GA_PROB_") for var in variables)
    assert all(flag.startswith("--") for flag in flags)


@pytest.mark.parametrize(
    "key, text, expected",
    [
        ("workers", "4", 4),
        ("clip_cap", "2", 2.0),
        ("higher_is_better", "No", False),
        ("executor", "external", "external"),
        ("data_path", "/data", "/data"),
    ],
)
def test_parse_setting_reads_the_declared_type(key, text, expected):
    value = parse_setting(key, text, "--x")
    assert value == expected and type(value) is type(expected)


def test_parse_setting_error_names_field_and_source():
    with pytest.raises(ConfigurationError, match=r"^workers: \$GA_WORKERS needs int, got '2.5'$"):
        parse_setting("workers", "2.5", "$GA_WORKERS")
    with pytest.raises(ConfigurationError, match="--higher-is-better needs 1/true/yes or 0/false/no"):
        parse_setting("higher_is_better", "on", "--higher-is-better")


def test_load_config_validates_final_result(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"population_size": 3}))
    with pytest.raises(ConfigurationError, match="population_size"):
        load_config(path, env={"GA_POPULATION": "0"})


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="config_file"):
        load_config(tmp_path / "absent.json", env={})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigurationError, match="config_file"):
        load_config(bad, env={})
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="config_file"):
        load_config(listy, env={})


def test_hedge_config_drops_zero_probability_operators():
    hedge = RunConfig().hedge_config()
    assert Op.JUMPSTART not in hedge.active_tasks
    assert set(hedge.active_tasks) == {
        Op.INITIAL, Op.CONTINUE, Op.ABLATION, Op.MERGE, Op.EDA,
    }
