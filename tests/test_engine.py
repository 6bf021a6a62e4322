"""Engine unit tests: comparisons, stopping, parent selection,
planning, tournaments, small end-to-end runs, and crashes inside an
iteration."""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from pathlib import Path

import pytest

from conftest import ScriptedExecutor, single_slot_config
from oracles import stopping_oracle
from seedevo.cli import main
from seedevo.config import RunConfig
from seedevo.engine import (
    AgentSeed,
    ElitePool,
    EvolutionEngine,
    MetricDirection,
    StoppingState,
    better,
    improvement,
    plan_iteration,
    resolve_tournament,
    select_parents,
    update_stopping,
)
from seedevo.errors import ConfigurationError, EvaluationError
from seedevo.events import read_events
from seedevo.executors import SimModelParams, SimulatedExecutor, build_executor
from seedevo.hedge import HedgeConfig, new_state
from seedevo.operators import Operator as Op
from seedevo.rng import derive_rng
from seedevo.workspace import ArchiveRef

HIGHER = MetricDirection(True)
LOWER = MetricDirection(False)


def make_ref(
    archive_id: str,
    score: float,
    slot: int = 0,
    operator: Op = Op.INITIAL,
    iteration: int = 1,
    parent_ids: tuple[str, ...] = (),
) -> ArchiveRef:
    return ArchiveRef(
        id=archive_id,
        path=Path(f"/nonexistent/{archive_id}"),
        score=score,
        origin_operator=operator,
        origin_iteration=iteration,
        slot=slot,
        parent_ids=parent_ids,
    )


def make_entry(slot: int, score: float) -> ArchiveRef:
    """The elite of one slot: an initial run archived as a{slot}."""
    return make_ref(f"a{slot}", score, slot)


def full_pool(scores: list[float | None]) -> list[ArchiveRef | None]:
    """Pool entries from scores; None leaves the slot empty."""
    return [None if s is None else make_entry(i, s) for i, s in enumerate(scores)]


# -- better / improvement --------------------------------------------


def test_better_both_directions():
    assert better(0.86, 0.82, HIGHER)
    assert not better(0.82, 0.86, HIGHER)
    assert better(0.40, 0.50, LOWER)
    assert not better(0.50, 0.40, LOWER)


def test_better_tie_is_false_in_both_directions():
    assert not better(0.5, 0.5, HIGHER)
    assert not better(0.5, 0.5, LOWER)


def test_better_rejects_non_finite():
    with pytest.raises(EvaluationError):
        better(float("nan"), 0.5, HIGHER)
    with pytest.raises(EvaluationError):
        better(0.5, float("inf"), LOWER)


def test_improvement_examples():
    assert improvement(0.86, 0.82, HIGHER) == pytest.approx(0.04)
    assert improvement(0.40, 0.50, LOWER) == pytest.approx(0.10)
    assert improvement(0.7, 0.7, HIGHER) == 0.0
    assert improvement(0.7, 0.7, LOWER) == 0.0


def test_improvement_rejects_non_finite():
    with pytest.raises(EvaluationError):
        improvement(float("-inf"), 0.5, HIGHER)


# -- stopping rule ---------------------------------------------------


def run_stopping(bests: list[float | None], threshold=0.0, patience=5, max_iterations=30):
    state = StoppingState(threshold=threshold, patience=patience, max_iterations=max_iterations)
    for i, value in enumerate(bests, start=1):
        state, stop = update_stopping(state, value, i, HIGHER)
        if stop:
            return i, state
    return None, state


def test_stopping_flat_sequence_stops_after_patience():
    stop_at, state = run_stopping([1.0] * 10)
    assert stop_at == 6
    assert state.stagnation_count == 5
    assert state.best_so_far == 1.0


def test_stopping_budget_cap():
    bests = [i / 100 for i in range(1, 31)]
    stop_at, state = run_stopping(bests)
    assert stop_at == 30
    assert state.stagnation_count == 0


def test_stopping_exact_threshold_counts_as_stagnation():
    stop_at, state = run_stopping([1.0, 1.0])
    assert stop_at is None
    assert state.stagnation_count == 1


def test_stopping_above_threshold_resets():
    state = StoppingState(threshold=0.01, patience=5, max_iterations=30)
    state, _ = update_stopping(state, 1.0, 1, HIGHER)
    state, _ = update_stopping(state, 1.005, 2, HIGHER)  # within threshold
    assert state.stagnation_count == 1
    assert state.best_so_far == 1.0
    state, _ = update_stopping(state, 1.02, 3, HIGHER)  # beyond threshold
    assert state.stagnation_count == 0
    assert state.best_so_far == 1.02


def test_stopping_handles_missing_iteration_best():
    state = StoppingState(threshold=0.0, patience=2, max_iterations=30)
    state, stop = update_stopping(state, None, 1, HIGHER)
    assert state.stagnation_count == 1 and not stop
    state, stop = update_stopping(state, None, 2, HIGHER)
    assert stop


def test_stopping_lower_is_better():
    state = StoppingState(threshold=0.0, patience=5, max_iterations=30)
    state, _ = update_stopping(state, 0.9, 1, LOWER)
    state, _ = update_stopping(state, 0.8, 2, LOWER)
    assert state.best_so_far == 0.8 and state.stagnation_count == 0
    state, _ = update_stopping(state, 0.85, 3, LOWER)
    assert state.best_so_far == 0.8 and state.stagnation_count == 1


def test_stopping_matches_oracle_on_random_walks():
    import random

    rng = random.Random(31)
    for _ in range(20):
        steps = [rng.choice([0.0, 0.0, 0.01, 0.02, -0.005]) for _ in range(30)]
        bests, value = [], 0.5
        for s in steps:
            value = max(value, value + s)
            bests.append(value)
        want_stop, want_best, want_stag = stopping_oracle(bests, 0.0, 5, 30)
        got_stop, state = run_stopping(bests)
        assert got_stop == want_stop
        assert state.best_so_far == pytest.approx(want_best)
        assert state.stagnation_count == want_stag


# -- parent selection ------------------------------------------------


def test_select_parents_slot_elite_first():
    pool = full_pool([0.5, 0.6, 0.7])
    for op in (Op.ABLATION, Op.EDA, Op.JUMPSTART):
        parents = select_parents(op, pool, 1, derive_rng(0, "p"))
        assert [p.slot for p in parents] == [1]


def test_select_parents_merge_adds_distinct_other():
    pool = full_pool([0.5, 0.6, 0.7, 0.4, 0.3])
    for trial in range(20):
        parents = select_parents(Op.MERGE, pool, 2, derive_rng(trial, "m"))
        assert len(parents) == 2
        assert parents[0].slot == 2
        assert parents[1].slot != 2


def test_select_parents_continue_default_is_single():
    pool = full_pool([0.5, 0.6])
    parents = select_parents(Op.CONTINUE, pool, 0, derive_rng(1, "c"), continue_max_parents=1)
    assert [p.slot for p in parents] == [0]


def test_select_parents_continue_appends_extras():
    pool = full_pool([0.5, 0.6, 0.7, 0.8])
    parents = select_parents(Op.CONTINUE, pool, 1, derive_rng(2, "c"), continue_max_parents=3)
    slots = [p.slot for p in parents]
    assert slots[0] == 1
    assert len(slots) == 3
    assert len(set(slots)) == 3


def test_select_parents_continue_capped_by_availability():
    pool = full_pool([0.5, 0.6])
    parents = select_parents(Op.CONTINUE, pool, 0, derive_rng(3, "c"), continue_max_parents=5)
    assert [p.slot for p in parents] == [0, 1]


def test_select_parents_merge_population_one_finds_nothing():
    pool = full_pool([0.5])
    rng = derive_rng(0, "m")
    before = rng.getstate()
    assert select_parents(Op.MERGE, pool, 0, rng) is None
    assert rng.getstate() == before  # nothing drawn


def test_select_parents_requires_valid_own_elite():
    pool = full_pool([0.5, None])
    for op in (Op.CONTINUE, Op.MERGE, Op.EDA):
        rng = derive_rng(0, "c")
        before = rng.getstate()
        assert select_parents(op, pool, 1, rng) is None
        assert rng.getstate() == before


def test_select_parents_deterministic_with_same_stream():
    pool = full_pool([0.5, 0.6, 0.7, 0.8, 0.9])
    a = select_parents(Op.MERGE, pool, 0, derive_rng(11, "q", 4))
    b = select_parents(Op.MERGE, pool, 0, derive_rng(11, "q", 4))
    assert [p.slot for p in a] == [p.slot for p in b]


# -- planning --------------------------------------------------------


def plan_config(**overrides) -> RunConfig:
    return RunConfig(**overrides)


def test_plan_iteration_one_is_all_initial():
    config = plan_config()
    seeds = plan_iteration([None] * 5, new_state(config.hedge_config()), 1, config)
    assert len(seeds) == 5
    assert all(s.operator is Op.INITIAL and s.parents == () for s in seeds)
    assert [s.slot for s in seeds] == list(range(5))
    assert all(s.context_params["iteration"] == 1 for s in seeds)
    assert all(s.context_params["num_training_runs"] == 5 for s in seeds)


def test_plan_iteration_forced_continue_uses_same_slot_parent():
    config = plan_config(
        population_size=3, base_probs={Op.CONTINUE: 1.0}, floors={}, ceilings={}
    )
    pool = full_pool([0.5, 0.6, 0.7])
    seeds = plan_iteration(pool, new_state(config.hedge_config()), 2, config)
    for slot, seed in enumerate(seeds):
        assert seed.operator is Op.CONTINUE
        assert seed.parents[0].id == pool[slot].id


def test_plan_iteration_is_deterministic():
    config = plan_config(master_seed=123)
    pool = full_pool([0.5, 0.6, 0.7, 0.8, 0.9])
    state = new_state(config.hedge_config())
    a = plan_iteration(pool, state, 3, config)
    b = plan_iteration(pool, state, 3, config)
    assert [(s.operator, s.slot, tuple(p.id for p in s.parents)) for s in a] == [
        (s.operator, s.slot, tuple(p.id for p in s.parents)) for s in b
    ]


def test_plan_iteration_sentinel_slot_replans_as_initial():
    # a slot whose first run failed stays empty until a run fills it
    config = plan_config(
        population_size=2, base_probs={Op.CONTINUE: 1.0}, floors={}, ceilings={}
    )
    pool = full_pool([0.5, None])
    seeds = plan_iteration(pool, new_state(config.hedge_config()), 2, config)
    assert seeds[0].operator is Op.CONTINUE
    assert seeds[1].operator is Op.INITIAL and seeds[1].parents == ()


def test_plan_iteration_merge_without_partner_falls_back():
    config = plan_config(
        population_size=2, base_probs={Op.MERGE: 1.0}, floors={}, ceilings={}
    )
    pool = full_pool([0.5, None])
    seeds = plan_iteration(pool, new_state(config.hedge_config()), 2, config)
    assert seeds[0].operator is Op.INITIAL  # no partner slot holds an elite
    assert seeds[1].operator is Op.INITIAL  # own slot is empty


def test_plan_iteration_merge_with_partner():
    config = plan_config(
        population_size=2, base_probs={Op.MERGE: 1.0}, floors={}, ceilings={}
    )
    pool = full_pool([0.5, 0.6])
    seeds = plan_iteration(pool, new_state(config.hedge_config()), 2, config)
    for slot, seed in enumerate(seeds):
        assert seed.operator is Op.MERGE
        assert len(seed.parents) == 2
        assert seed.parents[0].id == pool[slot].id


# -- seed arity ------------------------------------------------------


def test_agent_seed_arity_validation():
    ref = make_ref("x", 0.5)
    with pytest.raises(ConfigurationError):
        AgentSeed(Op.INITIAL, 0, (ref,), {})
    with pytest.raises(ConfigurationError):
        AgentSeed(Op.MERGE, 0, (ref,), {})
    with pytest.raises(ConfigurationError):
        AgentSeed(Op.CONTINUE, 0, (), {})
    AgentSeed(Op.MERGE, 0, (ref, make_ref("y", 0.6)), {})


# -- tournaments -----------------------------------------------------


def test_tournament_child_wins():
    incumbent = make_entry(0, 0.82)
    child = make_ref("c", 0.87, 0, Op.CONTINUE, 2, ("a0",))
    winner, event = resolve_tournament(
        child, incumbent, HIGHER, iteration=2, operator=Op.CONTINUE,
        parent_ids=("a0",), slot=0,
    )
    assert winner is child
    assert event["child_won"] and event["child_valid"]
    assert event["delta"] == pytest.approx(0.05)
    assert event["parent_score"] == 0.82 and event["child_score"] == 0.87


def test_tournament_tie_keeps_incumbent():
    incumbent = make_entry(0, 0.82)
    child = make_ref("c", 0.82, 0, Op.EDA, 2, ("a0",))
    winner, event = resolve_tournament(
        child, incumbent, HIGHER, iteration=2, operator=Op.EDA, slot=0,
    )
    assert winner is incumbent
    assert not event["child_won"]
    assert event["delta"] == 0.0


def test_tournament_invalid_child_keeps_incumbent():
    incumbent = make_entry(0, 0.82)
    winner, event = resolve_tournament(
        None, incumbent, HIGHER, iteration=2, operator=Op.MERGE, slot=0,
    )
    assert winner is incumbent
    assert not event["child_valid"] and not event["child_won"]
    assert event["delta"] is None and event["child_score"] is None
    assert event["child_id"] is None


def test_tournament_lower_is_better():
    incumbent = make_entry(0, 0.50)
    child = make_ref("c", 0.40, 0, Op.CONTINUE, 2, ("a0",))
    winner, event = resolve_tournament(
        child, incumbent, LOWER, iteration=2, operator=Op.CONTINUE, slot=0,
    )
    assert winner is child
    assert event["delta"] == pytest.approx(0.10)


def test_tournament_iteration_one_installs_unconditionally():
    child = make_ref("c", 0.2, 3)
    winner, event = resolve_tournament(
        child, None, HIGHER, iteration=1, operator=Op.INITIAL, slot=3,
    )
    assert winner is child and event["child_won"]
    assert event["parent_score"] is None and event["delta"] is None


def test_tournament_iteration_one_failure_leaves_sentinel():
    # the slot stays empty
    winner, event = resolve_tournament(
        None, None, HIGHER, iteration=1, operator=Op.INITIAL, slot=2,
    )
    assert winner is None
    assert event["slot"] == 2 and event["parent_score"] is None and event["delta"] is None
    assert not event["child_won"] and not event["child_valid"]


def test_tournament_any_valid_child_beats_sentinel():
    # an empty slot after iteration 1 takes any valid child
    child = make_ref("c", -5.0, 1, Op.INITIAL, 3)
    winner, event = resolve_tournament(
        child, None, HIGHER, iteration=3, operator=Op.INITIAL, slot=1,
    )
    assert winner is child and event["child_won"]
    assert event["parent_score"] is None
    assert event["delta"] is None  # no parent to measure against


# -- pool ------------------------------------------------------------


def test_pool_best_earliest_slot_wins_ties():
    pool = ElitePool(3, HIGHER)
    pool.entries = full_pool([0.7, 0.7, 0.5])
    assert pool.best().slot == 0


def test_pool_best_ignores_sentinels():
    # empty slots
    pool = ElitePool(2, HIGHER)
    pool.entries = full_pool([None, 0.3])
    assert pool.best().slot == 1
    pool.entries = full_pool([None, None])
    assert pool.best() is None


# -- end-to-end runs -------------------------------------------------


def test_smallest_loop_two_iterations(tmp_path):
    """One slot, scripted 0.5 then 0.6: final elite 0.6 with a single
    qualifying tournament of delta +0.1."""
    config = single_slot_config(max_iterations=2, master_seed=9)
    executor = ScriptedExecutor({(1, 0): 0.5, (2, 0): 0.6})
    best = EvolutionEngine.start(config, executor, tmp_path / "run").run()
    assert best.score == 0.6
    assert best.origin_operator is Op.CONTINUE

    events, skipped = read_events(tmp_path / "run" / "events.jsonl")
    assert skipped == 0
    tournaments = [e for e in events if e["type"] == "tournament"]
    assert len(tournaments) == 2
    assert tournaments[0]["parent_score"] is None
    assert tournaments[1]["delta"] == pytest.approx(0.1)
    assert tournaments[1]["child_won"] is True
    assert executor.calls == [(1, 0, "initial"), (2, 0, "continue")]


def test_all_children_failing_keeps_pool_and_hedge(tmp_path):
    """When every child of an iteration fails verification, the pool
    and the allocator state both carry over unchanged."""
    script = {(1, slot): 0.4 + slot / 10 for slot in range(3)}
    # iteration 2 entirely missing from the script: every child fails
    script.update({(3, slot): 0.0 for slot in range(3)})
    config = RunConfig(population_size=3, workers=2, master_seed=4, max_iterations=3)
    executor = ScriptedExecutor(script)
    engine = EvolutionEngine.start(config, executor, tmp_path / "run")
    engine.step()
    pool_after_1 = [e.score for e in engine.pool.entries]
    hedge_after_1 = dict(engine.hedge_state.log_weights)
    engine.step()
    assert [e.score for e in engine.pool.entries] == pool_after_1
    assert engine.hedge_state.log_weights == hedge_after_1
    events, _ = read_events(engine.store.events_path)
    it2 = [e for e in events if e["type"] == "tournament" and e["iteration"] == 2]
    assert len(it2) == 3
    assert all(not e["child_valid"] for e in it2)


def test_failed_first_iteration_slot_recovers(tmp_path):
    config = RunConfig(
        population_size=2,
        workers=1,
        master_seed=2,
        max_iterations=2,
        base_probs={Op.CONTINUE: 1.0},
        floors={},
        ceilings={},
    )
    executor = ScriptedExecutor({(1, 0): 0.5, (2, 0): 0.51, (2, 1): 0.3})
    engine = EvolutionEngine.start(config, executor, tmp_path / "run")
    engine.step()
    assert engine.pool.entries[1] is None  # the failed slot stays empty
    engine.step()
    assert engine.pool.entries[1].score == 0.3  # initial replan filled it
    assert engine.pool.entries[1].origin_operator is Op.INITIAL


def test_elite_monotonicity_and_record_count(tmp_path):
    config = RunConfig(population_size=4, workers=3, master_seed=77, max_iterations=6, patience=50)
    from seedevo.executors import SimModelParams, SimulatedExecutor

    executor = SimulatedExecutor(SimModelParams(), master_seed=config.master_seed)
    engine = EvolutionEngine.start(config, executor, tmp_path / "run")
    previous = [None] * 4
    for _ in range(6):
        engine.step()
        for slot, entry in enumerate(engine.pool.entries):
            if previous[slot] is not None:
                assert not better(previous[slot].score, entry.score, HIGHER)
        previous = list(engine.pool.entries)
    events, _ = read_events(engine.store.events_path)
    for t in range(1, 7):
        rows = [e for e in events if e["type"] == "tournament" and e["iteration"] == t]
        assert len(rows) == 4
    assert len([e for e in events if e["type"] == "hedge"]) == 6
    assert len([e for e in events if e["type"] == "stopping"]) == 6


def test_run_determinism_bitwise(tmp_path):
    config = RunConfig(master_seed=21, max_iterations=3, patience=50)
    from seedevo.executors import SimModelParams, SimulatedExecutor

    logs = []
    for name in ("a", "b"):
        executor = SimulatedExecutor(SimModelParams(), master_seed=config.master_seed)
        engine = EvolutionEngine.start(config, executor, tmp_path / name)
        engine.run()
        logs.append((tmp_path / name / "events.jsonl").read_bytes())
    assert logs[0] == logs[1]


@pytest.mark.parametrize("overrides", [
    {},
    {"higher_is_better": False},
    {"base_probs": {Op.CONTINUE: 0.2, Op.ABLATION: 0.1, Op.MERGE: 0.3, Op.EDA: 0.4}},
    {"continue_parents_max": 3},
], ids=["higher", "lower", "initial-inactive", "continue-3-parents"])
def test_interrupt_resume_equivalence(tmp_path, overrides):
    config = RunConfig(population_size=3, workers=2, master_seed=2, max_iterations=6, patience=50,
                       sim_params={"failure_prob": {"initial": 0.5}}, **overrides)
    full = EvolutionEngine.start(config, build_executor(config), tmp_path / "full")
    full.run()
    uninterrupted = (tmp_path / "full" / "events.jsonl").read_bytes()

    split = EvolutionEngine.start(config, build_executor(config), tmp_path / "split")
    for _ in range(3):
        split.step()
    # the interrupted root is moved before it is resumed
    moved = (tmp_path / "split").rename(tmp_path / "moved")
    resumed = EvolutionEngine.resume(moved, build_executor(config))
    assert resumed.iteration == 3 and not resumed.stopped
    assert [e and (e.id, e.score) for e in resumed.pool.entries] == [
        e and (e.id, e.score) for e in split.pool.entries]
    assert resumed.hedge_state == split.hedge_state
    assert resumed.stopping == split.stopping
    resumed.run()
    assert (moved / "events.jsonl").read_bytes() == uninterrupted
    assert resumed.pool.best().score == full.pool.best().score
    if Op.INITIAL not in config.base_probs:
        # a merge that found no other elite ran as initial against its
        # slot's own elite before the interruption
        events, _ = read_events(moved / "events.jsonl")
        assert any(e["operator"] == "initial" and e["delta"] is not None and e["iteration"] <= 3
                   for e in events if e["type"] == "tournament")


def trace_event_log(engine: EvolutionEngine, monkeypatch) -> list[str]:
    """Record, in order, each open and each fsync of the engine's event
    log ("open", "fsync") and each checkpoint save ("checkpoint")."""
    import seedevo.engine as engine_module
    import seedevo.events as events_module

    calls: list[str] = []
    path = engine.events.path
    real_save, real_fsync = engine_module.save_checkpoint, os.fsync

    def save(target, ckpt):
        calls.append("checkpoint")
        real_save(target, ckpt)

    def fsync(fd):
        if path.exists() and os.path.samestat(os.fstat(fd), path.stat()):
            calls.append("fsync")
        real_fsync(fd)

    def log_open(file, *args, **kwargs):
        if Path(file) == path:
            calls.append("open")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(engine_module, "save_checkpoint", save)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(events_module, "open", log_open, raising=False)
    return calls


def test_event_log_synced_before_each_checkpoint(tmp_path, monkeypatch):
    config = single_slot_config(max_iterations=2, master_seed=13)
    engine = EvolutionEngine.start(config, ScriptedExecutor({(1, 0): 0.5}), tmp_path / "run")
    calls = trace_event_log(engine, monkeypatch)
    engine.run()
    assert [c for c in calls if c != "open"] == ["fsync", "checkpoint"] * 2


def test_step_writes_the_event_log_once(tmp_path, monkeypatch):
    config = RunConfig(population_size=3, workers=2, master_seed=5, max_iterations=3, patience=50)
    engine = sim_engine(config, tmp_path / "run")
    calls = trace_event_log(engine, monkeypatch)
    for _ in range(3):
        calls.clear()
        engine.step()
        # five events (three tournaments, hedge, stopping), one write
        assert calls == ["open", "fsync", "checkpoint"]
        raw = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        assert raw["event_log_offset"] == engine.events.path.stat().st_size
    events, _ = read_events(engine.events.path)
    assert len(events) == 3 * 5


def test_renamed_finished_root_resumes_as_complete(tmp_path):
    config = single_slot_config(max_iterations=3, master_seed=13)
    script = {(1, 0): 0.50, (2, 0): 0.55, (3, 0): 0.60}
    EvolutionEngine.start(config, ScriptedExecutor(script), tmp_path / "run").run()
    moved = (tmp_path / "run").rename(tmp_path / "elsewhere")
    resumed = EvolutionEngine.resume(moved, ScriptedExecutor(script))
    assert resumed.stopped and resumed.iteration == 3
    assert resumed.pool.best().path == moved / "archives" / "it0003_slot00"


def test_resume_ignores_legacy_archive_index(tmp_path):
    # older output roots carry archive_index.json with archive paths as
    # typed; resume reads each archive's manifest and never this file
    config = single_slot_config(max_iterations=4, master_seed=13)
    script = {(1, 0): 0.50, (2, 0): 0.55, (3, 0): 0.53, (4, 0): 0.60}
    full = EvolutionEngine.start(config, ScriptedExecutor(script), tmp_path / "full")
    full.run()

    old = EvolutionEngine.start(config, ScriptedExecutor(script), tmp_path / "old")
    old.step()
    old.step()
    index = tmp_path / "old" / "archive_index.json"
    stale = {"id": "it0002_slot00", "path": "gone/archives/it0002_slot00", "score": 0.0,
             "operator": "continue", "iteration": 2, "slot": 0, "parent_ids": []}
    index.write_text(json.dumps({"schema_version": 1, "archives": {"it0002_slot00": stale}}))
    before = index.read_bytes()
    resumed = EvolutionEngine.resume(tmp_path / "old", ScriptedExecutor(script))
    resumed.run()
    assert index.read_bytes() == before
    assert (tmp_path / "old" / "events.jsonl").read_bytes() == (
        tmp_path / "full" / "events.jsonl"
    ).read_bytes()


def sim_engine(config: RunConfig, root: Path) -> EvolutionEngine:
    executor = SimulatedExecutor(SimModelParams(), master_seed=config.master_seed)
    return EvolutionEngine.start(config, executor, root)


def test_checkpoint_holds_run_state_only(tmp_path):
    # the committed events are the one record of run state; the
    # checkpoint only says where they end
    config = RunConfig(population_size=2, workers=1, master_seed=3, max_iterations=2)
    engine = sim_engine(config, tmp_path / "run")
    engine.run()
    raw = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    assert raw == {"event_log_offset": engine.events.path.stat().st_size, "schema_version": 4}


def old_pool_entry(slot: int, entry: ArchiveRef | None) -> dict:
    """One pool entry as checkpoint versions 1 and 2 wrote it."""
    if entry is None:  # a slot whose first run failed: no score, no archive
        return {"slot": slot, "score": None, "archive_id": None, "origin_iteration": 1,
                "origin_operator": "initial", "parent_ids": []}
    return {"slot": slot, "score": entry.score, "archive_id": entry.id,
            "origin_iteration": entry.origin_iteration,
            "origin_operator": entry.origin_operator.value, "parent_ids": list(entry.parent_ids)}


def old_checkpoint(engine: EvolutionEngine, version: int) -> dict:
    """The checkpoint of an engine's state as versions 1 to 3 wrote it:
    a copy of the run state beside the event log offset."""
    raw = {
        "schema_version": version,
        "iteration": engine.iteration,
        "stopped": engine.stopped,
        "event_log_offset": engine.events.path.stat().st_size,
        "pool": [e and e.id for e in engine.pool.entries],
        "hedge": {"log_weights": {op.value: w for op, w in engine.hedge_state.log_weights.items()}},
        "stopping": {"best_so_far": engine.stopping.best_so_far,
                     "stagnation_count": engine.stopping.stagnation_count},
    }
    if version < 3:
        raw["pool"] = {"entries": [old_pool_entry(i, e) for i, e in enumerate(engine.pool.entries)]}
    if version == 1:
        # put back the copies of run settings a version-1 checkpoint carried
        config = engine.config
        hedge = config.hedge_config()
        raw["rng"] = {"master_seed": config.master_seed, "next_iteration": engine.iteration + 1}
        raw["hedge"]["config"] = {
            "active_tasks": [op.value for op in hedge.active_tasks],
            "base_probs": {op.value: p for op, p in hedge.base_probs.items()},
            "floors": {op.value: p for op, p in hedge.floors.items()},
            "ceilings": {op.value: p for op, p in hedge.ceilings.items()},
            "learning_rate": hedge.learning_rate,
            "clip_cap": hedge.clip_cap,
            "max_bound_iterations": 10,
        }
        raw["stopping"].update(
            threshold=config.improvement_threshold,
            patience=config.patience,
            max_iterations=config.max_iterations,
        )
        raw["pool"].update(size=config.population_size, direction={"higher_is_better": True})
    return raw


def mistype_log_weight(raw: dict) -> None:
    raw["hedge"]["log_weights"]["eda"] = "x"


def mistype_best_so_far(raw: dict) -> None:
    raw["stopping"]["best_so_far"] = "0.5"


@pytest.mark.parametrize("version,edit", [
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    pytest.param(3, None, id="3"),
    # resume reads only the offset, so a mistyped copy of the state is inert
    pytest.param(3, mistype_log_weight, id="3-log-weight-x"),
    pytest.param(3, mistype_best_so_far, id="3-best-so-far-string"),
])
def test_older_checkpoint_resumes_identically(tmp_path, version, edit):
    config = RunConfig(population_size=4, workers=2, master_seed=9, max_iterations=5, patience=50,
                       sim_params={"failure_prob": {"initial": 0.5}})
    EvolutionEngine.start(config, build_executor(config), tmp_path / "full").run()

    split = EvolutionEngine.start(config, build_executor(config), tmp_path / "old")
    split.step()
    split.step()
    assert None in split.pool.entries  # an empty slot, written as an entry without archive
    raw = old_checkpoint(split, version)
    if edit:
        edit(raw)
    (tmp_path / "old" / "checkpoint.json").write_text(json.dumps(raw))

    resumed = EvolutionEngine.resume(tmp_path / "old")
    assert resumed.iteration == 2
    assert resumed.pool.entries == split.pool.entries
    resumed.run()
    assert (tmp_path / "old" / "events.jsonl").read_bytes() == (
        tmp_path / "full" / "events.jsonl"
    ).read_bytes()


def test_jumpstart_and_eda_run_resumes_identically_after_move(tmp_path):
    # listed out of declaration order: fresh and resumed runs must both
    # sample in Operator order, whatever order the config lists and
    # run_config.json (sorted keys) holds
    config = RunConfig(
        population_size=3, workers=2, master_seed=29, max_iterations=6, patience=50,
        base_probs={Op.EDA: 0.4, Op.JUMPSTART: 0.1, Op.MERGE: 0.1, Op.CONTINUE: 0.3,
                    Op.INITIAL: 0.1},
    )
    sampling_order = (Op.INITIAL, Op.CONTINUE, Op.MERGE, Op.JUMPSTART, Op.EDA)
    full = sim_engine(config, tmp_path / "full")
    assert full.hedge_state.config.active_tasks == sampling_order
    full.run()

    split = sim_engine(config, tmp_path / "split")
    split.step()
    split.step()
    moved = (tmp_path / "split").rename(tmp_path / "moved")
    resumed = EvolutionEngine.resume(moved)
    assert resumed.iteration == 2
    assert resumed.hedge_state.config.active_tasks == sampling_order
    resumed.run()
    log = (moved / "events.jsonl").read_bytes()
    assert log == (tmp_path / "full" / "events.jsonl").read_bytes()
    events, _ = read_events(moved / "events.jsonl")
    replayed = {e["operator"] for e in events if e["type"] == "tournament" and e["iteration"] > 2}
    assert {"jumpstart", "eda"} <= replayed


def test_resume_prunes_replayed_artifacts(tmp_path):
    config = single_slot_config(max_iterations=3, master_seed=5)
    script = {(1, 0): 0.5, (2, 0): 0.6, (3, 0): 0.7}
    engine = EvolutionEngine.start(config, ScriptedExecutor(script), tmp_path / "run")
    engine.run()

    # roll the checkpoint back to iteration 1 by hand, as if the later
    # iterations had not finished cleanly
    import json

    ckpt_path = tmp_path / "run" / "checkpoint.json"
    engine2 = EvolutionEngine.start(config, ScriptedExecutor(script), tmp_path / "ref")
    engine2.step()
    ckpt_path.write_text((tmp_path / "ref" / "checkpoint.json").read_text())
    assert engine2.events.path.read_bytes() == engine.events.path.read_bytes()[
        : json.loads(ckpt_path.read_text())["event_log_offset"]]

    resumed = EvolutionEngine.resume(tmp_path / "run", ScriptedExecutor(script))
    assert resumed.iteration == 1
    ws = tmp_path / "run" / "workspaces"
    assert (ws / "iter_0001").is_dir()
    assert not (ws / "iter_0002").exists()
    assert not (tmp_path / "run" / "archives" / "it0002_slot00").exists()
    resumed.run()
    assert resumed.pool.best().score == 0.7


# -- crashes inside an iteration ----------------------------------------


class LoggingSimulatedExecutor(SimulatedExecutor):
    """The simulator, plus a logs/ tree beside the solution/ it writes,
    so archiving has both trees to move."""

    def execute(self, seed, workspace):
        (Path(workspace) / "logs").mkdir()
        (Path(workspace) / "logs" / "run.log").write_text(f"slot {seed.slot}\n")
        return super().execute(seed, workspace)


#: The calls that make a write durable or put it in place.
DURABILITY_CALLS = ("fsync", "replace", "rename")


@contextlib.contextmanager
def failing_call(k: int | None):
    """Count each os.fsync/os.replace/os.rename inside the body and raise
    OSError at the k-th (never, for None); yields the names called."""
    count = itertools.count(1)
    calls: list[str] = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            if next(count) == k:
                raise OSError(f"injected failure of {name} call {k}")
            return real(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in DURABILITY_CALLS:
            patch.setattr(os, name, counted(name, getattr(os, name)))
        yield calls


def crash_config(workers: int) -> RunConfig:
    return RunConfig(population_size=3, workers=workers, master_seed=1, max_iterations=3,
                     patience=50, num_training_runs=2,
                     sim_params={"failure_prob": {"continue": 0.4, "eda": 0.4}})


def crash_executor(config: RunConfig) -> LoggingSimulatedExecutor:
    return LoggingSimulatedExecutor(SimModelParams.from_dict(config.sim_params), config.master_seed)


def finished(root: Path) -> dict[str, bytes]:
    """What a run leaves for its reader: the log, the checkpoint and the report."""
    assert main(["report", "--output", str(root)]) == 0
    return {name: (root / name).read_bytes()
            for name in ("events.jsonl", "checkpoint.json", "report/report.json")}


def cut_and_resume(root: Path, workers: int, k: int | None) -> tuple[list[str], dict]:
    """Run iteration 1, fail the k-th durability call of iteration 2,
    then finish the run from a fresh engine; the calls iteration 2 made
    and what the finished root holds."""
    config = crash_config(workers)
    engine = EvolutionEngine.start(config, crash_executor(config), root)
    engine.step()
    with failing_call(k) as calls:
        if k is None:
            engine.step()
        else:
            with pytest.raises(OSError, match="injected"):
                engine.step()
    EvolutionEngine.resume(root, crash_executor(config)).run()
    return calls, finished(root)


def test_crash_at_any_durability_call_of_an_iteration_resumes_identically(tmp_path, capsys):
    config = crash_config(workers=1)
    EvolutionEngine.start(config, crash_executor(config), tmp_path / "full").run()
    expected = finished(tmp_path / "full")
    calls, _ = cut_and_resume(tmp_path / "clean", 1, None)
    # iteration 2 archives at least one verified child and leaves one invalid
    events, _ = read_events(tmp_path / "full" / "events.jsonl")
    valid = [e["child_valid"] for e in events if e["type"] == "tournament" and e["iteration"] == 2]
    assert True in valid and False in valid
    assert calls.count("rename") == 2 * valid.count(True)
    for k in range(1, len(calls) + 1):
        _, got = cut_and_resume(tmp_path / f"cut_{k}", 1, k)
        assert got == expected, f"crash at call {k} ({calls[k - 1]})"


def test_crash_with_parallel_workers_resumes_identically(tmp_path, capsys):
    config = crash_config(workers=3)
    EvolutionEngine.start(config, crash_executor(config), tmp_path / "full").run()
    calls, _ = cut_and_resume(tmp_path / "clean", 3, None)
    k = calls.index("rename") + 1
    _, got = cut_and_resume(tmp_path / "cut", 3, k)
    assert got == finished(tmp_path / "full")


def test_engine_survives_executor_exception(tmp_path):
    class ExplodingExecutor:
        def execute(self, seed, workspace):
            if seed.context_params["iteration"] == 2:
                raise RuntimeError("transport down")
            return ScriptedExecutor({(1, 0): 0.5}).execute(seed, workspace)

    config = single_slot_config(max_iterations=2, master_seed=1)
    engine = EvolutionEngine.start(config, ExplodingExecutor(), tmp_path / "run")
    engine.run()
    assert engine.pool.best().score == 0.5
    events, _ = read_events(engine.store.events_path)
    it2 = [e for e in events if e["type"] == "tournament" and e["iteration"] == 2]
    assert len(it2) == 1 and not it2[0]["child_valid"]


def test_stopping_event_matches_stagnation(tmp_path):
    config = single_slot_config(max_iterations=8, patience=3, master_seed=6)
    script = {(1, 0): 0.5, (2, 0): 0.5, (3, 0): 0.5, (4, 0): 0.5}
    engine = EvolutionEngine.start(config, ScriptedExecutor(script), tmp_path / "run")
    engine.run()
    # iteration 1 improves from nothing; 2..4 stagnate; patience 3 stops at 4
    assert engine.iteration == 4
    events, _ = read_events(engine.store.events_path)
    stops = [e for e in events if e["type"] == "stopping"]
    assert [e["stagnation"] for e in stops] == [0, 1, 2, 3]
    assert [e["stop"] for e in stops] == [False, False, False, True]


def test_record_to_event_shape():
    incumbent = make_ref("p", 0.5, 1)
    child = make_ref("x", 0.6, 1, Op.EDA, 2, ("p",))
    _, event = resolve_tournament(
        child, incumbent, HIGHER, iteration=2, operator=Op.EDA, parent_ids=("p",), slot=1,
    )
    assert set(event) == {
        "type", "iteration", "slot", "operator", "parent_score", "child_score", "delta",
        "child_won", "child_valid", "child_id", "parent_ids",
    }
    assert event["type"] == "tournament"
    assert event["operator"] == "eda" and type(event["operator"]) is str
    assert event["parent_ids"] == ["p"]
    assert event["child_id"] == "x" and event["iteration"] == 2 and event["slot"] == 1
    assert math.isclose(event["delta"], 0.1)
