"""Iteration loop: plan seeds, dispatch runs, settle tournaments.

Each iteration snapshots the elite pool, plans one seed per slot
(operator sampled from the allocator, parents selected from the
snapshot), and dispatches all slots in parallel; each worker archives
its own verified child.  At the barrier each child meets the previous
elite of its own slot in a 1:1 tournament, and only a strictly better
child replaces the incumbent.  Observed improvements feed the
allocator; the best pool score feeds the stopping rule; the
iteration's events go to the log in one durable append, and a
checkpoint recording the log's end offset, its commit point, follows.

A run's settings live only in run_config.json, an elite only in its
archive's manifest, and the run state only in the committed events.
An iteration's events follow from the config and the archives it left
(only verified children are archived), so resuming settles each
committed iteration again through the same path as step(), and the
committed log must be exactly what that writes, under the
run_config.json it was written under.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import hedge as hedgemod
from .config import RunConfig
from .errors import ConfigurationError, CorruptStateError, SeedevoError
from .events import EventLog, encode_event
from .executors import build_executor
from .hedge import HedgeState, ObservedGain
from .operators import Operator
from .rng import derive_rng
from .scoring import MetricDirection, better, improvement
from .workspace import (
    AgentSeed,
    ArchiveRef,
    CurationRules,
    RunStore,
    load_checkpoint,
    materialize_seed,
    save_checkpoint,
)

if TYPE_CHECKING:
    import random

logger = logging.getLogger(__name__)


class ElitePool:
    """One elite archive per slot; None until a verified run fills it."""

    def __init__(self, size: int, direction: MetricDirection):
        self.direction = direction
        self.entries: list[ArchiveRef | None] = [None] * size

    def best(self) -> ArchiveRef | None:
        """Best entry under the pool direction; earliest slot wins ties."""
        top: ArchiveRef | None = None
        for entry in filter(None, self.entries):
            if top is None or better(entry.score, top.score, self.direction):
                top = entry
        return top


@dataclass(frozen=True)
class StoppingState:
    """Best-so-far tracker with a stagnation budget."""

    threshold: float
    patience: int
    max_iterations: int
    best_so_far: float | None = None
    stagnation_count: int = 0


def update_stopping(
    state: StoppingState,
    iteration_best: float | None,
    iteration: int,
    direction: MetricDirection,
) -> tuple[StoppingState, bool]:
    """Advance the stopping tracker after one iteration.

    The best-so-far only moves on a strict improvement above the
    threshold; anything else counts one stagnation.  Returns the new
    state and whether to stop (stagnation reached patience, or the
    iteration budget is spent).
    """
    if iteration_best is None:
        new = replace(state, stagnation_count=state.stagnation_count + 1)
    elif state.best_so_far is None:
        new = replace(state, best_so_far=iteration_best, stagnation_count=0)
    else:
        gain = improvement(iteration_best, state.best_so_far, direction)
        if gain > state.threshold:
            new = replace(state, best_so_far=iteration_best, stagnation_count=0)
        else:
            new = replace(state, stagnation_count=state.stagnation_count + 1)
    stop = new.stagnation_count >= state.patience or iteration >= state.max_iterations
    return new, stop


def select_parents(
    operator: Operator,
    pool_entries: list[ArchiveRef | None],
    slot: int,
    rng: "random.Random",
    continue_max_parents: int = 1,
) -> list[ArchiveRef] | None:
    """Pick parent elites for one seed, or None when the operator has
    nothing to build on: the slot has no elite yet, or a merge finds no
    elite in any other slot.

    The slot's own elite always comes first.  Merge adds one distinct
    elite drawn uniformly from the other slots; continue adds
    (max_parents - 1) distinct random elites, capped by availability.
    """
    if operator is Operator.INITIAL:
        return []
    own = pool_entries[slot]
    if own is None:
        return None
    parents = [own]
    others = [e for e in pool_entries if e is not None and e.slot != slot]
    if operator is Operator.MERGE:
        if not others:
            return None
        parents.append(others[rng.randrange(len(others))])
    elif operator is Operator.CONTINUE:
        extra = min(continue_max_parents - 1, len(others))
        if extra > 0:
            parents.extend(rng.sample(others, extra))
    return parents


def plan_iteration(
    pool_entries: list[ArchiveRef | None],
    hedge_state: HedgeState,
    iteration: int,
    config: RunConfig,
) -> list[AgentSeed]:
    """Build one seed per slot for the coming iteration.

    Each slot samples an operator from the allocator, using a random
    stream derived from (master seed, iteration, slot) so the plan is
    independent of scheduling and resume points.  A slot with no elite
    yet replans as initial, as does a merge that finds no elite in any
    other slot; so iteration 1, with an empty pool, is all initial.
    """
    context = {"num_training_runs": config.num_training_runs, "iteration": iteration}
    seeds = []
    for slot in range(config.population_size):
        rng = derive_rng(config.master_seed, "plan", iteration, slot)
        op = hedgemod.sample_task(hedge_state, rng)
        parents = select_parents(op, pool_entries, slot, rng, config.continue_parents_max)
        if parents is None:
            op, parents = Operator.INITIAL, []
        seeds.append(AgentSeed(op, slot, tuple(parents), dict(context)))
    return seeds


def resolve_tournament(
    candidate: ArchiveRef | None,
    incumbent: ArchiveRef | None,
    direction: MetricDirection,
    *,
    iteration: int,
    operator: Operator,
    parent_ids: tuple[str, ...] = (),
    slot: int,
) -> tuple[ArchiveRef | None, dict]:
    """Settle one slot: candidate child vs the previous elite.  Returns
    the slot's elite and the tournament event that records the contest.

    candidate None means the child run produced nothing verifiable; it
    cannot win.  A slot with no incumbent takes any valid child, and an
    invalid child leaves it empty.  Otherwise the child must be strictly
    better; ties keep the incumbent.
    """
    child_valid = candidate is not None
    child_score = candidate.score if child_valid else None
    if incumbent is None:
        parent_score = delta = None
        won = child_valid
    else:
        parent_score = incumbent.score
        delta = improvement(child_score, parent_score, direction) if child_valid else None
        won = child_valid and better(child_score, parent_score, direction)
    winner = candidate if won else incumbent

    event = {
        "type": "tournament",
        "iteration": iteration,
        "slot": slot,
        "operator": operator.value,
        "parent_score": parent_score,
        "child_score": child_score,
        "delta": delta,
        "child_won": won,
        "child_valid": child_valid,
        "child_id": candidate.id if child_valid else None,
        "parent_ids": list(parent_ids),
    }
    return winner, event


def _require_data_source(config: RunConfig) -> None:
    """Refuse missing task data before a run or resume writes anything."""
    if config.data_path and not Path(config.data_path).exists():
        base = "" if Path(config.data_path).is_absolute() else f" (relative to {Path.cwd()})"
        raise ConfigurationError("data_path", f"data source missing: {config.data_path}{base}")


class EvolutionEngine:
    """Drives a run end to end over a persistent store.

    Construct through start() for a fresh output root or resume() to
    continue from the last checkpoint.  step() executes one iteration
    and persists; run() loops until the stopping rule fires.
    """

    def __init__(self, config: RunConfig, executor, store: RunStore, event_log: EventLog):
        """State as before iteration 1, built from the config alone."""
        self.config = config
        self.executor = executor
        self.store = store
        self.events = event_log
        self.pool = ElitePool(config.population_size, MetricDirection(config.higher_is_better))
        self.hedge_state = hedgemod.new_state(config.hedge_config())
        self.stopping = StoppingState(
            threshold=config.improvement_threshold,
            patience=config.patience,
            max_iterations=config.max_iterations,
        )
        self.iteration = 0  # last completed iteration
        self.stopped = False

    @classmethod
    def start(cls, config: RunConfig, executor, output_root: Path) -> "EvolutionEngine":
        config.validate()
        _require_data_source(config)
        store = RunStore.create(Path(output_root))
        store.write_config(config.to_dict())
        return cls(config, executor, store, EventLog(store.events_path))

    @classmethod
    def resume(cls, output_root: Path, executor=None) -> "EvolutionEngine":
        """Continue a run from its commit point: settle the committed
        iterations again over the state built from run_config.json, then
        drop the work done after them.  A corrupt root raises
        CorruptStateError before anything in it changes."""
        store = RunStore.open(Path(output_root))
        try:
            config = RunConfig.from_dict(store.read_config())
            config.validate()
            if executor is None:
                executor = build_executor(config)
        except ConfigurationError as exc:
            raise CorruptStateError(f"run_config.json: {exc}") from exc
        offset = load_checkpoint(store.checkpoint_path)
        if offset is None:
            raise CorruptStateError("no checkpoint found; nothing to resume")
        _require_data_source(config)
        engine = cls(config, executor, store, EventLog(store.events_path))
        engine._settle_again(engine.events.committed(offset))
        store.prune_after_iteration(engine.iteration)
        engine.events.truncate_to(offset)
        return engine

    def _settle_again(self, lines: list[bytes]) -> None:
        """Settle each committed iteration as step() did: plan it from the
        state so far, take each slot's archive as its candidate, and
        require the events to be the committed lines byte for byte."""
        size = self.config.population_size
        iterations, rest = divmod(len(lines), size + 2)
        if rest or not lines:
            raise CorruptStateError(f"event log: committed events end inside iteration "
                                    f"{iterations + 1} (population_size is {size})")
        for t in range(1, iterations + 1):
            seeds = plan_iteration(self.pool.entries, self.hedge_state, t, self.config)
            candidates = [self.store.archived(t, slot) for slot in range(size)]
            first = (t - 1) * (size + 2)
            for number, event in enumerate(self._settle(seeds, candidates, t), first + 1):
                try:
                    same = encode_event(event) == lines[number - 1]
                except SeedevoError:  # NaN: an event the run could not have committed
                    same = False
                if not same:
                    raise CorruptStateError(
                        f"event log line {number} is not what iteration {t} settles to")

    # -- one iteration ------------------------------------------------

    def step(self) -> bool:
        """Run one iteration; returns True when the run should stop."""
        if self.stopped:
            return True
        t = self.iteration + 1
        seeds = plan_iteration(self.pool.entries, self.hedge_state, t, self.config)
        events = self._settle(seeds, self._dispatch(seeds, t), t)
        save_checkpoint(self.store.checkpoint_path, self.events.append(*events))
        return self.stopped

    def _settle(self, seeds: list[AgentSeed], candidates: list[ArchiveRef | None],
                t: int) -> list[dict]:
        """Settle iteration t: each slot's candidate (None for a child
        with nothing verified) meets its elite, the allocator takes the
        iteration's gains after the first, and the stopping rule the
        best pool score.  Returns the iteration's events in log order."""
        tournaments: list[dict] = []
        direction = self.pool.direction
        for seed, candidate in zip(seeds, candidates):
            winner, event = resolve_tournament(
                candidate,
                self.pool.entries[seed.slot],
                direction,
                iteration=t,
                operator=seed.operator,
                parent_ids=tuple(p.id for p in seed.parents),
                slot=seed.slot,
            )
            self.pool.entries[seed.slot] = winner
            tournaments.append(event)

        if t > 1:
            # a merge replanned as initial measures a gain for initial,
            # which counts only where the allocator tracks it
            active = self.hedge_state.config.active_tasks
            gains = [ObservedGain(seed.operator, e["delta"]) for seed, e in zip(seeds, tournaments)
                     if e["delta"] is not None and seed.operator in active]
            self.hedge_state = hedgemod.apply_update(self.hedge_state, gains)

        best = self.pool.best()
        iteration_best = best.score if best else None
        self.stopping, self.stopped = update_stopping(self.stopping, iteration_best, t, direction)
        self.iteration = t
        probs = hedgemod.sampling_probabilities(self.hedge_state)
        return [
            *tournaments,
            {
                "type": "hedge",
                "iteration": t,
                "probabilities": {op.value: p for op, p in probs.items()},
            },
            {
                "type": "stopping",
                "iteration": t,
                "iteration_best": iteration_best,
                "best_so_far": self.stopping.best_so_far,
                "stagnation": self.stopping.stagnation_count,
                "stop": self.stopped,
            },
        ]

    def run(self) -> ArchiveRef | None:
        """Loop step() to completion and return the best elite."""
        while not self.stopped:
            self.step()
        return self.pool.best()

    # -- internals ----------------------------------------------------

    def _dispatch(self, seeds: list[AgentSeed], iteration: int) -> list[ArchiveRef | None]:
        """Materialize, execute and archive every slot, workers in
        parallel.

        Candidates come back in slot order.  Executor failures of any
        kind are contained to their slot as an invalid child.
        """
        rules = CurationRules(
            max_file_bytes=self.config.max_file_bytes,
            excluded_globs=tuple(self.config.excluded_globs),
        )
        data_source = Path(self.config.data_path) if self.config.data_path else None

        def run_slot(seed: AgentSeed):
            workspace = self.store.workspace_path(iteration, seed.slot)
            materialize_seed(
                seed,
                workspace,
                data_source=data_source,
                provisioning=self.config.data_provisioning,
                rules=rules,
            )
            try:
                outcome = self.executor.execute(seed, workspace)
            except Exception as exc:  # transport failure: invalid child, not a crash
                logger.warning("slot %d executor failure: %s", seed.slot, exc)
                return None
            return self._admit(seed, outcome, iteration)

        with ThreadPoolExecutor(max_workers=self.config.workers) as tpe:
            return list(tpe.map(run_slot, seeds))

    def _admit(self, seed: AgentSeed, outcome, iteration: int) -> ArchiveRef | None:
        """Archive a verified outcome as the slot's candidate elite."""
        if outcome is None or not outcome.verified:  # a verified score is finite
            return None
        return self.store.archive_run(
            outcome=outcome,
            operator=seed.operator,
            parent_ids=[p.id for p in seed.parents],
            iteration=iteration,
            slot=seed.slot,
        )
