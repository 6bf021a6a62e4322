"""Shared fixtures and test doubles."""

from __future__ import annotations

from hypothesis import settings

from seedevo.config import RunConfig
from seedevo.executors import ExperimentRecord, RunOutcome
from seedevo.operators import Operator

# Property tests draw the same examples on every machine: derandomize
# seeds the draws from each test itself (and turns off the local example
# database), and with no deadline a slow host cannot fail an example on
# time alone.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class ScriptedExecutor:
    """Replays outcomes from a fixed (iteration, slot) -> score table.

    A score of None, or a missing entry, makes that run fail
    verification.  Calls are logged so tests can check what was
    dispatched.
    """

    def __init__(self, script: dict[tuple[int, int], float | None]):
        self.script = dict(script)
        self.calls: list[tuple[int, int, str]] = []

    def execute(self, seed, workspace):
        iteration = seed.context_params["iteration"]
        self.calls.append((iteration, seed.slot, seed.operator.value))
        score = self.script.get((iteration, seed.slot))
        if score is None:
            return RunOutcome.failure(scripted="no result for this slot")
        return RunOutcome(
            score=score,
            experiments=(ExperimentRecord(run_name="run_1", score=score),),
            verified=True,
        )


def single_slot_config(**overrides) -> RunConfig:
    """One slot, one worker, continue-only sampling after iteration 1."""
    base = dict(
        population_size=1,
        workers=1,
        base_probs={Operator.CONTINUE: 1.0},
        floors={},
        ceilings={},
    )
    base.update(overrides)
    return RunConfig(**base)


def word_head_summarizer(fraction: float):
    """Keep the leading fraction of whitespace-separated words."""

    def summarize(text: str) -> str:
        words = text.split()
        return " ".join(words[: max(1, int(len(words) * fraction))])

    return summarize
