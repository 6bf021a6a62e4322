"""Evolutionary orchestration over seeded agent runs.

A population of independent runs evolves per iteration: each slot is
seeded with a task operator and inherited parent archives, executed in
isolation, and admitted through a 1:1 tournament against the slot's
previous elite.  Operator selection adapts online via bounded
exponential weights over observed improvements.
"""

from .config import RunConfig, load_config
from .engine import (
    AgentSeed,
    EliteEntry,
    ElitePool,
    EvolutionEngine,
    StoppingState,
    TournamentRecord,
)
from .executors import (
    ExperimentRecord,
    ExternalCommandExecutor,
    RunOutcome,
    SimModelParams,
    SimulatedExecutor,
)
from .hedge import HedgeConfig, HedgeState, ObservedGain
from .operators import Operator
from .scoring import MetricDirection, better, improvement
from .workspace import ArchiveRef, Checkpoint, CurationRules

__version__ = "0.1.0"

__all__ = [
    "AgentSeed",
    "ArchiveRef",
    "Checkpoint",
    "CurationRules",
    "EliteEntry",
    "ElitePool",
    "EvolutionEngine",
    "ExperimentRecord",
    "ExternalCommandExecutor",
    "HedgeConfig",
    "HedgeState",
    "MetricDirection",
    "ObservedGain",
    "Operator",
    "RunConfig",
    "RunOutcome",
    "SimModelParams",
    "SimulatedExecutor",
    "StoppingState",
    "TournamentRecord",
    "better",
    "improvement",
    "load_config",
]
