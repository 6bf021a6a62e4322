"""Online operator allocation via exponential weights.

Keeps one log-weight per active operator.  Sampling probabilities are
the softmax of the log-weights pushed back inside per-operator floor
and ceiling bounds.  After an iteration, operators are ranked by their
mean observed improvement and rewarded on a [-1, +1] scale, with
clipped importance weighting so rarely sampled operators are not
over-credited.

All arithmetic is plain float over small dicts; determinism matters
more here than throughput.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigurationError
from .operators import Operator

#: Convergence tolerance for the bounds-enforcement fixed point.
_STABLE_EPS = 1e-12

#: Most ceiling-then-floor sweeps enforce_bounds makes.
BOUND_SWEEPS = 10


@dataclass(frozen=True)
class HedgeConfig:
    """Static allocation parameters; construct through build().

    active_tasks holds the sampling order, which is Operator declaration
    order.  Operators configured with base probability zero are excluded
    up front and never sampled, ranked, or updated.
    """

    active_tasks: tuple[Operator, ...]
    base_probs: dict[Operator, float]
    floors: dict[Operator, float]
    ceilings: dict[Operator, float]
    learning_rate: float
    clip_cap: float

    @classmethod
    def build(
        cls,
        base_probs: dict[Operator, float],
        floors: dict[Operator, float] | None = None,
        ceilings: dict[Operator, float] | None = None,
        learning_rate: float = 0.15,
        clip_cap: float = 4.0,
    ) -> "HedgeConfig":
        """Validate raw maps and drop zero-probability operators.

        The order of base_probs is ignored, so a config read back from
        run_config.json (whose keys are sorted) samples exactly like
        the config that wrote it.
        """
        for op, p in base_probs.items():
            if p < 0.0 or not math.isfinite(p):
                raise ConfigurationError(f"base_probs[{op}]", f"must be finite and >= 0, got {p}")
        active = tuple(op for op in Operator if base_probs.get(op, 0.0) > 0.0)
        if not active:
            raise ConfigurationError("base_probs", "no operator has positive probability")
        total = sum(base_probs[op] for op in active)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                "base_probs", f"must sum to 1 over active operators, got {total!r}"
            )
        floors = dict(floors or {})
        ceilings = dict(ceilings or {})
        floor_sum = sum(floors.get(op, 0.0) for op in active)
        if floor_sum > 1.0 + 1e-9:
            raise ConfigurationError("floors", f"floors over active operators sum to {floor_sum}")
        ceiling_sum = sum(ceilings.get(op, math.inf) for op in active)
        if ceiling_sum < 1.0 - 1e-9:
            raise ConfigurationError("ceilings", f"active ceilings sum to {ceiling_sum}; must be >= 1")
        for op in active:
            lo = floors.get(op, 0.0)
            hi = ceilings.get(op)
            if lo < 0.0:
                raise ConfigurationError(f"floors[{op}]", f"must be >= 0, got {lo}")
            if hi is not None and hi < lo:
                raise ConfigurationError(f"ceilings[{op}]", f"ceiling {hi} below floor {lo}")
        if learning_rate <= 0.0:
            raise ConfigurationError("learning_rate", f"must be > 0, got {learning_rate}")
        if clip_cap < 1.0:
            raise ConfigurationError("clip_cap", f"must be >= 1, got {clip_cap}")
        return cls(
            active_tasks=active,
            base_probs={op: base_probs[op] for op in active},
            floors={op: floors[op] for op in floors if op in active},
            ceilings={op: ceilings[op] for op in ceilings if op in active},
            learning_rate=learning_rate,
            clip_cap=clip_cap,
        )


@dataclass(frozen=True)
class HedgeState:
    """Immutable allocation snapshot: config plus current log-weights."""

    config: HedgeConfig
    log_weights: dict[Operator, float]


@dataclass(frozen=True)
class ObservedGain:
    """One valid child's direction-aware improvement over its elite parent."""

    operator: Operator
    delta: float


def new_state(config: HedgeConfig) -> HedgeState:
    """Initial log-weights are log base probability, so the first softmax
    reproduces the configured base distribution exactly."""
    return HedgeState(
        config=config,
        log_weights={op: math.log(config.base_probs[op]) for op in config.active_tasks},
    )


def enforce_bounds(
    probs: dict[Operator, float],
    floors: dict[Operator, float],
    ceilings: dict[Operator, float],
) -> dict[Operator, float]:
    """Push a probability vector inside per-operator box bounds.

    Each sweep runs two passes.  The ceiling pass caps violators and
    hands their excess to below-ceiling operators in proportion to
    current probability (zero-probability operators receive nothing).
    The floor pass lifts violators and takes the deficit from
    above-floor operators in proportion to their surplus, never pushing
    a donor below its own floor.  Sweeps repeat until nothing moves or
    BOUND_SWEEPS is reached, then the vector is renormalized.
    """
    ops = list(probs)
    p = dict(probs)
    for _ in range(BOUND_SWEEPS):
        moved = False

        over = [k for k in ops if k in ceilings and p[k] > ceilings[k] + _STABLE_EPS]
        if over:
            excess = 0.0
            for k in over:
                excess += p[k] - ceilings[k]
                p[k] = ceilings[k]
            receivers = [k for k in ops if ceilings.get(k) is None or p[k] < ceilings[k]]
            mass = sum(p[k] for k in receivers)
            if mass > 0.0:
                for k in receivers:
                    p[k] += excess * p[k] / mass
            moved = True

        under = [k for k in ops if p[k] < floors.get(k, 0.0) - _STABLE_EPS]
        if under:
            deficit = 0.0
            for k in under:
                deficit += floors[k] - p[k]
                p[k] = floors[k]
            donors = [k for k in ops if p[k] > floors.get(k, 0.0)]
            surplus = {k: p[k] - floors.get(k, 0.0) for k in donors}
            total_surplus = sum(surplus.values())
            if total_surplus > 0.0:
                take = min(deficit, total_surplus)
                for k in donors:
                    p[k] -= take * surplus[k] / total_surplus
            moved = True

        if not moved:
            break

    total = sum(p.values())
    if total > 0.0:
        for k in ops:
            p[k] /= total
    return p


def sampling_probabilities(state: HedgeState) -> dict[Operator, float]:
    """Softmax of the log-weights, then bounds enforcement.

    The bounded vector is what both the sampler and the importance
    weighting in apply_update see.
    """
    cfg = state.config
    peak = max(state.log_weights[op] for op in cfg.active_tasks)
    expw = {op: math.exp(state.log_weights[op] - peak) for op in cfg.active_tasks}
    z = sum(expw.values())
    probs = {op: expw[op] / z for op in cfg.active_tasks}
    return enforce_bounds(probs, cfg.floors, cfg.ceilings)


def sample_task(state: HedgeState, rng: random.Random) -> Operator:
    """Draw one operator from the bounded sampling distribution."""
    probs = sampling_probabilities(state)
    u = rng.random()
    cum = 0.0
    for op in state.config.active_tasks:
        cum += probs[op]
        if u < cum:
            return op
    return state.config.active_tasks[-1]


def aggregate_gains(gains: list[ObservedGain]) -> dict[Operator, float]:
    """Mean observed improvement per operator; only sampled operators appear."""
    sums: dict[Operator, float] = {}
    counts: dict[Operator, int] = {}
    for g in gains:
        sums[g.operator] = sums.get(g.operator, 0.0) + g.delta
        counts[g.operator] = counts.get(g.operator, 0) + 1
    return {op: sums[op] / counts[op] for op in sums}


def rank_rewards(means: dict[Operator, float]) -> dict[Operator, float] | None:
    """Map per-operator means to rank rewards spanning [-1, +1].

    The worst mean gets -1, the best +1, intermediates evenly spaced:
    r = 2 * rank / (count - 1) - 1 with ranks ascending by mean.  Ties
    break lexicographically on the operator identifier so the ordering
    is total and deterministic.  Returns None when fewer than two
    operators were observed; the caller must skip the update.
    """
    if len(means) < 2:
        return None
    ordered = sorted(means, key=lambda op: (means[op], op.value))
    span = len(ordered) - 1
    return {op: 2.0 * i / span - 1.0 for i, op in enumerate(ordered)}


def apply_update(state: HedgeState, gains: list[ObservedGain]) -> HedgeState:
    """Fold one iteration's observed gains into the log-weights.

    Rewards are importance-weighted by the bounded pre-update sampling
    probability, clipped at the configured cap, and scaled by the
    learning rate.  Operators absent from the gains keep their weight.
    Fewer than two observed operators leaves the state untouched.
    """
    cfg = state.config
    for g in gains:
        if g.operator not in cfg.base_probs:
            raise ValueError(f"gain for inactive operator {g.operator!r}")
    means = aggregate_gains(gains)
    rewards = rank_rewards(means)
    if rewards is None:
        return state
    probs = sampling_probabilities(state)
    new_weights = dict(state.log_weights)
    for op, r in rewards.items():
        clipped = r * min(1.0 / probs[op], cfg.clip_cap)
        new_weights[op] += cfg.learning_rate * clipped
    peak = max(new_weights[op] for op in cfg.active_tasks)
    for op in cfg.active_tasks:
        new_weights[op] -= peak
    return HedgeState(config=cfg, log_weights=new_weights)
