"""Allocator unit tests: frozen golden values, invariants, and cross
checks against the independent oracles."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bounds_oracle, rank_rewards_oracle, softmax_oracle
from seedevo.errors import ConfigurationError
from seedevo.hedge import (
    HedgeConfig,
    HedgeState,
    ObservedGain,
    aggregate_gains,
    apply_update,
    enforce_bounds,
    new_state,
    rank_rewards,
    sample_task,
    sampling_probabilities,
)
from seedevo.operators import Operator as Op
from seedevo.rng import derive_rng

PAPER_FLOORS = {Op.INITIAL: 0.05, Op.CONTINUE: 0.10, Op.ABLATION: 0.05, Op.MERGE: 0.05, Op.EDA: 0.05}
PAPER_CEILINGS = {Op.MERGE: 0.30}


def two_op_state(w_a: float, w_b: float) -> HedgeState:
    config = HedgeConfig.build({Op.CONTINUE: 0.5, Op.EDA: 0.5})
    return HedgeState(config=config, log_weights={Op.CONTINUE: w_a, Op.EDA: w_b})


# -- config construction ---------------------------------------------


def test_zero_probability_operators_are_excluded():
    config = HedgeConfig.build({Op.INITIAL: 0.4, Op.CONTINUE: 0.6, Op.JUMPSTART: 0.0})
    assert Op.JUMPSTART not in config.active_tasks
    assert set(config.active_tasks) == {Op.INITIAL, Op.CONTINUE}
    assert Op.JUMPSTART not in config.base_probs


def test_base_probs_must_sum_to_one():
    with pytest.raises(ConfigurationError):
        HedgeConfig.build({Op.INITIAL: 0.5, Op.CONTINUE: 0.6})


def test_all_zero_probs_rejected():
    with pytest.raises(ConfigurationError):
        HedgeConfig.build({Op.INITIAL: 0.0, Op.CONTINUE: 0.0})


def test_negative_prob_rejected():
    with pytest.raises(ConfigurationError):
        HedgeConfig.build({Op.INITIAL: -0.2, Op.CONTINUE: 1.2})


def test_infeasible_floors_rejected():
    with pytest.raises(ConfigurationError):
        HedgeConfig.build(
            {Op.INITIAL: 0.5, Op.CONTINUE: 0.5},
            floors={Op.INITIAL: 0.7, Op.CONTINUE: 0.7},
        )


def test_ceiling_below_floor_rejected():
    with pytest.raises(ConfigurationError):
        HedgeConfig.build(
            {Op.INITIAL: 0.5, Op.CONTINUE: 0.5},
            floors={Op.CONTINUE: 0.3},
            ceilings={Op.CONTINUE: 0.2},
        )


def test_learning_rate_and_clip_validation():
    with pytest.raises(ConfigurationError):
        HedgeConfig.build({Op.INITIAL: 1.0}, learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        HedgeConfig.build({Op.INITIAL: 1.0}, clip_cap=0.5)


# -- initial distribution and softmax --------------------------------


def test_initial_sampling_matches_base_probs():
    """Log-weights start at log base prob, so the first distribution is
    the configured one."""
    config = HedgeConfig.build(
        {Op.INITIAL: 0.1, Op.CONTINUE: 0.2, Op.ABLATION: 0.1, Op.MERGE: 0.1, Op.EDA: 0.5},
        floors=PAPER_FLOORS,
        ceilings=PAPER_CEILINGS,
    )
    probs = sampling_probabilities(new_state(config))
    for op, expected in config.base_probs.items():
        assert probs[op] == pytest.approx(expected, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


def test_softmax_golden_two_weights():
    # frozen from the oracle: softmax([0.3, 0.0])
    probs = sampling_probabilities(two_op_state(0.3, 0.0))
    assert probs[Op.CONTINUE] == pytest.approx(0.574442516811659, abs=1e-15)
    assert probs[Op.EDA] == pytest.approx(0.425557483188341, abs=1e-15)
    oracle = softmax_oracle([0.3, 0.0])
    assert probs[Op.CONTINUE] == pytest.approx(oracle[0], abs=1e-15)
    assert probs[Op.EDA] == pytest.approx(oracle[1], abs=1e-15)


def test_softmax_shift_invariance():
    shifted = sampling_probabilities(two_op_state(100.3, 100.0))
    base = sampling_probabilities(two_op_state(0.3, 0.0))
    assert shifted[Op.CONTINUE] == pytest.approx(base[Op.CONTINUE], abs=1e-12)


# -- bounds enforcement ----------------------------------------------


def test_bounds_identity_when_already_feasible():
    probs = {Op.INITIAL: 0.1, Op.CONTINUE: 0.2, Op.ABLATION: 0.1, Op.MERGE: 0.1, Op.EDA: 0.5}
    out = enforce_bounds(probs, PAPER_FLOORS, PAPER_CEILINGS)
    assert out == probs


def test_bounds_golden_ceiling_then_floor():
    """Canonical projection: merge capped first, then the floor pass
    taxes every above-floor operator, merge included."""
    probs = {Op.INITIAL: 0.0, Op.CONTINUE: 0.3, Op.ABLATION: 0.0, Op.MERGE: 0.5, Op.EDA: 0.2}
    out = enforce_bounds(probs, PAPER_FLOORS, PAPER_CEILINGS)
    assert out[Op.INITIAL] == 0.05
    assert out[Op.ABLATION] == 0.05
    assert out[Op.CONTINUE] == 0.38
    assert out[Op.MERGE] == 0.26875
    assert out[Op.EDA] == 0.25125000000000003
    assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)
    assert out[Op.MERGE] <= PAPER_CEILINGS[Op.MERGE]
    for op, floor in PAPER_FLOORS.items():
        assert out[op] >= floor


def test_bounds_golden_floor_lift():
    probs = {Op.CONTINUE: 0.05, Op.MERGE: 0.5, Op.EDA: 0.45}
    floors = {Op.CONTINUE: 0.10, Op.MERGE: 0.05, Op.EDA: 0.05}
    out = enforce_bounds(probs, floors, {Op.MERGE: 0.30})
    assert out[Op.CONTINUE] == 0.1
    assert out[Op.MERGE] == 0.29096385542168673
    assert out[Op.EDA] == 0.6090361445783132


def test_bounds_zero_mass_receives_nothing_in_ceiling_pass():
    """Excess redistributes proportionally to current probability, so a
    zero-probability operator is lifted only by its floor."""
    probs = {Op.INITIAL: 0.0, Op.MERGE: 0.6, Op.EDA: 0.4}
    out = enforce_bounds(probs, {}, {Op.MERGE: 0.30})
    assert out[Op.INITIAL] == 0.0
    assert out[Op.MERGE] == pytest.approx(0.30, abs=1e-12)
    assert out[Op.EDA] == pytest.approx(0.70, abs=1e-12)


def test_bounds_random_cases_match_oracle():
    rng = random.Random(417)
    ops = [Op.INITIAL, Op.CONTINUE, Op.ABLATION, Op.MERGE, Op.EDA]
    floors = [PAPER_FLOORS[op] for op in ops]
    ceilings = [PAPER_CEILINGS.get(op) for op in ops]
    for _ in range(50):
        raw = [rng.expovariate(1.0) for _ in ops]
        total = sum(raw)
        point = [x / total for x in raw]
        expected, sweeps = bounds_oracle(point, floors, ceilings)
        got = enforce_bounds(
            dict(zip(ops, point)), PAPER_FLOORS, PAPER_CEILINGS
        )
        assert sweeps <= 10
        for op, want in zip(ops, expected):
            assert got[op] == pytest.approx(want, abs=1e-12)


# -- rank rewards ----------------------------------------------------


def test_rank_rewards_golden_three_operators():
    means = {Op.CONTINUE: 0.02, Op.EDA: -0.01, Op.MERGE: 0.00}
    rewards = rank_rewards(means)
    assert rewards == {Op.EDA: -1.0, Op.MERGE: 0.0, Op.CONTINUE: 1.0}


def test_rank_rewards_tie_breaks_lexicographically():
    means = {Op.CONTINUE: 0.01, Op.ABLATION: 0.01}
    rewards = rank_rewards(means)
    # "ablation" sorts before "continue", so it takes the lower rank
    assert rewards == {Op.ABLATION: -1.0, Op.CONTINUE: 1.0}


def test_rank_rewards_golden_four_operators():
    means = {Op.INITIAL: -0.5, Op.CONTINUE: -0.1, Op.MERGE: 0.2, Op.EDA: 0.9}
    rewards = rank_rewards(means)
    assert rewards[Op.INITIAL] == -1.0
    assert rewards[Op.CONTINUE] == -0.33333333333333337
    assert rewards[Op.MERGE] == 0.33333333333333326
    assert rewards[Op.EDA] == 1.0


def test_rank_rewards_single_operator_signals_skip():
    assert rank_rewards({Op.CONTINUE: 0.01}) is None
    assert rank_rewards({}) is None


def test_rank_rewards_match_oracle_exactly():
    rng = random.Random(92)
    ops = [Op.INITIAL, Op.CONTINUE, Op.ABLATION, Op.MERGE, Op.EDA, Op.JUMPSTART]
    for k in range(2, 7):
        for _ in range(50):
            chosen = rng.sample(ops, k)
            means = {op: rng.choice([-0.02, -0.01, 0.0, 0.01, 0.02]) for op in chosen}
            expected = rank_rewards_oracle(
                [op.value for op in chosen], [means[op] for op in chosen]
            )
            got = rank_rewards(means)
            assert {op.value: r for op, r in got.items()} == expected


def test_aggregate_gains_means_per_operator():
    gains = [
        ObservedGain(Op.CONTINUE, 0.02),
        ObservedGain(Op.CONTINUE, 0.04),
        ObservedGain(Op.EDA, -0.01),
    ]
    means = aggregate_gains(gains)
    assert means[Op.CONTINUE] == pytest.approx(0.03)
    assert means[Op.EDA] == -0.01


# -- updates ---------------------------------------------------------


def test_update_skip_rule_is_bitwise():
    state = two_op_state(0.3, 0.0)
    after = apply_update(state, [ObservedGain(Op.CONTINUE, 0.5)])
    assert after is state
    assert after.log_weights == state.log_weights


def test_update_golden_clip_deltas():
    """At p=0.4 the importance factor is 2.5; at p=0.1 it clips to 4.
    Deltas are read off as differences against an untouched operator,
    which cancels the subtract-max shift."""
    config = HedgeConfig.build({Op.CONTINUE: 0.4, Op.EDA: 0.1, Op.INITIAL: 0.5})
    state = new_state(config)
    after = apply_update(
        state,
        [ObservedGain(Op.CONTINUE, 0.05), ObservedGain(Op.EDA, -0.05)],
    )
    delta = {
        op: after.log_weights[op] - state.log_weights[op]
        for op in (Op.CONTINUE, Op.EDA, Op.INITIAL)
    }
    assert delta[Op.CONTINUE] - delta[Op.INITIAL] == pytest.approx(0.375, abs=1e-12)
    assert delta[Op.EDA] - delta[Op.INITIAL] == pytest.approx(-0.6, abs=1e-12)


def test_update_rejects_inactive_operator():
    state = two_op_state(0.0, 0.0)
    with pytest.raises(ValueError):
        apply_update(state, [ObservedGain(Op.MERGE, 0.1), ObservedGain(Op.EDA, 0.2)])


def test_update_untouched_operators_keep_relative_weight():
    """Operators absent from the gains move only by the shared
    renormalization shift, so their pairwise gap is preserved."""
    config = HedgeConfig.build(
        {Op.CONTINUE: 0.2, Op.EDA: 0.2, Op.INITIAL: 0.35, Op.MERGE: 0.25}
    )
    state = new_state(config)
    after = apply_update(
        state, [ObservedGain(Op.CONTINUE, 0.1), ObservedGain(Op.EDA, 0.2)]
    )
    gap_before = state.log_weights[Op.INITIAL] - state.log_weights[Op.MERGE]
    gap_after = after.log_weights[Op.INITIAL] - after.log_weights[Op.MERGE]
    assert gap_after == pytest.approx(gap_before, abs=1e-12)


def test_scale_robustness_of_updates():
    """Multiplying all gains by a positive constant leaves the update
    unchanged: only ranks enter the reward."""
    config = HedgeConfig.build({Op.CONTINUE: 0.3, Op.EDA: 0.3, Op.MERGE: 0.4})
    state = new_state(config)
    gains = [
        ObservedGain(Op.CONTINUE, 0.011),
        ObservedGain(Op.EDA, -0.004),
        ObservedGain(Op.MERGE, 0.002),
    ]
    scaled = [ObservedGain(g.operator, g.delta * 7.25) for g in gains]
    assert apply_update(state, gains).log_weights == apply_update(state, scaled).log_weights


def test_update_probability_conservation_over_many_rounds():
    config = HedgeConfig.build(
        {Op.INITIAL: 0.1, Op.CONTINUE: 0.2, Op.ABLATION: 0.1, Op.MERGE: 0.1, Op.EDA: 0.5},
        floors=PAPER_FLOORS,
        ceilings=PAPER_CEILINGS,
    )
    state = new_state(config)
    rng = random.Random(5)
    for _ in range(200):
        observed = rng.sample(list(config.active_tasks), rng.randint(2, 5))
        gains = [ObservedGain(op, rng.gauss(0.0, 0.02)) for op in observed]
        state = apply_update(state, gains)
        probs = sampling_probabilities(state)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        for op in config.active_tasks:
            assert probs[op] >= PAPER_FLOORS[op] - 1e-9
        assert probs[Op.MERGE] <= 0.30 + 1e-9


# -- sampling --------------------------------------------------------


def test_sample_frequencies_track_probabilities():
    config = HedgeConfig.build(
        {Op.INITIAL: 0.1, Op.CONTINUE: 0.2, Op.ABLATION: 0.1, Op.MERGE: 0.1, Op.EDA: 0.5},
        floors=PAPER_FLOORS,
        ceilings=PAPER_CEILINGS,
    )
    state = new_state(config)
    probs = sampling_probabilities(state)
    rng = derive_rng(99, "freq")
    n = 10_000
    counts = {op: 0 for op in config.active_tasks}
    for _ in range(n):
        counts[sample_task(state, rng)] += 1
    for op in config.active_tasks:
        assert counts[op] / n == pytest.approx(probs[op], abs=0.02)


def test_sampling_never_emits_excluded_operator():
    config = HedgeConfig.build(
        {Op.INITIAL: 0.1, Op.CONTINUE: 0.2, Op.ABLATION: 0.1, Op.MERGE: 0.1,
         Op.JUMPSTART: 0.0, Op.EDA: 0.5},
    )
    state = new_state(config)
    rng = derive_rng(3, "never")
    assert all(sample_task(state, rng) is not Op.JUMPSTART for _ in range(2000))


def test_sampling_is_deterministic_per_stream():
    config = HedgeConfig.build({Op.CONTINUE: 0.5, Op.EDA: 0.5})
    state = new_state(config)
    draws_a = [sample_task(state, derive_rng(7, "s", i)) for i in range(40)]
    draws_b = [sample_task(state, derive_rng(7, "s", i)) for i in range(40)]
    assert draws_a == draws_b


# -- serialization ---------------------------------------------------


# -- property tests --------------------------------------------------


@st.composite
def hedge_configs(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    ops = list(Op)[:k]
    raw = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in ops]
    total = sum(raw)
    base = {op: x / total for op, x in zip(ops, raw)}
    floors = {op: draw(st.floats(min_value=0.0, max_value=0.5 / k)) for op in ops}
    ceilings = {}
    # at most one ceiling, comfortably above its floor: keeps the box
    # feasible so the projection contract applies
    if draw(st.booleans()):
        target = draw(st.sampled_from(ops))
        ceilings[target] = floors[target] + draw(st.floats(min_value=0.3, max_value=0.9))
    return HedgeConfig.build(base, floors=floors, ceilings=ceilings)


@settings(max_examples=60, deadline=None)
@given(config=hedge_configs(), data=st.data())
def test_property_bounds_and_conservation(config, data):
    state = new_state(config)
    observed = data.draw(
        st.lists(st.sampled_from(list(config.active_tasks)), min_size=0, max_size=8)
    )
    gains = [
        ObservedGain(op, data.draw(st.floats(min_value=-0.1, max_value=0.1)))
        for op in observed
    ]
    after = apply_update(state, gains)
    if len({g.operator for g in gains}) < 2:
        assert after.log_weights == state.log_weights
    probs = sampling_probabilities(after)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
    for op in config.active_tasks:
        assert probs[op] >= config.floors.get(op, 0.0) - 1e-9
        ceiling = config.ceilings.get(op)
        if ceiling is not None:
            assert probs[op] <= ceiling + 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_rank_monotonicity_and_range(data):
    k = data.draw(st.integers(min_value=2, max_value=6))
    ops = list(Op)[:k]
    means = {
        op: data.draw(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
        )
        for op in ops
    }
    rewards = rank_rewards(means)
    values = sorted(rewards.values())
    assert values[0] == -1.0 and values[-1] == 1.0
    for a in ops:
        for b in ops:
            if means[a] > means[b]:
                assert rewards[a] > rewards[b]
    for r in rewards.values():
        assert -1.0 <= r <= 1.0


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_clip_bound(data):
    config = HedgeConfig.build(
        {Op.INITIAL: 0.1, Op.CONTINUE: 0.2, Op.ABLATION: 0.1, Op.MERGE: 0.1, Op.EDA: 0.5},
        floors=PAPER_FLOORS,
        ceilings=PAPER_CEILINGS,
    )
    state = new_state(config)
    probs = sampling_probabilities(state)
    observed = data.draw(
        st.lists(
            st.sampled_from(list(config.active_tasks)), min_size=2, max_size=5, unique=True
        )
    )
    means = {
        op: data.draw(st.floats(min_value=-0.5, max_value=0.5)) for op in observed
    }
    rewards = rank_rewards(means)
    for op, r in rewards.items():
        weighted = r * min(1.0 / probs[op], config.clip_cap)
        assert abs(weighted) <= config.clip_cap + 1e-12


def test_update_determinism():
    config = HedgeConfig.build({Op.CONTINUE: 0.3, Op.EDA: 0.7})
    gains = [ObservedGain(Op.CONTINUE, 0.02), ObservedGain(Op.EDA, 0.01)]
    a = apply_update(new_state(config), gains)
    b = apply_update(new_state(config), gains)
    assert a.log_weights == b.log_weights
    assert math.isfinite(sum(a.log_weights.values()))
