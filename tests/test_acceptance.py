"""Acceptance suite.

Each test covers one acceptance criterion and prints a single visible
verdict line, even under captured output:

    [acceptance] NN <name>: PASS|FAIL

A FAIL line always comes with a failing assertion carrying the first
few reasons.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import numpy as np

from conftest import ScriptedExecutor, single_slot_config, word_head_summarizer
from oracles import (
    bounds_oracle,
    rank_rewards_oracle,
    selection_walk_oracle,
    stopping_oracle,
)
from seedevo import hedge as hedgemod
from seedevo.compression import (
    BudgetConfig,
    MessageHistory,
    compress_pending,
    count_tokens,
    group_messages,
    reconstruct_context,
    rendered_token_total,
    select_statuses,
    truncate_text,
)
from seedevo.config import RunConfig
from seedevo.engine import (
    EvolutionEngine,
    MetricDirection,
    StoppingState,
    update_stopping,
)
from seedevo.events import read_events
from seedevo.executors import (
    ExternalCommandExecutor,
    SimModelParams,
    SimulatedExecutor,
    build_executor,
)
from seedevo.hedge import (
    HedgeConfig,
    ObservedGain,
    apply_update,
    enforce_bounds,
    new_state,
    sampling_probabilities,
)
from seedevo.operators import Operator as Op
from seedevo.reporting import compute_operator_stats, pooled_win_rate

HIGHER = MetricDirection(True)
LOWER = MetricDirection(False)


def run_criterion(capfd, number: int, name: str, body) -> None:
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    try:
        body(check)
    except Exception as exc:  # a crash is a failure, not a silent skip
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    status = "FAIL" if failures else "PASS"
    with capfd.disabled():
        print(f"[acceptance] {number:02d} {name}: {status}")
    assert not failures, f"criterion {number} ({name}): " + " | ".join(failures[:5])


# -- 1 ---------------------------------------------------------------


def test_criterion_01_hedge_update_invariants(capfd):
    def body(check):
        rng = random.Random(101)
        start = time.monotonic()
        for case in range(1000):
            k = rng.randint(2, 6)
            ops = list(Op)[:k]
            raw = [rng.uniform(0.05, 1.0) for _ in ops]
            z = sum(raw)
            base_probs = {op: r / z for op, r in zip(ops, raw)}
            floors = {
                op: rng.uniform(0.0, 0.5 / k) for op in ops if rng.random() < 0.7
            }
            ceilings = {}
            if rng.random() < 0.5:
                capped = ops[rng.randrange(k)]
                ceilings[capped] = min(
                    1.0, floors.get(capped, 0.0) + rng.uniform(0.3, 0.9)
                )
            config = HedgeConfig.build(
                base_probs, floors, ceilings,
                learning_rate=rng.uniform(0.05, 0.3),
                clip_cap=rng.uniform(1.5, 6.0),
            )
            state = new_state(config)
            # wander away from the initial weights first
            for _ in range(rng.randrange(3)):
                warm = [
                    ObservedGain(op, rng.gauss(0.0, 0.05))
                    for op in ops
                    if rng.random() < 0.8
                ]
                state = apply_update(state, warm)

            observed = [op for op in ops if rng.random() < 0.7]
            if len(observed) < 2:
                observed = list(ops[:2])
            gains = [
                ObservedGain(op, rng.gauss(0.0, 0.05))
                for op in observed
                for _ in range(rng.randint(1, 3))
            ]
            pre = sampling_probabilities(state)
            after = apply_update(state, gains)
            post = sampling_probabilities(after)

            total = sum(post.values())
            check(abs(total - 1.0) <= 1e-9, f"case {case}: sum {total}")
            for op in ops:
                check(
                    post[op] >= floors.get(op, 0.0) - 1e-9,
                    f"case {case}: {op} below floor",
                )
                if op in ceilings:
                    check(
                        post[op] <= ceilings[op] + 1e-9,
                        f"case {case}: {op} above ceiling",
                    )

            sums: dict[Op, float] = {}
            counts: dict[Op, int] = {}
            for g in gains:
                sums[g.operator] = sums.get(g.operator, 0.0) + g.delta
                counts[g.operator] = counts.get(g.operator, 0) + 1
            means = {op: sums[op] / counts[op] for op in sums}
            rewards = rank_rewards_oracle(
                [op.value for op in means], [means[op] for op in means]
            )
            for op in means:
                clipped = rewards[op.value] * min(1.0 / pre[op], config.clip_cap)
                check(
                    abs(clipped) <= config.clip_cap + 1e-12,
                    f"case {case}: |clipped reward| {clipped} exceeds cap",
                )

            solo = [ObservedGain(ops[0], 0.01), ObservedGain(ops[0], -0.02)]
            check(
                apply_update(state, solo) is state,
                f"case {case}: skip rule did not return the same state",
            )
        elapsed = time.monotonic() - start
        check(elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s")

    run_criterion(capfd, 1, "hedge update invariants", body)


# -- 2 ---------------------------------------------------------------


def test_criterion_02_rank_reward_oracle(capfd):
    def body(check):
        rng = random.Random(55)
        for k in range(2, 7):
            for case in range(200):
                ops = list(Op)[:k]
                if case % 4 == 0:  # force ties regularly
                    pool = [round(rng.uniform(-0.1, 0.1), 2) for _ in range(2)]
                    means = {op: rng.choice(pool) for op in ops}
                else:
                    means = {op: rng.uniform(-0.2, 0.2) for op in ops}
                got = hedgemod.rank_rewards(means)
                want = rank_rewards_oracle(
                    [op.value for op in means], [means[op] for op in means]
                )
                check(
                    {op.value: r for op, r in got.items()} == want,
                    f"k={k} case {case}: {got} != {want}",
                )
        check(hedgemod.rank_rewards({Op.EDA: 0.5}) is None, "singleton must be None")

    run_criterion(capfd, 2, "rank reward oracle", body)


# -- 3 ---------------------------------------------------------------


def test_criterion_03_bounds_projection_oracle(capfd):
    def body(check):
        ops = [Op.INITIAL, Op.CONTINUE, Op.ABLATION, Op.MERGE, Op.EDA]
        floors = {
            Op.INITIAL: 0.05, Op.CONTINUE: 0.10, Op.ABLATION: 0.05,
            Op.MERGE: 0.05, Op.EDA: 0.05,
        }
        ceilings = {Op.MERGE: 0.30}
        floor_list = [floors[op] for op in ops]
        ceiling_list = [ceilings.get(op) for op in ops]
        npr = np.random.default_rng(77)
        for case in range(1000):
            alpha = npr.choice([0.15, 0.5, 1.0, 5.0])
            point = npr.dirichlet([alpha] * len(ops))
            if case % 10 == 0:  # degenerate corners with exact zeros
                point = np.zeros(len(ops))
                point[npr.integers(len(ops))] = 1.0
            probs = {op: float(p) for op, p in zip(ops, point)}
            got = enforce_bounds(probs, floors, ceilings)
            want, sweeps = bounds_oracle(list(point), floor_list, ceiling_list)
            check(sweeps <= 10, f"case {case}: oracle needed {sweeps} sweeps")
            for op, w in zip(ops, want):
                check(
                    abs(got[op] - w) <= 1e-12,
                    f"case {case}: {op} {got[op]} != {w}",
                )
            again = enforce_bounds(got, floors, ceilings)
            for op in ops:
                check(
                    abs(again[op] - got[op]) <= 1e-12,
                    f"case {case}: not a fixed point at {op}",
                )

    run_criterion(capfd, 3, "bounds projection oracle", body)


# -- 4 ---------------------------------------------------------------


def test_criterion_04_single_slot_trace(capfd, tmp_path):
    def body(check):
        config = single_slot_config(max_iterations=3, master_seed=9)
        executor = ScriptedExecutor({(1, 0): 0.50, (2, 0): 0.60, (3, 0): 0.55})
        engine = EvolutionEngine.start(config, executor, tmp_path / "run")
        engine.run()
        events, skipped = read_events(engine.store.events_path)
        check(skipped == 0, "malformed event lines")
        check(len(events) == 9, f"expected 9 events, got {len(events)}")

        tournaments = [e for e in events if e["type"] == "tournament"]
        t1, t2, t3 = tournaments
        check(t1["parent_score"] is None and t1["delta"] is None, "iter 1 install shape")
        check(t1["child_won"] and t1["child_score"] == 0.50, "iter 1 result")
        check(t2["delta"] == 0.60 - 0.50, f"iter 2 delta {t2['delta']}")
        check(t2["child_won"] is True, "iter 2 winner")
        check(t3["delta"] == 0.55 - 0.60, f"iter 3 delta {t3['delta']}")
        check(t3["child_won"] is False, "iter 3 must keep the incumbent")

        stops = [e for e in events if e["type"] == "stopping"]
        check(
            [e["best_so_far"] for e in stops] == [0.50, 0.60, 0.60],
            f"best trajectory {[e['best_so_far'] for e in stops]}",
        )
        check([e["stagnation"] for e in stops] == [0, 0, 1], "stagnation trajectory")
        check([e["stop"] for e in stops] == [False, False, True], "stop decisions")

        best = engine.pool.best()
        check(best.score == 0.60 and best.slot == 0, "final elite")
        check(best.origin_operator is Op.CONTINUE and best.origin_iteration == 2,
              "final elite lineage")

    run_criterion(capfd, 4, "single-slot trace equivalence", body)


# -- 5 ---------------------------------------------------------------


def test_criterion_05_stopping_policy(capfd):
    def body(check):
        threshold, patience, cap = 0.0, 5, 30

        def run_package(values):
            state = StoppingState(threshold=threshold, patience=patience, max_iterations=cap)
            for i, v in enumerate(values, start=1):
                state, stop = update_stopping(state, v, i, HIGHER)
                if stop:
                    return i, state.best_so_far, state.stagnation_count
            return None, state.best_so_far, state.stagnation_count

        cases = [[0.7] * 30, [i / 100 for i in range(1, 31)]]
        rng = random.Random(500)
        while len(cases) < 48:
            value, seq = 0.5, []
            for _ in range(30):
                step = rng.choice([0.0, 0.0, 0.0, 0.013, 0.04, -0.01])
                value = max(value, value + step)
                seq.append(value)
            cases.append(seq)

        check(run_package(cases[0])[0] == 6, "all-flat must stop at 6")
        check(run_package(cases[1]) == (30, 0.30, 0), "always-improving must stop at 30")
        for idx, seq in enumerate(cases):
            want = stopping_oracle(seq, threshold, patience, cap)
            got = run_package(seq)
            check(got == want, f"case {idx}: {got} != {want}")

        # iterations with no valid result count as stagnation
        check(run_package([None] * 10) == (5, None, 5), "all-missing sequence")
        check(
            run_package([0.5, None, None, None, None, None]) == (6, 0.5, 5),
            "missing results after a real score",
        )

    run_criterion(capfd, 5, "stopping policy", body)


# -- 6 ---------------------------------------------------------------


def test_criterion_06_determinism_and_resume(capfd, tmp_path):
    def body(check):
        config = RunConfig(master_seed=31, max_iterations=10, patience=50)

        def fresh_engine(name: str) -> EvolutionEngine:
            executor = SimulatedExecutor(SimModelParams(), master_seed=config.master_seed)
            return EvolutionEngine.start(config, executor, tmp_path / name)

        reference = fresh_engine("ref")
        reference.run()
        check(reference.iteration == 10, "reference run length")
        ref_bytes = (tmp_path / "ref" / "events.jsonl").read_bytes()

        repeat = fresh_engine("again")
        repeat.run()
        check(
            (tmp_path / "again" / "events.jsonl").read_bytes() == ref_bytes,
            "repetition diverged",
        )

        for k in range(1, 10):
            name = f"split_{k}"
            first = fresh_engine(name)
            for _ in range(k):
                first.step()
            resumed = EvolutionEngine.resume(tmp_path / name)
            check(resumed.iteration == k, f"split {k}: resumed at {resumed.iteration}")
            resumed.run()
            check(
                (tmp_path / name / "events.jsonl").read_bytes() == ref_bytes,
                f"split at iteration {k} diverged",
            )

    run_criterion(capfd, 6, "determinism and resume", body)


# -- 7 ---------------------------------------------------------------


def test_criterion_07_lineage_reproduction(capfd, tmp_path):
    def body(check):
        start = time.monotonic()
        events: list[dict] = []
        qualifying = 0
        seed = 0
        while qualifying < 1000:
            config = RunConfig(master_seed=seed)
            executor = SimulatedExecutor(SimModelParams(), master_seed=seed)
            engine = EvolutionEngine.start(config, executor, tmp_path / f"run_{seed}")
            engine.run()
            run_events, _ = read_events(engine.store.events_path)
            events.extend(run_events)
            qualifying += sum(
                1
                for e in run_events
                if e["type"] == "tournament" and e["parent_score"] is not None
            )
            seed += 1
        stats = compute_operator_stats(events)
        check(qualifying >= 1000, f"only {qualifying} qualifying tournaments")
        by_op = {s.operator: s for s in stats}
        check("initial" in by_op, "no elite tournaments for initial")
        initial_rate = by_op["initial"].win_rate
        for s in stats:
            if s.operator != "initial":
                check(
                    s.win_rate > initial_rate,
                    f"{s.operator} win rate {s.win_rate:.3f} not above "
                    f"initial {initial_rate:.3f}",
                )
        pooled = pooled_win_rate(stats)
        check(
            pooled >= initial_rate + 0.20,
            f"pooled {pooled:.3f} vs initial {initial_rate:.3f}: gap below 20 points",
        )
        elapsed = time.monotonic() - start
        check(elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")

    run_criterion(capfd, 7, "operator lineage reproduction", body)


# -- 8 ---------------------------------------------------------------


def test_criterion_08_compression_selection_invariants(capfd):
    def body(check):
        rng = random.Random(4242)
        for case in range(500):
            history = MessageHistory()
            for g in range(rng.randint(1, 60)):
                if rng.random() < 0.3:
                    args = (
                        {"k": " ".join(f"v{g}_{j}" for j in range(rng.randint(1, 60)))}
                        if rng.random() < 0.5
                        else {"k": "small"}
                    )
                    history.add(
                        "ai",
                        " ".join(f"a{g}_{j}" for j in range(rng.randint(1, 90))),
                        args,
                    )
                    for t in range(rng.randint(1, 2)):
                        history.add(
                            "tool",
                            " ".join(f"t{g}_{t}_{j}" for j in range(rng.randint(1, 90))),
                        )
                else:
                    history.add(
                        "human",
                        " ".join(f"h{g}_{j}" for j in range(rng.randint(1, 120))),
                    )

            def moody(text):
                if count_tokens(text) % 6 == 0:
                    raise RuntimeError("unavailable")
                parts = text.split()
                return " ".join(parts[: max(1, len(parts) // 4)])

            budget = BudgetConfig(
                trigger_tokens=10**6,
                target_tokens=rng.randint(100, 2500),
                window_groups=50,
                recent_groups_protected=5,
                min_compress_tokens=50,
            )
            compress_pending(history, moody, budget)
            groups = group_messages(history)

            seen: list[int] = []
            for group in groups:
                seen.extend(group.member_ids)
            check(
                seen == [m.id for m in history.messages],
                f"case {case}: groups are not an ordered partition",
            )

            table, pending = [], []
            for group in groups:
                row = {"original": 0, "compressed": 0, "truncate": 0}
                has_pending = False
                for mid in group.member_ids:
                    msg = history.get(mid)
                    row["original"] += msg.token_count
                    form = history.cache.get(mid)
                    row["compressed"] += form.token_count if form else msg.token_count
                    row["truncate"] += count_tokens(truncate_text(msg.text))
                    if mid not in history.cache:
                        has_pending = True
                table.append(row)
                pending.append(has_pending)

            result = select_statuses(history, groups, budget)
            want_statuses, want_total, want_flag = selection_walk_oracle(
                table, pending, budget.target_tokens, 50, 5
            )
            check(
                [s.value for s in result.statuses] == want_statuses,
                f"case {case}: walk mismatch",
            )
            check(result.total_tokens == want_total, f"case {case}: total mismatch")
            check(result.over_budget == want_flag, f"case {case}: flag mismatch")

            n = len(groups)
            for i in range(max(0, n - 50)):
                check(
                    result.statuses[i].value == "drop",
                    f"case {case}: group {i} escaped the window",
                )
            survivors = list(range(max(0, n - 50), n))
            check(
                result.statuses[survivors[0]].value != "drop",
                f"case {case}: first surviving group dropped",
            )
            for i in survivors[-5:]:
                check(
                    result.statuses[i].value == "original",
                    f"case {case}: protected group {i} degraded",
                )
            if not result.over_budget:
                check(
                    result.total_tokens <= budget.target_tokens,
                    f"case {case}: unflagged over budget",
                )
            rendered = reconstruct_context(history, groups, result.statuses, budget)
            check(
                rendered_token_total(history, rendered) == result.total_tokens,
                f"case {case}: render total disagrees with selection",
            )

    run_criterion(capfd, 8, "compression selection invariants", body)


# -- 9 ---------------------------------------------------------------


def test_criterion_09_direction_duality(capfd, tmp_path):
    def body(check):
        seed = 29

        def run_one(name: str, higher: bool) -> list[dict]:
            config = RunConfig(
                master_seed=seed, max_iterations=8, patience=50, higher_is_better=higher
            )
            params = SimModelParams(direction=MetricDirection(higher))
            executor = SimulatedExecutor(params, master_seed=seed)
            engine = EvolutionEngine.start(config, executor, tmp_path / name)
            engine.run()
            events, _ = read_events(engine.store.events_path)
            return events

        up = run_one("up", True)
        down = run_one("down", False)
        check(len(up) == len(down), "event counts differ")

        def neg(x):
            return None if x is None else -x

        for a, b in zip(up, down):
            check(a["type"] == b["type"] and a["iteration"] == b["iteration"],
                  "event alignment broke")
            if a["type"] == "tournament":
                check(a["child_won"] == b["child_won"], f"winner differs: {a}")
                check(a["child_valid"] == b["child_valid"], f"validity differs: {a}")
                check(a["delta"] == b["delta"], f"delta differs: {a} vs {b}")
                check(b["child_score"] == neg(a["child_score"]), f"child score: {a}")
                check(b["parent_score"] == neg(a["parent_score"]), f"parent score: {a}")
                check(a["operator"] == b["operator"], "operator choice differs")
            elif a["type"] == "hedge":
                check(a == b, f"hedge trajectory differs at iteration {a['iteration']}")
            else:
                check(a["stagnation"] == b["stagnation"] and a["stop"] == b["stop"],
                      f"stopping differs at iteration {a['iteration']}")
                check(b["best_so_far"] == neg(a["best_so_far"]),
                      "mirrored best disagrees")

    run_criterion(capfd, 9, "direction duality", body)


# -- 10 --------------------------------------------------------------


WRITE_TWO = """
import json, os
for name, score in (("run_1", 0.57), ("run_2", 0.58)):
    d = os.path.join("Experiments", "main_training", name)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "results.json"), "w") as fh:
        json.dump({"run_name": name, "score": score}, fh)
"""

FIRST_ITERATION_ONLY = """
import json, os
with open(os.environ["SEEDEVO_SEED_MANIFEST"]) as fh:
    manifest = json.load(fh)
if manifest["context_params"]["iteration"] == 1:
""" + "".join("    " + line + "\n" for line in WRITE_TWO.strip().splitlines())


def test_criterion_10_external_executor(capfd, tmp_path):
    def body(check):
        ws = tmp_path / "direct"
        ws.mkdir()
        (ws / "seed_manifest.json").write_text("{}")
        from seedevo.engine import AgentSeed

        seed = AgentSeed(Op.INITIAL, 0, (), {"iteration": 1})
        command = [sys.executable, "-c", WRITE_TWO]
        out_hi = ExternalCommandExecutor(command, HIGHER).execute(seed, ws)
        check(out_hi.verified and out_hi.score == 0.58,
              f"higher direction picked {out_hi.score}")
        ws2 = tmp_path / "direct_lo"
        ws2.mkdir()
        (ws2 / "seed_manifest.json").write_text("{}")
        out_lo = ExternalCommandExecutor(command, LOWER).execute(seed, ws2)
        check(out_lo.verified and out_lo.score == 0.57,
              f"lower direction picked {out_lo.score}")

        data = tmp_path / "data"
        data.mkdir()
        (data / "train.csv").write_text("x\n")
        config = RunConfig(
            population_size=1,
            workers=1,
            base_probs={Op.CONTINUE: 1.0},
            floors={},
            ceilings={},
            max_iterations=2,
            patience=50,
            master_seed=3,
            executor="external",
            external_command=[sys.executable, "-c", FIRST_ITERATION_ONLY],
            data_path=str(data),
        )
        config.validate()
        engine = EvolutionEngine.start(config, build_executor(config), tmp_path / "run")
        engine.run()
        events, _ = read_events(engine.store.events_path)
        tournaments = [e for e in events if e["type"] == "tournament"]
        check(len(tournaments) == 2, f"{len(tournaments)} tournaments")
        check(
            tournaments[0]["child_valid"] and tournaments[0]["child_score"] == 0.58,
            "iteration 1 should verify at 0.58",
        )
        check(
            not tournaments[1]["child_valid"] and not tournaments[1]["child_won"],
            "iteration 2 child must lose as unverified",
        )
        best = engine.pool.best()
        check(best is not None and best.score == 0.58, "incumbent not retained")
        hedges = [e for e in events if e["type"] == "hedge"]
        check(
            hedges[0]["probabilities"] == hedges[1]["probabilities"],
            "failed child changed the allocation",
        )

    run_criterion(capfd, 10, "external executor integration", body)
