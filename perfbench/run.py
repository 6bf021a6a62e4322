"""seedevo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload evolve_long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
its src/ directory.  Generated inputs and output roots live under
.bench_build/perfbench/ in the checkout and are removed when the run
ends.  The run repeats whole rounds of its workload until --seconds
have passed (the last round may end past them), checks every round's
outputs, and prints human-readable lines followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1
every round runs traced and the metrics are the per-layer split plus
the tracing overhead.  Exit code 0 when every check passed, 1 when a
check failed or an operation raised, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("evolve_long", "evolve_inherit", "compress_wide", "compress_long")
SETUP_PROBES = 25


@dataclass
class Context:
    workload: str
    work: Path
    config_path: Path | None = None
    transcripts: tuple[Path, ...] = ()


def prepare(workload: str, seed: int, work: Path) -> Context:
    import inputs

    ctx = Context(workload, work)
    if workload.startswith("evolve"):
        agent = data = None
        if workload == "evolve_inherit":
            agent, data = HERE / "agent.sh", work / "task_data"
            inputs.write_task_data(seed, data)
        ctx.config_path = work / "config.json"
        config = inputs.evolve_config(workload, seed, agent, data)
        ctx.config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    else:
        ctx.transcripts = tuple(inputs.write_transcripts(workload, seed, work))
    return ctx


def setup_seconds(ctx: Context) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-ups, each creating and then dropping an output
    root: (raw seconds, seconds scaled by the host speed around each)."""
    from hostspeed import Clock

    source = str(ctx.config_path or "-")
    raw, scaled = [], []
    for i in range(SETUP_PROBES):
        output = ctx.work / f"setup_{i}"
        clock = Clock()
        start = clock.start()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), ctx.workload, source, str(output)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        wall, wall_scaled = clock.stop(start)
        shutil.rmtree(output, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        # the probe's own figure excludes interpreter start; scale it as its wall time
        seconds = float(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * wall_scaled / wall)
    return raw, scaled


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was measured (a round that raised)."""
    return part / whole if whole else 0.0


def rate(rounds) -> float:
    return ratio(sum(r.items for r in rounds), sum(r.window_s for r in rounds))


def end_to_end(ctx: Context, rounds, setups: tuple[list[float], list[float]]) -> dict[str, float]:
    from hostspeed import REFERENCE_S
    from workloads import peak_rss_mb

    ops = [ms for r in rounds for ms in r.op_ms]
    raw_ops = [ms for r in rounds for ms in r.raw_op_ms]
    samples = [s for r in rounds for s in r.speed_samples]
    evolve = ctx.workload.startswith("evolve")
    metrics = {
        "setup_s": statistics.median(setups[1]),
        "op_ms_p50": statistics.median(ops) if ops else 0.0,
        "items_per_s": rate(rounds),
        "peak_rss_mb": rounds[0].peak_rss_mb or peak_rss_mb(),
    }
    # the same figures under the names a user of each command knows
    item, op = ("slots", "iter") if evolve else ("msgs", "transcript")
    print(f"{item}_per_s {metrics['items_per_s']:.4f} 1/s")
    print(f"{op}_ms_p50 {metrics['op_ms_p50']:.4f} ms  ({len(ops)} samples)")
    if len(ops) >= 100:
        print(f"{op}_ms_p90 {quantile(ops, 0.9):.4f} ms  ({len(ops)} samples)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.4f} MB")
    print(f"setup_s {metrics['setup_s']:.6f} s  (median of {len(setups[1])} fresh set-ups)")
    # the times above are scaled to a host that runs the fixed task in REFERENCE_S
    if raw_ops:
        print(
            f"host speed: fixed task median {statistics.median(samples) * 1000:.3f} ms "
            f"(reference {REFERENCE_S * 1000:.3f} ms, {len(samples)} samples); raw wall times: "
            f"{item}_per_s {ratio(sum(r.items for r in rounds), sum(r.raw_window_s for r in rounds)):.4f}, "
            f"{op}_ms_p50 {statistics.median(raw_ops):.4f}, setup_s {statistics.median(setups[0]):.6f}"
        )
    return metrics


def per_layer(ctx: Context, tracer, traced, names: list[str]) -> dict[str, float]:
    from tracing import barrier_wait_ms, span_cost_s

    metrics = dict.fromkeys(names, 0.0)
    own = tracer.self_times()

    def per(name: str, count: int, scale: float = 1000.0) -> float:
        return ratio(own.get(name, (0.0, 0))[0] * scale, count)

    def n(name: str) -> int:
        return own.get(name, (0.0, 0))[1]

    metrics["config.load_ms"] = per("config.load", n("config.load"))
    if ctx.workload.startswith("evolve"):
        iterations = n("engine.step")
        slots = n("executors.execute")
        for layer in ("plan", "settle", "checkpoint"):
            metrics[f"engine.{layer}_ms"] = per(f"engine.{layer}", iterations)
        metrics["engine.step_self_ms"] = per("engine.step", iterations)
        metrics["engine.barrier_wait_ms"] = barrier_wait_ms(tracer)
        metrics["hedge.update_ms"] = per("hedge.update", iterations)
        metrics["workspace.archive_ms"] = per("workspace.archive", n("workspace.archive"))
        metrics["workspace.fsyncs_per_slot"] = ratio(sum(r.fsyncs for r in traced), slots)
        metrics["workspace.write_kb_per_slot"] = ratio(sum(r.written for r in traced) / 1024.0, slots)
        metrics["workspace.materialize_ms"] = per("workspace.materialize", slots)
        metrics["workspace.curate_ms"] = per("workspace.curate", n("workspace.curate"))
        metrics["workspace.parent_kb_per_slot"] = ratio(
            sum(r.parent_bytes for r in traced) / 1024.0, slots
        )
        metrics["executors.execute_ms"] = per("executors.execute", slots)
        # an execute span that raised carries no outcome
        verified = sum(s[5].get("verified", False) for s in tracer.named("executors.execute"))
        metrics["executors.verified_ratio"] = ratio(verified, slots)
        metrics["events.append_us"] = per("events.append", n("events.append"), 1e6)
        metrics["events.bytes_per_iter"] = ratio(sum(r.events_bytes for r in traced), iterations)
        metrics["reporting.report_ms"] = per("reporting.report", n("reporting.report"))
        counts = {"iterations": iterations, "slots": slots, "archived slots": n("workspace.archive"),
                  "parents": n("workspace.curate"), "events": n("events.append")}
    else:
        transcripts = n("compression.load")
        for layer in ("load", "stage1", "group", "select", "render"):
            metrics[f"compression.{layer}_ms"] = per(f"compression.{layer}", transcripts)
        degraded = [d for r in traced for d in r.degraded]
        metrics["compression.degraded_groups"] = ratio(sum(degraded), len(degraded))
        counts = {"transcripts": transcripts, "messages": sum(r.items for r in traced)}
    # What the recorder adds: spans recorded times the measured cost of one
    # span, over the traced rounds' timed windows.  Comparing an untraced
    # round with a traced one cannot resolve this on a host whose speed
    # drifts by more than the recorder costs.
    cost = span_cost_s()
    window = sum(r.raw_window_s for r in traced)
    metrics["trace.overhead_pct"] = ratio(len(tracer.spans) * cost * 100.0, window)

    print("traced counts: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    print(
        f"traced {rate(traced):.4f} items/s; {len(tracer.spans)} spans at "
        f"{cost * 1e6:.2f} us each over {window:.2f} s timed"
    )
    # worker-thread spans overlap, so shares are of all self time, not of wall time
    total = sum(seconds for seconds, _ in own.values()) or 1.0
    print("self time by span:")
    for name, (seconds, count) in sorted(own.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:<24} {seconds:9.4f} s  {count:7d} spans  {100.0 * seconds / total:6.2f} %")
    return metrics


def whole_rounds(seconds: float, run_round) -> list:
    """Run whole rounds until `seconds` have passed; the last round may
    end past them."""
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(len(rounds)))
    return rounds


def run(args) -> int:
    import tracing
    import workloads

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    try:
        ctx = prepare(args.workload, args.seed, work)
        setups = setup_seconds(ctx)
        with tracing.FsyncCounter() as fsync:
            if args.trace:
                workloads.install(tracer)
            try:
                rounds = whole_rounds(
                    args.seconds, lambda i: workloads.run_round(ctx, i, tracer, fsync)
                )
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds")
    for note in sorted({n for r in rounds for n in r.notes}):
        print(f"note: {note}")
    for digest in sorted({d for r in rounds for d in r.digests}):
        print(f"digest {args.workload} seed {args.seed} {digest}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    # metric names and units come from the benchmark definition
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "per_layer" if args.trace else "end_to_end"
    ]
    if args.trace:
        values = per_layer(ctx, tracer, rounds, [m["name"] for m in listed])
        trace_path = HERE / "results" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = end_to_end(ctx, rounds, setups)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seedevo" / "__init__.py").is_file():
        print(f"error: no seedevo sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
