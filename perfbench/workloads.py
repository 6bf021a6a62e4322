"""One round of each workload, driven through seedevo's public API.

A round is the unit a run repeats: evolve_* rounds are one complete
run (plus, for evolve_long, the moved-root resume); compress_* rounds
compress every generated transcript once.  Each round builds its output
root, times its operations, checks the outputs and removes the root.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from seedevo import compression, engine, executors, hedge, reporting, workspace
from seedevo.config import load_config
from seedevo.events import read_events
from seedevo.executors import build_executor
from seedevo.workspace import RunStore

import checks
import inputs
from hostspeed import Clock
from tracing import written_bytes


@dataclass
class Round:
    op_ms: list[float] = field(default_factory=list)  # scaled by host speed
    raw_op_ms: list[float] = field(default_factory=list)
    items: int = 0  # slots settled, or messages compressed
    window_s: float = 0.0  # timed operations plus the report, scaled by host speed
    raw_window_s: float = 0.0
    speed_samples: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    written: int = 0  # bytes passed to write calls inside the window
    fsyncs: int = 0
    events_bytes: int = 0
    parent_bytes: int = 0
    degraded: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def timed(out: Round, clock: Clock, start: float, op: bool = True) -> None:
    """Book the time since `start` (from clock.start()) into the round."""
    raw, scaled = clock.stop(start)
    out.raw_window_s += raw
    out.window_s += scaled
    if op:
        out.raw_op_ms.append(raw * 1000.0)
        out.op_ms.append(scaled * 1000.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_report(root: Path) -> None:
    """What `seedevo run` does after the last iteration."""
    store = RunStore.open(root)
    events, _ = read_events(store.events_path)
    stats = reporting.compute_operator_stats(events)
    progression = reporting.best_score_progression(events)
    edges = reporting.lineage_edges(events)
    reporting.export_report(stats, progression, edges, "json", root / "report")


def evolve_round(ctx, root: Path, tracer, fsync) -> Round:
    out = Round()
    try:
        with tracer.span("config.load"):
            config = load_config(config_file=ctx.config_path, env={})
        run = engine.EvolutionEngine.start(config, build_executor(config), root)

        written, fsyncs = written_bytes(), fsync.calls
        clock = Clock()
        out.speed_samples = clock.samples
        while not run.stopped:
            start = clock.start()
            with tracer.span("engine.step"):
                run.step()
            timed(out, clock, start)
        start = clock.start()
        with tracer.span("reporting.report"):
            write_report(root)
        timed(out, clock, start, op=False)
    except Exception as exc:
        return _raised(out, exc)
    out.written = written_bytes() - written
    out.fsyncs = fsync.calls - fsyncs
    out.peak_rss_mb = peak_rss_mb()

    out.items = len(out.op_ms) * config.population_size
    out.attempted = len(out.op_ms)
    out.events_bytes = (root / "events.jsonl").stat().st_size
    if tracer.enabled:
        out.parent_bytes = sum(
            p.stat().st_size
            for p in root.glob("workspaces/*/*/Previous Experiments/**/*")
            if p.is_file()
        )

    if ctx.workload == "evolve_long":
        root = _resume_moved(root, config.max_iterations, out)
    out.problems = checks.check_evolve(root, agent_rule=ctx.workload == "evolve_inherit")
    out.digests.append(checks.sha256_file(root / "events.jsonl"))
    return out


def _raised(out: Round, exc: Exception) -> Round:
    """An operation that raised: it counts as attempted and failed, the
    round ends there, and the run reports the problem."""
    out.attempted = len(out.op_ms) + 1
    out.failed += 1
    out.problems.append(f"operation {out.attempted} raised {type(exc).__name__}: {exc}")
    return out


def _resume_moved(root: Path, iterations: int, out: Round) -> Path:
    """Move the finished output root and resume it from the new path.

    A moved root must stay resumable; resuming a finished run loads its
    checkpoint and elite archives and reports it complete.
    """
    moved = root.with_name(root.name + "_moved")
    root.rename(moved)
    out.attempted += 1
    try:
        resumed = engine.EvolutionEngine.resume(moved)
        if not (resumed.stopped and resumed.iteration == iterations):
            raise RuntimeError(f"resumed at iteration {resumed.iteration}, stopped={resumed.stopped}")
    except Exception as exc:  # the operation's outcome, not a crash of the benchmark
        out.failed += 1
        out.notes.append(f"moved-root resume failed: {type(exc).__name__}: {exc}")
    return moved


def compress_round(ctx, root: Path, tracer, fsync) -> Round:
    out = Round()
    done = []
    written, fsyncs = written_bytes(), fsync.calls
    clock = Clock()
    out.speed_samples = clock.samples
    for transcript in ctx.transcripts:
        flags = inputs.compress_budget(ctx.workload, transcript)
        dest = root / transcript.stem
        rendered_path, sidecar_path = dest / "rendered.jsonl", dest / "plan.json"
        start = clock.start()
        try:
            # the sequence `seedevo compress` runs for one transcript
            with tracer.span("config.load"):
                budget = compression.BudgetConfig(
                    trigger_tokens=flags["trigger_tokens"],
                    target_tokens=flags["target_tokens"],
                    window_groups=flags["window_groups"],
                    recent_groups_protected=flags["protected_groups"],
                )
                summarizer = compression.head_fraction_summarizer(flags["summary_fraction"])
                dest.mkdir(parents=True)
            history = compression.load_transcript(transcript)
            compression.compress_pending(history, summarizer, budget)
            groups = compression.group_messages(history)
            result = compression.select_statuses(history, groups, budget)
            rendered = compression.reconstruct_context(history, groups, result.statuses, budget)
            compression.write_rendered_context(rendered_path, rendered)
            compression.write_selection_sidecar(sidecar_path, groups, result)
        except Exception as exc:
            return _raised(out, exc)
        timed(out, clock, start)
        out.items += len(history.messages)
        done.append((transcript, rendered_path, sidecar_path, flags))
    out.written = written_bytes() - written
    out.fsyncs = fsync.calls - fsyncs
    out.peak_rss_mb = peak_rss_mb()
    out.attempted = len(done)

    statuses = []
    for transcript, rendered_path, sidecar_path, flags in done:
        problems = checks.check_compress(transcript, rendered_path, sidecar_path, flags)
        out.problems.extend(f"{transcript.name}: {p}" for p in problems)
        ours = checks.sidecar_statuses(sidecar_path)
        # in-window groups not left original
        out.degraded.append(sum(s != "original" for s in ours[-flags["window_groups"]:]))
        statuses.append(" ".join(ours))
    out.digests.append(hashlib.sha256("\n".join(statuses).encode("utf-8")).hexdigest())
    return out


ROUNDS = {
    "evolve_long": evolve_round,
    "evolve_inherit": evolve_round,
    "compress_wide": compress_round,
    "compress_long": compress_round,
}


def run_round(ctx, index: int, tracer, fsync) -> Round:
    root = ctx.work / f"round_{index}"
    try:
        return ROUNDS[ctx.workload](ctx, root, tracer, fsync)
    finally:
        for path in (root, root.with_name(root.name + "_moved")):
            shutil.rmtree(path, ignore_errors=True)


def install(tracer) -> None:
    """Wrap each layer's public functions where their callers bind them."""

    def slot_outcome(attrs, args, outcome):
        attrs["verified"] = bool(outcome.verified)

    tracer.wrap(engine, "plan_iteration", "engine.plan")
    tracer.wrap(engine, "resolve_tournament", "engine.settle")
    tracer.wrap(engine, "update_stopping", "engine.settle")
    tracer.wrap(engine, "save_checkpoint", "engine.checkpoint")
    tracer.wrap(engine, "materialize_seed", "workspace.materialize")
    tracer.wrap(engine.RunStore, "archive_run", "workspace.archive")
    tracer.wrap(engine.EventLog, "append", "events.append")
    tracer.wrap(workspace, "curate_parent_archive", "workspace.curate")
    tracer.wrap(hedge, "apply_update", "hedge.update")
    for cls in (executors.SimulatedExecutor, executors.ExternalCommandExecutor):
        tracer.wrap(cls, "execute", "executors.execute", on_result=slot_outcome)
    tracer.wrap(compression, "load_transcript", "compression.load")
    tracer.wrap(compression, "compress_pending", "compression.stage1")
    tracer.wrap(compression, "group_messages", "compression.group")
    tracer.wrap(compression, "select_statuses", "compression.select")
    for name in ("reconstruct_context", "write_rendered_context", "write_selection_sidecar"):
        tracer.wrap(compression, name, "compression.render")
