"""Command line front end.

Exit codes: 0 success, 1 configuration error, 2 runtime failure,
3 corrupt persisted state.

Each handler imports the package modules it runs, so a command loads
only what it uses: `compress` never loads the engine.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

from .config import SETTINGS, load_config, parse_setting, read_json_object
from .errors import ConfigurationError, CorruptStateError, SeedevoError

if TYPE_CHECKING:
    from .engine import EvolutionEngine

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CORRUPT = 3

#: The file in an output root that run and resume hold locked.
LOCK_FILENAME = "writer.lock"


def _config_overrides(args: argparse.Namespace) -> dict:
    """Collect flag-level overrides; flags beat env and file values."""
    overrides = {
        key: parse_setting(key, getattr(args, key), flag)
        for key, (_, flag) in SETTINGS.items()
        if flag and getattr(args, key) is not None
    }
    if args.external_command:
        overrides["external_command"] = args.external_command
        overrides["executor"] = "external"
    if args.sim_params:
        overrides["sim_params"] = read_json_object(args.sim_params, "sim_params")
    return overrides


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config file")
    for key, (var, flag) in SETTINGS.items():
        if flag:
            p.add_argument(flag, dest=key, help=f"{key}; also ${var}")
    p.add_argument("--sim-params", dest="sim_params", help="JSON file of simulator parameters")
    p.add_argument(
        "--external-command",
        dest="external_command",
        nargs="+",
        help="command template; {workspace} {seed_manifest} {data} are substituted",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedevo",
        description="Evolutionary orchestration over seeded agent runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="start a new evolution run")
    run_p.add_argument("--output", type=Path, required=True, help="fresh output root")
    _add_config_flags(run_p)
    run_p.add_argument(
        "--print-config",
        action="store_true",
        help="print the effective config and exit without running",
    )

    resume_p = sub.add_parser("resume", help="continue a run from its last checkpoint")
    resume_p.add_argument("--output", type=Path, required=True, help="existing output root")

    report_p = sub.add_parser("report", help="summarize a finished or running run")
    report_p.add_argument("--output", type=Path, required=True, help="run output root")
    report_p.add_argument("--format", choices=["json", "csv"], default="json")
    report_p.add_argument(
        "--dest", type=Path, help="where to write the report (default <output>/report)"
    )

    sim_p = sub.add_parser("simulate", help="run simulated evolution at scale and print stats")
    sim_p.add_argument("--tournaments", type=int, default=1000, help="minimum elite tournaments")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--params", type=Path, help="JSON file of simulator parameters")
    sim_p.add_argument("--output", type=Path, help="keep run artifacts here instead of a temp dir")

    comp_p = sub.add_parser("compress", help="compress a JSONL transcript to a token target")
    comp_p.add_argument("transcript", type=Path)
    comp_p.add_argument("--rendered", type=Path, required=True, help="output context JSONL")
    comp_p.add_argument("--sidecar", type=Path, help="selection status sidecar JSON")
    comp_p.add_argument("--target-tokens", type=int, default=20_000)
    comp_p.add_argument("--trigger-tokens", type=int, default=100_000)
    comp_p.add_argument("--window-groups", type=int, default=50)
    comp_p.add_argument("--protected-groups", type=int, default=5)
    comp_p.add_argument("--summary-fraction", type=float, default=0.1)

    return parser


@contextlib.contextmanager
def _sole_writer(root: Path):
    """Hold an exclusive lock on the root's lock file while the body
    runs, so a second run or resume of the same root fails at once
    instead of writing beside the first.  The kernel drops the lock
    when its process dies."""
    with open(root / LOCK_FILENAME, "a") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SeedevoError(f"output root in use: {root}") from None
        yield


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(config_file=args.config, overrides=_config_overrides(args))
    if args.print_config:
        print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    from .engine import EvolutionEngine
    from .executors import build_executor

    executor = build_executor(config)
    args.output.mkdir(parents=True, exist_ok=True)
    with _sole_writer(args.output):
        engine = EvolutionEngine.start(config, executor, args.output)
        return _run_to_end(engine, args.output)


def cmd_resume(args: argparse.Namespace) -> int:
    from .engine import EvolutionEngine
    from .workspace import RunStore

    RunStore.open(args.output)  # a root that holds no run exits 3, untouched
    with _sole_writer(args.output):
        engine = EvolutionEngine.resume(args.output)
        if engine.stopped:
            print(f"run already complete at iteration {engine.iteration}")
            return EXIT_OK
        return _run_to_end(engine, args.output)


def _run_to_end(engine: EvolutionEngine, output_root: Path) -> int:
    """Finish the run, write its JSON report and print the result."""
    best = engine.run()
    _write_report(output_root, "json", output_root / "report")
    if best is not None:
        print(f"stopped after iteration {engine.iteration}; best score {best.score!r} "
              f"(slot {best.slot}, {best.origin_operator})")
    else:
        print(f"stopped after iteration {engine.iteration}; no verified result")
    return EXIT_OK


def _write_report(output_root: Path, fmt: str, dest: Path) -> list[Path]:
    from . import reporting
    from .events import read_events
    from .workspace import RunStore

    store = RunStore.open(output_root)
    events, skipped = read_events(store.events_path)
    if skipped:
        print(f"warning: skipped {skipped} malformed event lines", file=sys.stderr)
    stats = reporting.compute_operator_stats(events)
    progression = reporting.best_score_progression(events)
    edges = reporting.lineage_edges(events)
    return reporting.export_report(stats, progression, edges, fmt, dest)


def cmd_report(args: argparse.Namespace) -> int:
    dest = args.dest if args.dest else args.output / "report"
    paths = _write_report(args.output, args.format, dest)
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import reporting
    from .engine import EvolutionEngine
    from .events import read_events
    from .executors import SimModelParams, build_executor
    from .operators import Operator

    if args.tournaments < 1:
        raise ConfigurationError("tournaments", f"must be >= 1, got {args.tournaments}")
    raw_params = read_json_object(args.params, "params") if args.params else {}
    params = SimModelParams.from_dict(raw_params)
    fails = params.failure_prob.get(Operator.INITIAL, 0.0)
    if fails >= 1:  # a slot without an elite replans as initial: no run could ever pool
        raise ConfigurationError("failure_prob.initial", f"must be < 1 for simulate, got {fails}")

    def collect(root: Path) -> list[dict]:
        events: list[dict] = []
        run_index = 0
        qualifying = 0
        while qualifying < args.tournaments:
            config = load_config(env={}, overrides={
                "master_seed": args.seed + run_index,
                "higher_is_better": params.direction.higher_is_better,
                "sim_params": params.to_dict(),
            })
            out_dir = root / f"sim_{run_index:03d}"
            engine = EvolutionEngine.start(config, build_executor(config), out_dir)
            engine.run()
            run_events, _ = read_events(engine.store.events_path)
            events.extend(run_events)
            qualifying += sum(s.tournaments for s in reporting.compute_operator_stats(run_events))
            run_index += 1
        return events

    if args.output:
        events = collect(args.output)
    else:
        with tempfile.TemporaryDirectory(prefix="seedevo_sim_") as tmp:
            events = collect(Path(tmp))

    stats = reporting.compute_operator_stats(events)
    total = sum(s.tournaments for s in stats)
    print(f"{'operator':<12} {'tournaments':>11} {'wins':>6} {'win_rate':>9} {'med_rel_gain':>13}")
    for s in stats:
        gain = "-" if s.median_relative_gain is None else f"{s.median_relative_gain:+.4%}"
        print(
            f"{s.operator:<12} {s.tournaments:>11} {s.wins:>6} {s.win_rate:>9.3f} {gain:>13}"
        )
    pooled = reporting.pooled_win_rate(stats)
    print(f"\n{total} elite tournaments; parent-conditioned pooled win rate {pooled:.3f}")
    return EXIT_OK


def cmd_compress(args: argparse.Namespace) -> int:
    from . import compression

    try:
        budget = compression.BudgetConfig(
            trigger_tokens=args.trigger_tokens,
            target_tokens=args.target_tokens,
            window_groups=args.window_groups,
            recent_groups_protected=args.protected_groups,
        )
    except ValueError as exc:
        raise ConfigurationError("budget", str(exc)) from exc
    try:
        summarizer = compression.head_fraction_summarizer(args.summary_fraction)
    except ValueError as exc:
        raise ConfigurationError("summary_fraction", str(exc)) from exc
    try:
        history = compression.load_transcript(args.transcript)
    except (OSError, ValueError) as exc:
        raise ConfigurationError("transcript", str(exc)) from exc
    compression.compress_pending(history, summarizer, budget)
    groups = compression.group_messages(history)
    result = compression.select_statuses(history, groups, budget)
    rendered = compression.reconstruct_context(history, groups, result.statuses, budget)
    compression.write_rendered_context(args.rendered, rendered)
    if args.sidecar:
        compression.write_selection_sidecar(args.sidecar, groups, result)
    flag = " (over budget)" if result.over_budget else ""
    print(
        f"{len(history.messages)} messages in {len(groups)} groups -> "
        f"{len(rendered)} kept, {result.total_tokens} tokens{flag}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "resume": cmd_resume,
        "report": cmd_report,
        "simulate": cmd_simulate,
        "compress": cmd_compress,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorruptStateError as exc:
        print(f"corrupt state: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except SeedevoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
