"""Reporting tests: operator statistics, progression, lineage, and
report export, including a frozen end-to-end golden."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from seedevo.config import RunConfig
from seedevo.engine import EvolutionEngine
from seedevo.errors import ConfigurationError
from seedevo.events import read_events
from seedevo.executors import SimModelParams, SimulatedExecutor
from seedevo.reporting import (
    best_score_progression,
    compute_operator_stats,
    export_report,
    lineage_edges,
    pooled_win_rate,
)

GOLDEN_REPORT = Path(__file__).parent / "data" / "golden_report.json"


def tournament(
    iteration: int,
    slot: int,
    operator: str,
    parent_score: float | None,
    child_score: float | None,
    child_won: bool,
    delta: float | None = None,
    child_id: str | None = None,
    parent_ids: tuple[str, ...] = (),
) -> dict:
    return {
        "type": "tournament",
        "iteration": iteration,
        "slot": slot,
        "operator": operator,
        "parent_score": parent_score,
        "child_score": child_score,
        "delta": delta,
        "child_won": child_won,
        "child_valid": child_score is not None,
        "child_id": child_id,
        "parent_ids": list(parent_ids),
    }


def stopping(iteration: int, best: float | None) -> dict:
    return {"type": "stopping", "iteration": iteration, "best_so_far": best, "stop": False}


# -- operator statistics ---------------------------------------------


def test_stats_basic_win_rate():
    events = [
        tournament(2, 0, "continue", 0.50, 0.55, True, delta=0.05),
        tournament(3, 0, "continue", 0.55, 0.54, False, delta=-0.01),
    ]
    [stats] = compute_operator_stats(events)
    assert stats.operator == "continue"
    assert stats.tournaments == 2 and stats.wins == 1
    assert stats.win_rate == 0.5
    # relative gains 0.05/0.50 and -0.01/0.55; the median of two is their mean
    assert stats.median_relative_gain == pytest.approx((0.1 - 0.01 / 0.55) / 2)


def test_stats_empty_events():
    assert compute_operator_stats([]) == []
    assert compute_operator_stats([stopping(1, 0.5)]) == []


def test_stats_excludes_unconditional_installs():
    events = [
        tournament(1, 0, "initial", None, 0.50, True),
        tournament(2, 0, "eda", 0.50, 0.52, True, delta=0.02),
    ]
    stats = compute_operator_stats(events)
    assert [s.operator for s in stats] == ["eda"]
    assert stats[0].tournaments == 1


def test_stats_invalid_children_count_as_losses():
    events = [
        tournament(2, 0, "merge", 0.50, None, False),
        tournament(3, 0, "merge", 0.50, 0.60, True, delta=0.10),
    ]
    [stats] = compute_operator_stats(events)
    assert stats.tournaments == 2 and stats.wins == 1
    assert stats.win_rate == 0.5
    # the invalid child has no delta; median comes from the one real gain
    assert stats.median_relative_gain == pytest.approx(0.2)


def test_stats_relative_gain_uses_absolute_parent():
    events = [tournament(2, 0, "continue", -0.50, -0.40, True, delta=0.10)]
    [stats] = compute_operator_stats(events)
    assert stats.median_relative_gain == pytest.approx(0.10 / 0.50)


def test_stats_zero_parent_excluded_with_diagnostic():
    events = [
        tournament(2, 0, "continue", 0.0, 0.10, True, delta=0.10),
        tournament(3, 0, "continue", 0.10, 0.20, True, delta=0.10),
    ]
    [stats] = compute_operator_stats(events)
    assert stats.tournaments == 2
    assert stats.median_relative_gain == pytest.approx(1.0)


def test_stats_sorted_by_operator_name():
    events = [
        tournament(2, 0, "merge", 0.5, 0.6, True, delta=0.1),
        tournament(2, 1, "ablation", 0.5, 0.4, False, delta=-0.1),
        tournament(2, 2, "continue", 0.5, 0.6, True, delta=0.1),
    ]
    assert [s.operator for s in compute_operator_stats(events)] == [
        "ablation", "continue", "merge",
    ]


# -- pooled win rate -------------------------------------------------


def pooled_fixture():
    events = [
        tournament(2, 0, "initial", 0.5, 0.4, False, delta=-0.1),
        tournament(2, 1, "continue", 0.5, 0.6, True, delta=0.1),
        tournament(2, 2, "continue", 0.5, 0.6, True, delta=0.1),
        tournament(2, 3, "merge", 0.5, 0.4, False, delta=-0.1),
    ]
    return compute_operator_stats(events)


def test_pooled_default_excludes_initial():
    stats = pooled_fixture()
    assert pooled_win_rate(stats) == pytest.approx(2 / 3)


def test_pooled_explicit_subset():
    stats = pooled_fixture()
    assert pooled_win_rate(stats, ["continue"]) == 1.0
    assert pooled_win_rate(stats, ["merge"]) == 0.0
    assert pooled_win_rate(stats, ["initial", "merge"]) == 0.0


def test_pooled_empty_subset_is_zero():
    assert pooled_win_rate([], None) == 0.0
    assert pooled_win_rate(pooled_fixture(), ["jumpstart"]) == 0.0


# -- progression and lineage -----------------------------------------


def test_progression_reads_stopping_events():
    events = [
        stopping(1, 0.5),
        tournament(2, 0, "eda", 0.5, 0.6, True, delta=0.1),
        stopping(2, 0.6),
        stopping(3, None),
        stopping(4, 0.6),
    ]
    assert best_score_progression(events) == [(1, 0.5), (2, 0.6), (4, 0.6)]


def test_lineage_edges_require_child_id():
    events = [
        tournament(1, 0, "initial", None, 0.5, True, child_id="it0001_slot00"),
        tournament(2, 0, "merge", 0.5, None, False),  # failed child, no archive
        tournament(
            2, 1, "merge", 0.5, 0.6, True, delta=0.1,
            child_id="it0002_slot01", parent_ids=("it0001_slot01", "it0001_slot00"),
        ),
    ]
    edges = lineage_edges(events)
    assert len(edges) == 2
    assert edges[0]["parent_ids"] == []
    assert edges[1] == {
        "child_id": "it0002_slot01",
        "parent_ids": ["it0001_slot01", "it0001_slot00"],
        "operator": "merge",
        "iteration": 2,
        "slot": 1,
        "child_won": True,
    }


# -- export ----------------------------------------------------------


def report_inputs():
    events = [
        tournament(1, 0, "initial", None, 0.5, True, child_id="a"),
        tournament(2, 0, "continue", 0.5, 0.6, True, delta=0.1, child_id="b", parent_ids=("a",)),
        stopping(1, 0.5),
        stopping(2, 0.6),
    ]
    stats = compute_operator_stats(events)
    return stats, best_score_progression(events), lineage_edges(events)


def test_export_json_round_trip(tmp_path):
    stats, prog, edges = report_inputs()
    [path] = export_report(stats, prog, edges, "json", tmp_path / "out")
    raw = json.loads(path.read_text())
    assert raw["schema_version"] == 1
    assert raw["operator_stats"] == [asdict(s) for s in stats]
    assert raw["best_score_progression"] == [
        {"iteration": 1, "best_score": 0.5},
        {"iteration": 2, "best_score": 0.6},
    ]
    assert len(raw["lineage_edges"]) == 2


def test_export_csv_round_trip(tmp_path):
    stats, prog, edges = report_inputs()
    paths = export_report(stats, prog, edges, "csv", tmp_path / "out")
    assert [p.name for p in paths] == [
        "operator_stats.csv", "progression.csv", "lineage_edges.csv",
    ]
    with open(paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["operator"] == "continue"
    assert float(rows[0]["win_rate"]) == 1.0
    assert float(rows[0]["median_relative_gain"]) == pytest.approx(0.2)
    with open(paths[1], newline="") as fh:
        prog_rows = list(csv.DictReader(fh))
    assert [(int(r["iteration"]), float(r["best_score"])) for r in prog_rows] == prog
    with open(paths[2], newline="") as fh:
        edge_rows = list(csv.DictReader(fh))
    assert edge_rows[1]["parent_ids"] == "a"
    assert edge_rows[1]["child_won"] == "1"


def test_export_none_median_is_blank_cell(tmp_path):
    events = [tournament(2, 0, "merge", 0.5, None, False)]
    stats = compute_operator_stats(events)
    paths = export_report(stats, [], [], "csv", tmp_path / "out")
    with open(paths[0], newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert row["median_relative_gain"] == ""


def test_export_unknown_format(tmp_path):
    with pytest.raises(ConfigurationError):
        export_report([], [], [], "xml", tmp_path / "out")


# -- frozen end-to-end golden ----------------------------------------


def test_report_golden_from_seeded_run(tmp_path):
    """A fixed simulated run must keep producing byte-identical
    report.json output; regenerating here guards the whole chain from
    events through statistics to serialization."""
    config = RunConfig(master_seed=5, max_iterations=4, patience=50)
    executor = SimulatedExecutor(SimModelParams(), master_seed=config.master_seed)
    engine = EvolutionEngine.start(config, executor, tmp_path / "run")
    engine.run()
    events, skipped = read_events(engine.store.events_path)
    assert skipped == 0
    [path] = export_report(
        compute_operator_stats(events),
        best_score_progression(events),
        lineage_edges(events),
        "json",
        tmp_path / "report",
    )
    assert path.read_bytes() == GOLDEN_REPORT.read_bytes()
