"""Post-hoc analysis of a run's event log.

Answers the questions a search practitioner asks afterwards: which
operators actually won their tournaments, how large were the relative
gains, and how did the best score progress.  Only tournaments fought
against a real elite parent count toward operator statistics; the
unconditional installs of iteration 1 have no incumbent to beat.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigurationError
from .operators import Operator

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OperatorStats:
    operator: str
    tournaments: int
    wins: int
    win_rate: float
    median_relative_gain: float | None


def tournament_rows(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("type") == "tournament"]


def compute_operator_stats(events: list[dict]) -> list[OperatorStats]:
    """Per-operator win rates and median relative gains.

    A tournament qualifies when it had an elite parent (parent_score
    present); invalid children count as losses.  Relative gain is
    delta over |parent_score|; records with a zero parent score, whose
    relative gain is undefined, are left out of the median.
    """
    counts: dict[str, int] = {}
    wins: dict[str, int] = {}
    gains: dict[str, list[float]] = {}
    for row in tournament_rows(events):
        if row.get("parent_score") is None:
            continue
        op = row["operator"]
        counts[op] = counts.get(op, 0) + 1
        if row.get("child_won"):
            wins[op] = wins.get(op, 0) + 1
        delta = row.get("delta")
        parent = row["parent_score"]
        if delta is not None and parent != 0:
            gains.setdefault(op, []).append(delta / abs(parent))
    stats = []
    for op in sorted(counts):
        n = counts[op]
        w = wins.get(op, 0)
        rels = gains.get(op, [])
        stats.append(
            OperatorStats(
                operator=op,
                tournaments=n,
                wins=w,
                win_rate=w / n,
                median_relative_gain=statistics.median(rels) if rels else None,
            )
        )
    return stats


def pooled_win_rate(stats: list[OperatorStats], operators: list[str] | None = None) -> float:
    """Aggregate win rate over a subset of operators.

    Default subset is every parent-conditioned operator, i.e. all but
    initial; useful for comparing inherited-context proposals against
    from-scratch ones.
    """
    if operators is None:
        operators = [s.operator for s in stats if s.operator != Operator.INITIAL.value]
    chosen = [s for s in stats if s.operator in operators]
    total = sum(s.tournaments for s in chosen)
    if total == 0:
        return 0.0
    return sum(s.wins for s in chosen) / total


def best_score_progression(events: list[dict]) -> list[tuple[int, float]]:
    """Best-so-far score after each iteration, from stopping events."""
    out: list[tuple[int, float]] = []
    for e in events:
        if e.get("type") == "stopping" and e.get("best_so_far") is not None:
            out.append((e["iteration"], e["best_so_far"]))
    return out


def lineage_edges(events: list[dict]) -> list[dict]:
    """Parent-child graph edges for every archived child."""
    edges = []
    for row in tournament_rows(events):
        if row.get("child_id") is None:
            continue
        edges.append(
            {
                "child_id": row["child_id"],
                "parent_ids": list(row.get("parent_ids", [])),
                "operator": row["operator"],
                "iteration": row["iteration"],
                "slot": row["slot"],
                "child_won": bool(row.get("child_won")),
            }
        )
    return edges


def export_report(
    stats: list[OperatorStats],
    progression: list[tuple[int, float]],
    edges: list[dict],
    fmt: str,
    destination: Path,
) -> list[Path]:
    """Write the report; destination is a directory.

    json produces a single report.json; csv produces one table per
    file.  Every output row carries schema_version.
    """
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "operator_stats": [asdict(s) for s in stats],
            "best_score_progression": [
                {"iteration": it, "best_score": score} for it, score in progression
            ],
            "lineage_edges": edges,
        }
        path = destination / "report.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return [path]
    if fmt == "csv":
        return [
            _write_table(
                destination / "operator_stats.csv",
                ["operator", "tournaments", "wins", "win_rate", "median_relative_gain"],
                [
                    [s.operator, s.tournaments, s.wins, repr(s.win_rate),
                     "" if s.median_relative_gain is None else repr(s.median_relative_gain)]
                    for s in stats
                ],
            ),
            _write_table(
                destination / "progression.csv",
                ["iteration", "best_score"],
                [[it, repr(score)] for it, score in progression],
            ),
            _write_table(
                destination / "lineage_edges.csv",
                ["child_id", "parent_ids", "operator", "iteration", "slot", "child_won"],
                [
                    [e["child_id"], ";".join(e["parent_ids"]), e["operator"], e["iteration"],
                     e["slot"], int(e["child_won"])]
                    for e in edges
                ],
            ),
        ]
    raise ConfigurationError("format", f"unknown report format {fmt!r}")


def _write_table(path: Path, header: list[str], rows: list[list]) -> Path:
    """One CSV table; schema_version leads the header and every row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", *header])
        for row in rows:
            writer.writerow([SCHEMA_VERSION, *row])
    return path
