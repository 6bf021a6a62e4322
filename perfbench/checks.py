"""Independent output checks, run outside the timed region.

Each check is written from the documented rules in README.md and the
module docstrings, not by calling the package: the checker has its own
token counter, grouping, summarizer, truncation and selection walk,
and its own replay of tournaments and allocator bounds.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

TOKEN_RE = re.compile(r"\w+|[^\w\s]")
TRUNCATE_HEAD = 64
TRUNCATE_MARKER = " [truncated]"
MIN_COMPRESS_TOKENS = 50
PARENT_DIR = "Previous Experiments"
EPS = 1e-9


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- evolve_* ---------------------------------------------------------


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _gain(child: float, parent: float, higher: bool) -> float:
    return child - parent if higher else parent - child


def check_evolve(root: Path, agent_rule: bool) -> list[str]:
    """Replay events.jsonl against the tournament, allocator and stopping
    rules, and check every archived child's manifest.  With agent_rule,
    also recompute each score from the agent script's integer rule and
    compare each inherited parent copy with its archive."""
    root = Path(root)
    config = json.loads((root / "run_config.json").read_text(encoding="utf-8"))
    events = _read_jsonl(root / "events.jsonl")
    pop = config["population_size"]
    iterations = config["max_iterations"]
    higher = config["higher_is_better"]
    active = {op for op, p in config["base_probs"].items() if p > 0}
    problems: list[str] = []
    per_iteration = pop + 2
    if len(events) != iterations * per_iteration:
        return [f"{len(events)} events, expected {iterations * per_iteration}"]

    elite: dict[int, float | None] = {}  # slot -> score; None is the empty sentinel
    best_so_far = None
    for t in range(1, iterations + 1):
        block = events[(t - 1) * per_iteration : t * per_iteration]
        for slot, ev in enumerate(block[:pop]):
            where = f"iteration {t} slot {slot}"
            if (ev.get("type"), ev.get("iteration"), ev.get("slot")) != ("tournament", t, slot):
                problems.append(f"{where}: expected its tournament event, got {ev}")
                continue
            if t == 1 and (ev["operator"] != "initial" or ev["parent_ids"]):
                problems.append(f"{where}: first iteration must seed initial runs")
            present = slot in elite
            incumbent = elite.get(slot)
            if ev["parent_score"] != incumbent:
                problems.append(f"{where}: parent_score {ev['parent_score']} != elite {incumbent}")
            valid = ev["child_valid"]
            score = ev["child_score"]
            if valid and not (isinstance(score, (int, float)) and math.isfinite(score)):
                problems.append(f"{where}: valid child without a finite score")
                continue
            if not valid and (score is not None or ev["child_id"] is not None):
                problems.append(f"{where}: invalid child carries a score or an archive")
            if valid and ev["child_id"] != f"it{t:04d}_slot{slot:02d}":
                problems.append(f"{where}: child_id {ev['child_id']!r}")
            if present and incumbent is not None:
                won = valid and _gain(score, incumbent, higher) > 0
                delta = _gain(score, incumbent, higher) if valid else None
            else:
                won = valid
                delta = None
            if ev["child_won"] != won:
                problems.append(f"{where}: child_won {ev['child_won']}, rule says {won}")
            if ev["delta"] != delta:
                problems.append(f"{where}: delta {ev['delta']}, rule says {delta}")
            if won:
                elite[slot] = score
            elif not present:
                elite[slot] = None
        hedge, stopping = block[pop], block[pop + 1]
        if (hedge.get("type"), hedge.get("iteration")) != ("hedge", t):
            problems.append(f"iteration {t}: expected a hedge event, got {hedge}")
        else:
            problems.extend(_check_probabilities(hedge["probabilities"], config, active, t))
        if (stopping.get("type"), stopping.get("iteration")) != ("stopping", t):
            problems.append(f"iteration {t}: expected a stopping event, got {stopping}")
            continue
        scores = [s for s in elite.values() if s is not None]
        iteration_best = (max(scores) if higher else min(scores)) if scores else None
        if stopping["iteration_best"] != iteration_best:
            problems.append(f"iteration {t}: iteration_best {stopping['iteration_best']} != {iteration_best}")
        now = stopping["best_so_far"]
        if best_so_far is not None and (now is None or _gain(now, best_so_far, higher) < 0):
            problems.append(f"iteration {t}: best_so_far worsened from {best_so_far} to {now}")
        best_so_far = now
        if stopping["stop"] != (t == iterations):
            problems.append(f"iteration {t}: stop={stopping['stop']} before the iteration budget")

    problems.extend(_check_manifests(root, events))
    if agent_rule:
        problems.extend(_check_agent_rule(root, events))
        problems.extend(_check_parent_copies(root, events))
    return problems[:20]


def _check_probabilities(probs: dict, config: dict, active: set, t: int) -> list[str]:
    out = []
    if set(probs) != active:
        out.append(f"iteration {t}: hedge operators {sorted(probs)} != active {sorted(active)}")
    if abs(sum(probs.values()) - 1.0) > EPS:
        out.append(f"iteration {t}: hedge probabilities sum to {sum(probs.values())}")
    for op, p in probs.items():
        lo = config["floors"].get(op, 0.0)
        hi = config["ceilings"].get(op, 1.0)
        if p < lo - EPS or p > hi + EPS:
            out.append(f"iteration {t}: {op} probability {p} outside [{lo}, {hi}]")
    return out


def _check_manifests(root: Path, events: list[dict]) -> list[str]:
    out = []
    for ev in events:
        if ev["type"] != "tournament" or ev["child_id"] is None:
            continue
        path = root / "archives" / ev["child_id"] / "manifest.json"
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            out.append(f"{ev['child_id']}: manifest unreadable: {exc}")
            continue
        if manifest.get("score") != ev["child_score"]:
            out.append(f"{ev['child_id']}: manifest score {manifest.get('score')} != {ev['child_score']}")
        if manifest.get("parent_ids") != ev["parent_ids"]:
            out.append(f"{ev['child_id']}: manifest parents {manifest.get('parent_ids')} != {ev['parent_ids']}")
    return out


def agent_score(parent_score: int | None, iteration: int, slot: int) -> int:
    """The integer rule agent.sh applies; kept in step with that script."""
    if parent_score is None:
        return 500 + (iteration * 37 + slot * 101) % 200
    return parent_score + (iteration * 7 + slot * 13) % 11 - 5


def _check_agent_rule(root: Path, events: list[dict]) -> list[str]:
    out = []
    for ev in events:
        if ev["type"] != "tournament":
            continue
        if not ev["child_valid"]:
            out.append(f"iteration {ev['iteration']} slot {ev['slot']}: agent run not verified")
            continue
        parent = None
        if ev["parent_ids"]:
            manifest = root / "archives" / ev["parent_ids"][0] / "manifest.json"
            parent = int(json.loads(manifest.read_text(encoding="utf-8"))["score"])
        want = agent_score(parent, ev["iteration"], ev["slot"])
        if ev["child_score"] != want:
            out.append(
                f"iteration {ev['iteration']} slot {ev['slot']}: score {ev['child_score']}, "
                f"agent rule gives {want}"
            )
    return out


def _tree(base: Path) -> dict[str, Path]:
    """Relative path -> file, leaving out inherited parent directories."""
    out = {}
    for path in base.rglob("*"):
        rel = path.relative_to(base)
        if PARENT_DIR in rel.parts or path.is_dir():
            continue
        out[rel.as_posix()] = path
    return out


def _check_parent_copies(root: Path, events: list[dict]) -> list[str]:
    out = []
    for ev in events:
        if ev["type"] != "tournament":
            continue
        workspace = root / "workspaces" / f"iter_{ev['iteration']:04d}" / f"slot_{ev['slot']:02d}"
        for i, parent_id in enumerate(ev["parent_ids"]):
            copy = _tree(workspace / PARENT_DIR / f"parent_{i}")
            archive = _tree(root / "archives" / parent_id)
            if sorted(copy) != sorted(archive):
                out.append(f"{workspace.name} parent_{i}: paths differ from archive {parent_id}")
                continue
            for rel, path in archive.items():
                if path.read_bytes() != copy[rel].read_bytes():
                    out.append(f"{workspace.name} parent_{i}: {rel} differs from archive {parent_id}")
                    break
    return out


# -- compress_* -------------------------------------------------------


def count(text: str) -> int:
    return len(TOKEN_RE.findall(text))


def payload(text: str, args: dict | None) -> int:
    return count(text) + sum(count(k) + count(v) for k, v in (args or {}).items())


def truncate(text: str) -> str:
    spans = list(TOKEN_RE.finditer(text))
    if len(spans) <= TRUNCATE_HEAD:
        return text
    return text[: spans[TRUNCATE_HEAD - 1].end()] + TRUNCATE_MARKER


def summarize(text: str, fraction: float) -> str:
    return text[: max(1, int(len(text) * fraction))]


def compressed_tokens(record: dict, fraction: float) -> int:
    """Token cost of a message's cached compact form."""
    text, args = record["text"], record.get("tool_call_args")
    if payload(text, args) < MIN_COMPRESS_TOKENS:
        return payload(text, args)
    short = summarize(text, fraction)
    if count(short) < count(text):
        text = short
    if args is not None:
        kept = {}
        for key, value in args.items():
            short = summarize(value, fraction)
            shorter = count(value) >= MIN_COMPRESS_TOKENS and count(short) < count(value)
            kept[key] = short if shorter else value
        args = kept
    return payload(text, args)


def groups_of(records: list[dict]) -> list[list[int]]:
    """Record indexes per group: an AI tool call absorbs the tool messages
    that follow it; every other message stands alone."""
    groups: list[list[int]] = []
    absorbing = False
    for i, record in enumerate(records):
        if record["role"] == "tool" and absorbing:
            groups[-1].append(i)
            continue
        groups.append([i])
        absorbing = record["role"] == "ai" and record.get("tool_call_args") is not None
    return groups


def expected_statuses(records: list[dict], budget: dict) -> list[str]:
    """The staged degradation walk over the checker's own token table."""
    groups = groups_of(records)
    fraction = budget["summary_fraction"]
    table = []
    for members in groups:
        rows = [records[i] for i in members]
        table.append(
            {
                "original": sum(payload(r["text"], r.get("tool_call_args")) for r in rows),
                "compressed": sum(compressed_tokens(r, fraction) for r in rows),
                "truncate": sum(count(truncate(r["text"])) for r in rows),
                "drop": 0,
            }
        )
    n = len(groups)
    start = max(0, n - budget["window_groups"])
    statuses = ["drop"] * start + ["original"] * (n - start)
    survivors = range(start, n)
    if not survivors:
        return statuses
    protected = set(survivors[-budget["protected_groups"]:]) if budget["protected_groups"] else set()
    total = sum(table[i]["original"] for i in survivors)
    if total <= budget["target_tokens"]:
        return statuses
    for stage in ("compressed", "truncate", "drop"):
        for i in survivors:
            if i in protected or (stage == "drop" and i == start):
                continue
            if table[i][stage] >= table[i][statuses[i]]:
                continue
            total += table[i][stage] - table[i][statuses[i]]
            statuses[i] = stage
            if total <= budget["target_tokens"]:
                return statuses
    return statuses


def check_compress(transcript: Path, rendered: Path, sidecar: Path, budget: dict) -> list[str]:
    """Token recount, window/protection/order rules, and the selection walk."""
    records = _read_jsonl(transcript)
    rows = _read_jsonl(rendered)
    side = json.loads(Path(sidecar).read_text(encoding="utf-8"))
    problems = []
    recount = sum(payload(r["text"], r.get("tool_call_args")) for r in rows)
    if recount != side["total_tokens"]:
        problems.append(f"rendered context has {recount} tokens, sidecar says {side['total_tokens']}")
    groups = groups_of(records)
    statuses = [g["status"] for g in side["groups"]]
    if [g["member_ids"] for g in side["groups"]] != [[records[i]["id"] for i in m] for m in groups]:
        return problems + ["sidecar groups differ from the transcript's grouping"]
    n = len(groups)
    start = max(0, n - budget["window_groups"])
    if any(s != "drop" for s in statuses[:start]):
        problems.append("a group older than the window was kept")
    if n > start and statuses[start] == "drop":
        problems.append("the oldest group in the window was dropped")
    if any(s != "original" for s in statuses[max(start, n - budget["protected_groups"]):]):
        problems.append("a protected group was degraded")
    ids = [r["id"] for r in rows]
    kept = [records[i]["id"] for m, s in zip(groups, statuses) if s != "drop" for i in m]
    if ids != kept:
        problems.append("rendered messages are not the kept messages in transcript order")
    want = expected_statuses(records, budget)
    if statuses != want:
        first = next(i for i, (a, b) in enumerate(zip(statuses, want)) if a != b)
        problems.append(f"group {first}: status {statuses[first]}, walk gives {want[first]}")
    return problems


def sidecar_statuses(sidecar: Path) -> list[str]:
    return [g["status"] for g in json.loads(Path(sidecar).read_text(encoding="utf-8"))["groups"]]
