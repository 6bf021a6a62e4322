"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, seed): the same seed
writes byte-identical files.  Nothing here imports seedevo, so inputs
do not change when the program does.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

# Sizes are fixed per workload; the seed only changes content.  Fixed
# sizes keep the cost of a round independent of the seed, so runs with
# different seeds measure the same amount of work.  The transcripts of
# one workload share a size, so the median transcript time is taken over
# every operation of the run rather than over a third of them.
EVOLVE_LONG = {"population_size": 8, "max_iterations": 200}
EVOLVE_INHERIT = {"population_size": 2, "max_iterations": 100}
COMPRESS_WIDE_GROUPS = (200, 200, 200, 200)
COMPRESS_LONG_GROUPS = (2500, 2500, 2500)

#: Budget for compress_wide: the window covers every group and the
#: target sits below what the five protected groups alone take, so the
#: stage-two walk makes every move it can, the same amount of work for
#: every seed (a reachable target ends the walk at a seed-dependent point).
COMPRESS_WIDE_BUDGET = {
    "target_tokens": 100,
    "trigger_tokens": 100_000,
    "protected_groups": 5,
    "summary_fraction": 0.1,
}
#: compress_long uses the defaults of `seedevo compress`.
COMPRESS_LONG_BUDGET = {
    "target_tokens": 20_000,
    "trigger_tokens": 100_000,
    "window_groups": 50,
    "protected_groups": 5,
    "summary_fraction": 0.1,
}

#: The initial-seed solution tree the evolve_inherit agent copies in:
#: 8 files of 64 KiB, 0.5 MiB in all.  Few large files rather than many
#: small ones: creating a file on a disk-backed checkout costs from tens
#: to hundreds of microseconds depending on recent disk activity, and
#: with 64 files that cost swamped the orchestration being measured.
TEMPLATE_FILES = 8
TEMPLATE_FILE_BYTES = 65536

SYLLABLES = ("ka", "to", "ri", "mu", "se", "na", "lo", "vi", "de", "po", "xa", "qu")
PUNCTUATION = (",", ".", ":", ";", "(", ")", "=", "->", "!", "?")


def derive_seed(seed: int, *path: object) -> int:
    """64-bit seed for one purpose, derived from the workload seed."""
    key = ":".join(str(p) for p in (seed, *path))
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def evolve_config(workload: str, seed: int, agent: Path | None, data: Path | None) -> dict:
    """The config file an evolve_* round loads, as `seedevo run --config` would."""
    size = EVOLVE_LONG if workload == "evolve_long" else EVOLVE_INHERIT
    config = {
        "population_size": size["population_size"],
        "max_iterations": size["max_iterations"],
        # high enough that the iteration budget, not stagnation, ends the run
        "patience": 10 * size["max_iterations"],
        "workers": 2,
        "num_training_runs": 1,
        "master_seed": derive_seed(seed, workload, "master") % (2**31),
    }
    if agent is not None:
        config.update(
            executor="external",
            external_command=["sh", str(agent)],
            data_path=str(data),
            data_provisioning="link",
        )
    return config


def write_task_data(seed: int, dest: Path) -> None:
    """Task data for evolve_inherit: a seeded solution template tree."""
    rng = random.Random(derive_seed(seed, "evolve_inherit", "template"))
    template = dest / "solution_template"
    for i in range(TEMPLATE_FILES):
        sub = template / f"part_{i % 2}"
        sub.mkdir(parents=True, exist_ok=True)
        (sub / f"module_{i:02d}.txt").write_bytes(rng.randbytes(TEMPLATE_FILE_BYTES))


def _text(rng: random.Random, words: int) -> str:
    out = []
    for i in range(words):
        out.append("".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 4))))
        if i % 7 == 6:
            out.append(rng.choice(PUNCTUATION))
    return " ".join(out)


#: Group kinds in a fixed cycle: "human", "ai", or the number of tool
#: messages answering an AI tool call.  A fixed cycle gives every seed the
#: same message count for a given group count; the seed picks the text.
GROUP_CYCLE = ("human", 2, "ai", 1, "human", 3, "ai", 2)


def transcript_records(rng: random.Random, groups: int) -> list[dict]:
    """JSONL records for one transcript of exactly `groups` groups.

    The first group is a system message; the rest follow GROUP_CYCLE.
    Lengths straddle the 50-token compression floor and the 64-token
    truncation head, so every stage of the walk has work to do.
    """
    records: list[dict] = [{"role": "system", "text": _text(rng, rng.randint(20, 60))}]
    for g in range(groups - 1):
        kind = GROUP_CYCLE[g % len(GROUP_CYCLE)]
        if kind == "human":
            records.append({"role": "human", "text": _text(rng, rng.randint(5, 120))})
        elif kind == "ai":
            records.append({"role": "ai", "text": _text(rng, rng.randint(10, 220))})
        else:
            args = {
                "command": _text(rng, rng.randint(3, 90)),
                "path": f"src/{_text(rng, 1)}.py",
            }
            records.append(
                {"role": "ai", "text": _text(rng, rng.randint(3, 40)), "tool_call_args": args}
            )
            for _ in range(kind):
                records.append({"role": "tool", "text": _text(rng, rng.randint(5, 260))})
    for i, record in enumerate(records):
        record["id"] = i
    return records


def write_transcripts(workload: str, seed: int, dest: Path) -> list[Path]:
    sizes = COMPRESS_WIDE_GROUPS if workload == "compress_wide" else COMPRESS_LONG_GROUPS
    paths = []
    for n, groups in enumerate(sizes):
        rng = random.Random(derive_seed(seed, workload, "transcript", n))
        path = dest / f"transcript_{n}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for record in transcript_records(rng, groups):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def compress_budget(workload: str, transcript: Path) -> dict:
    """Budget flags for one transcript; compress_wide widens the window to
    cover every group of that transcript."""
    if workload == "compress_long":
        return dict(COMPRESS_LONG_BUDGET)
    n = int(transcript.stem.rsplit("_", 1)[1])
    return dict(COMPRESS_WIDE_BUDGET, window_groups=COMPRESS_WIDE_GROUPS[n])
