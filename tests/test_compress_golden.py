"""Byte-for-byte guard on `seedevo compress`.

tests/data/compress_golden.jsonl is a generated transcript of 120
groups: long tool-call arguments, an orphan tool message on each side
of the default 50-group window, and texts that straddle the 50-token
compression floor and the 64-token truncation head.  For each case in
CASES, the expected rendered context, selection sidecar and stdout next
to it were written by the CLI and are compared byte for byte, so any
change to what the compressor outputs shows up here.

Regenerate the transcript and every expected file (only when an output
change is intended):

    PYTHONPATH=src python tests/test_compress_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from seedevo.cli import main

DATA = Path(__file__).parent / "data"
TRANSCRIPT = DATA / "compress_golden.jsonl"
#: Expected-file prefix -> flags.  Both keep the default window,
#: protection and summary fraction.  The first target is low enough that
#: the walk compresses, truncates and drops inside the window; the second
#: is below what the protected groups alone need, so the sidecar pins
#: "over_budget": true.
CASES = {
    "compress_golden": ("--target-tokens", "1500"),
    "compress_golden.over_budget": ("--target-tokens", "10"),
}

GROUPS = 120
ORPHANS_AT = (30, 95)  # one outside the default window, one inside it
SYLLABLES = ("ka", "to", "ri", "mu", "se", "na", "lo", "vi")
PUNCTUATION = (",", ".", ":", "(", ")", "=", "->")


def _text(rng: random.Random, n_words: int) -> str:
    out = []
    for i in range(n_words):
        out.append("".join(rng.choice(SYLLABLES) for _ in range(rng.randint(1, 3))))
        if i % 6 == 5:
            out.append(rng.choice(PUNCTUATION))
    return " ".join(out)


def transcript_rows(seed: int = 9) -> list[dict]:
    rng = random.Random(seed)
    rows = [{"role": "system", "text": _text(rng, 40)}]
    for g in range(1, GROUPS):
        if g in ORPHANS_AT:
            rows.append({"role": "tool", "text": _text(rng, rng.randint(20, 90))})
        elif g % 3 == 0:
            args = {f"arg{k}": _text(rng, rng.randint(10, 160)) for k in range(rng.randint(1, 3))}
            rows.append({"role": "ai", "text": _text(rng, rng.randint(3, 80)),
                         "tool_call_args": args})
            for _ in range(rng.randint(1, 3)):
                rows.append({"role": "tool", "text": _text(rng, rng.randint(5, 150))})
        else:
            role = "human" if g % 3 == 1 else "ai"
            rows.append({"role": role, "text": _text(rng, rng.randint(5, 120))})
    return rows


def expected(case: str, kind: str) -> Path:
    return DATA / f"{case}.{kind}"


def run_compress(case: str, rendered: Path, plan: Path) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["compress", str(TRANSCRIPT), "--rendered", str(rendered),
                     "--sidecar", str(plan), *CASES[case]])
    assert code == 0
    return stdout.getvalue()


def assert_golden(tmp_path: Path, case: str) -> None:
    rendered, plan = tmp_path / "rendered.jsonl", tmp_path / "plan.json"
    stdout = run_compress(case, rendered, plan)
    assert stdout.encode("utf-8") == expected(case, "stdout").read_bytes()
    assert rendered.read_bytes() == expected(case, "rendered.jsonl").read_bytes()
    assert plan.read_bytes() == expected(case, "plan.json").read_bytes()


def test_compress_outputs_match_golden_bytes(tmp_path):
    assert_golden(tmp_path, "compress_golden")


def test_compress_over_budget_outputs_match_golden_bytes(tmp_path):
    assert_golden(tmp_path, "compress_golden.over_budget")


if __name__ == "__main__":
    TRANSCRIPT.write_text(
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in transcript_rows()),
        encoding="utf-8",
    )
    for case in CASES:
        stdout = run_compress(case, expected(case, "rendered.jsonl"), expected(case, "plan.json"))
        expected(case, "stdout").write_text(stdout, encoding="utf-8")
