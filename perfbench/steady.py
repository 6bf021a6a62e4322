"""Steadiness and determinism check for the benchmark.

    python3 perfbench/steady.py [--workloads W ...] [--seeds 1 2 ...]
    python3 perfbench/steady.py --write-digests

Runs every workload once per seed in each of two sets, interleaving the
sets (the order within each seed alternates), all on the same code and
at BENCHMARK.json's run_seconds.  For each end-to-end metric it prints
both sets' medians and quartiles and the spread (interquartile distance
over the median), and requires every spread, setup_s's too, to stay
within the metric's bound from BENCHMARK.json and the second set's
median to be no worse than the first's by more than that bound.  It
also requires that every run of one workload and seed printed the same
output digests, and that the share of failed operations is identical.

--write-digests runs one round of every workload for the first default
and the first confirmation seed and stores the digests in reference_digests.json, so
a later change can show that it left events.jsonl and the compression
statuses unchanged.  Exit code 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEEDS = list(range(1, 11))
CONFIRMATION_SEEDS = list(range(101, 106))
REFERENCE = HERE / "reference_digests.json"
SETS = 2


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode}): {proc.stderr[-800:]}")
    result = json.loads(lines[-1])
    result["digests"] = sorted(line.split()[-1] for line in lines if line.startswith("digest "))
    result["exit"] = proc.returncode
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def summarize(bench: dict, runs: dict) -> bool:
    ok = True
    for workload in runs:
        print(f"\n{workload}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            medians = []
            cells = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in runs[workload][s]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                spread = (q3 - q1) / med
                cells.append(f"set {s + 1}: median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}")
                if spread > metric["bound"]:
                    ok = False
                    cells[-1] += " OVER BOUND"
            drift = worse_by(medians[0], medians[1], metric["better"])
            agree = drift <= metric["bound"]
            ok &= agree
            verdict = f"  later set worse by {drift:+.3f} (bound {metric['bound']}) {'ok' if agree else 'DISAGREE'}"
            print(f"  {name:<12} {metric['unit']:<4} " + "; ".join(cells) + verdict)
        shares = {
            (r["failed"] / r["attempted"]) for s in range(SETS) for r in runs[workload][s]
        }
        correct = all(r["correct"] for s in range(SETS) for r in runs[workload][s])
        ok &= correct and len(shares) == 1
        print(f"  failed share {sorted(shares)}; all checks passed: {correct}")
    return ok


def check_digests(digests: dict) -> bool:
    ok = True
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for (workload, seed), seen in sorted(digests.items()):
        if len(seen) != 1:
            ok = False
            print(f"{workload} seed {seed}: runs printed different digests: {sorted(seen)}")
        want = reference.get(workload, {}).get(str(seed))
        if want is not None and [want] != sorted(seen):
            print(f"{workload} seed {seed}: digest differs from {REFERENCE.name} (behaviour changed)")
    print(f"\ndigests consistent across same-seed runs: {ok}")
    return ok


def write_digests(workloads: list[str]) -> int:
    table: dict = {}
    for workload in workloads:
        for seed in (DEFAULT_SEEDS[0], CONFIRMATION_SEEDS[0]):
            result = run_once(workload, seed, 1)
            (digest,) = result["digests"]
            table.setdefault(workload, {})[str(seed)] = digest
            print(f"{workload} seed {seed} {digest}")
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    benchmarked = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=benchmarked)
    parser.add_argument("--seeds", nargs="+", type=int, default=DEFAULT_SEEDS)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.write_digests:
        return write_digests(list(WORKLOADS))

    runs = {w: [[] for _ in range(SETS)] for w in args.workloads}
    digests: dict = {}
    start = time.time()
    for i, seed in enumerate(args.seeds):
        for s in (0, 1) if i % 2 == 0 else (1, 0):
            for workload in args.workloads:
                result = run_once(workload, seed, bench["run_seconds"])
                runs[workload][s].append(result)
                digests.setdefault((workload, seed), set()).update(result["digests"])
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items()))
                print(f"[{time.time() - start:7.1f}s] set {s + 1} {workload} seed {seed}: {values}", flush=True)
    ok = summarize(bench, runs)
    ok &= check_digests(digests)
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({w: runs[w] for w in runs}, indent=1, sort_keys=True) + "\n")
    print(f"runs written to {out.relative_to(ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
