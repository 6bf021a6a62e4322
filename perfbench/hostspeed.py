"""Host speed, sampled around every timed operation.

The reference machine shares its cores with other tenants, and its
speed for the same pure-Python work swings by up to 2x within seconds
and by 20 % or more over minutes.  A run's raw wall times follow those
swings, so two runs of identical code disagree by more than any useful
bound.  To take them out, the benchmark times a fixed task of its own
(`calibrate`, about 10 ms: JSON round trip, regex tokenizing, dict and
sort work, the kind of work seedevo does) immediately before and after
each timed operation, and scales the operation's wall time by
REFERENCE_S over the mean of those two samples.  The scaled time is the
operation's wall time on a host that runs the fixed task in exactly
REFERENCE_S; raw wall times are printed beside it.

The task is the benchmark's own code and never imports seedevo, so a
change to the program's own work moves the scaled time in the same
proportion as the raw one.  What it cannot separate: a change that
leaves the process or the kernel busy between operations (a background
thread, a larger heap to collect, more writeback) slows the task too
and so hides part of its own cost, and time spent waiting on the disk
does not slow with the host's CPU, so scaling over-corrects it; the raw
figures show both.
"""

from __future__ import annotations

import json
import random
import re
import time

#: About the median of `calibrate` on the reference machine (2-vCPU KVM
#: guest, Xeon at 2.1 GHz, Python 3.11.7) when the benchmark landed; a
#: fixed constant, so scaled times are comparable across runs.
REFERENCE_S = 0.010
#: Repeats of the task in one sample; sets a sample near REFERENCE_S.
REPEATS = 20

_TOKEN = re.compile(r"\w+|[^\w\s]")
_SYLLABLES = ("ka", "to", "ri", "mu", "se", "na", "lo", "vi", "de", "po")


def _records() -> list[dict]:
    rng = random.Random(20260418)
    return [
        {
            "id": i,
            "role": rng.choice(("human", "ai", "tool")),
            "text": " ".join(
                "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4))) + rng.choice(",.:; ")
                for _ in range(rng.randint(5, 40))
            ),
        }
        for i in range(40)
    ]


_RECORDS = _records()


def _task() -> int:
    back = json.loads(json.dumps(_RECORDS, sort_keys=True))
    index = {r["id"]: r for r in back}
    tokens = sum(len(_TOKEN.findall(r["text"])) for r in back)
    order = sorted(back, key=lambda r: (len(r["text"]), r["id"]))
    return tokens + sum(index[r["id"]]["id"] for r in order)


def calibrate() -> float:
    """Seconds the fixed task takes now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _task()
    return time.perf_counter() - start


class Clock:
    """Times operations and scales each by the host speed around it.

    The sample taken after one operation is the sample before the next,
    so back-to-back operations pay for one sample each.  Start a new
    Clock after any untimed work between operations.
    """

    def __init__(self):
        self._before: float | None = None
        self.samples: list[float] = []

    def _sample(self) -> float:
        value = calibrate()
        self.samples.append(value)
        return value

    def start(self) -> float:
        if self._before is None:
            self._before = self._sample()
        return time.perf_counter()

    def stop(self, start: float) -> tuple[float, float]:
        """(raw seconds, scaled seconds) since `start`."""
        raw = time.perf_counter() - start
        after = self._sample()
        scaled = raw * REFERENCE_S * 2.0 / (self._before + after)
        self._before = after
        return raw, scaled
