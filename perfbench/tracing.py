"""Span recorder for the traced run, and the per-layer split it yields.

The recorder wraps public functions where the calling module looks
them up (for example seedevo.engine.materialize_seed, not the
seedevo.workspace original), so a span covers exactly the call the
caller makes.  Spans (name, start, end, parent) stay in memory and are
written out once the run ends.  Slot work runs on the engine's worker
threads; those spans take the open engine.step span as their parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path


class FsyncCounter:
    """Counts os.fsync calls for the whole run; each call still flushes."""

    def __init__(self):
        self.calls = 0
        self._real = os.fsync

    def __call__(self, fd: int) -> None:
        self.calls += 1
        self._real(fd)

    def __enter__(self) -> "FsyncCounter":
        os.fsync = self
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real


def written_bytes() -> int:
    """Bytes this process has passed to write calls (wchar in /proc/self/io)."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key == "wchar":
                return int(value)
    raise OSError("/proc/self/io has no wchar field")


class NullTracer:
    """What the untraced run uses: span() costs one call."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def restore(self) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, attrs]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._step: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._step
        record = [next(self._ids), name, time.perf_counter(), 0.0, parent, {}]
        stack.append(record[0])
        if name == "engine.step":
            self._step = record[0]
        try:
            yield record[5]
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            if name == "engine.step":
                self._step = None
            self.spans.append(record)

    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr with a spanned version until restore()."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, result)
                return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, attrs in sorted(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                row.update(attrs)
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    # -- aggregation --------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, span count).  Self time is a span's
        duration minus the part of it that its child spans cover."""
        children: dict[int, list[list]] = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        out: dict[str, tuple[float, int]] = {}
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for child in sorted(children.get(sid, ()), key=lambda s: s[2]):
                lo, hi = max(child[2], cursor), min(child[3], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            total, n = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered, n + 1)
        return out

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[1] == name]


def barrier_wait_ms(tracer: Tracer) -> float:
    """Mean over iterations of last slot end minus first slot end.  Slot
    spans are grouped by their parent, the iteration's engine.step span."""
    ends: dict[int, list[float]] = {}
    for span in tracer.named("executors.execute"):
        ends.setdefault(span[4], []).append(span[3])
    if not ends:
        return 0.0
    return statistics.fmean(max(e) - min(e) for e in ends.values()) * 1000.0


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one recorded span adds to a wrapped call: the median over
    `repeats` of (wrapped loop - bare loop) / calls, on a fresh Tracer."""

    class Owner:
        @staticmethod
        def call():
            return None

    def loop() -> float:
        call = Owner.call
        start = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - start

    costs = []
    for _ in range(repeats):
        bare = loop()
        probe = Tracer()
        probe.wrap(Owner, "call", "probe")
        costs.append((loop() - bare) / calls)
        probe.restore()
    return statistics.median(costs)
