"""Append-only JSONL event log.

One line per event, serialized with sorted keys and no whitespace so a
rerun with the same seed produces a byte-identical file.  Three event
types exist: "tournament" (one per slot per iteration), "hedge" (the
allocation snapshot after each iteration's update), and "stopping"
(the per-iteration budget decision).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import CorruptStateError, SeedevoError


def encode_event(event: dict) -> bytes:
    """One strict-JSON line; a NaN or an infinity raises SeedevoError."""
    try:
        line = json.dumps(event, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise SeedevoError(f"event not valid JSON ({exc}): {event}") from exc
    return (line + "\n").encode("utf-8")


class EventLog:
    """Append-only JSONL log with one writer: the engine's own thread."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def append(self, *events: dict) -> int:
        """Write the events in one durable append and return the log's
        end offset.  Every byte before that offset is on disk when this
        returns, so a checkpoint that records it never runs past them.
        An event that is not valid JSON raises before anything is written."""
        data = b"".join(map(encode_event, events))
        with open(self.path, "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
            return fh.tell()

    def truncate_to(self, offset: int) -> None:
        """Drop any events written after the given byte offset.

        Used on resume: events past the last checkpoint belong to an
        iteration that will be replayed.  A log missing or shorter than
        the offset has lost checkpointed events: CorruptStateError.
        """
        if not self.path.exists():
            if offset:
                raise CorruptStateError(
                    f"event log missing, cannot keep {offset} bytes: {self.path}"
                )
            return
        size = self.path.stat().st_size
        if size < offset:
            raise CorruptStateError(
                f"event log shorter ({size}) than checkpoint offset ({offset}): {self.path}"
            )
        if size > offset:
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)


def read_events(path: Path) -> tuple[list[dict], int]:
    """Parse a JSONL event file.

    Returns (events, skipped) where skipped counts malformed lines;
    bad lines are diagnostics, not fatal.
    """
    events: list[dict] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(row, dict) and "type" in row:
                events.append(row)
            else:
                skipped += 1
    return events, skipped
