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
        """Drop any events written after the given byte offset: on
        resume they belong to an iteration that will be replayed."""
        if _committed_size(self.path, offset) > offset:
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)

    def committed(self, offset: int) -> list[bytes]:
        """The lines of the log's first offset bytes, each with its
        newline; an offset inside a line raises CorruptStateError."""
        _committed_size(self.path, offset)
        with open(self.path, "rb") as fh:
            lines = fh.read(offset).split(b"\n")
        if lines.pop():  # the bytes after the last newline
            raise CorruptStateError(
                f"event log line {len(lines) + 1} is not an event ending by offset {offset}")
        return [line + b"\n" for line in lines]


def _committed_size(path: Path, offset: int) -> int:
    """The log's size; a log missing or shorter than the offset has
    lost committed events: CorruptStateError."""
    size = path.stat().st_size if path.exists() else 0
    if size < offset:
        raise CorruptStateError(f"event log holds {size} bytes, the checkpoint commits {offset}: "
                                f"{path}")
    return size


def _parse(line: bytes) -> dict | None:
    """The event on one line, or None for a line that holds no JSON
    object with a type."""
    try:
        event = json.loads(line)
    except ValueError:
        return None
    return event if isinstance(event, dict) and "type" in event else None


def read_events(path: Path) -> tuple[list[dict], int]:
    """Parse a JSONL event file.

    Returns (events, skipped) where skipped counts malformed lines;
    bad lines are diagnostics, not fatal.
    """
    with open(path, "rb") as fh:
        rows = [_parse(line) for line in fh if line.strip()]
    events = [row for row in rows if row is not None]
    return events, len(rows) - len(events)
