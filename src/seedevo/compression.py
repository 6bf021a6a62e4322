"""Two-stage context compression for long agent transcripts.

Stage one summarizes the pending messages of the newest window_groups
groups into a compressed cache (short messages are copied through; a
summary is only kept when it is actually shorter).  Stage two picks a
rendering status per message group to fit a token target: a sliding
window drops the oldest groups outright, the newest groups are pinned
to their original text, and the rest degrade oldest-first through
original -> compressed -> truncated -> dropped until the reconstructed
context fits.  Groups outside the window are never rendered, so neither
stage summarizes or counts them: the work follows the window, not the
transcript.

Token counting is pluggable.  The default segments on whitespace and
punctuation, which is deterministic and dependency-free; any callable
str -> int (for example a real BPE tokenizer) can be swapped in.  A
message's count is taken on first use and cached on the message.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

TokenCounter = Callable[[str], int]
Summarizer = Callable[[str], str]

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

#: Rendering of a truncated message: this many leading tokens survive.
TRUNCATE_HEAD_TOKENS = 64
TRUNCATE_MARKER = " [truncated]"

ROLES = ("system", "human", "ai", "tool")


def count_tokens(text: str) -> int:
    """Deterministic whitespace-and-punctuation token count."""
    return len(_TOKEN_RE.findall(text))


def truncate_text(text: str, head_tokens: int = TRUNCATE_HEAD_TOKENS) -> str:
    """Keep the first head_tokens tokens and mark the elision."""
    spans = list(itertools.islice(_TOKEN_RE.finditer(text), max(head_tokens, 0) + 1))
    if len(spans) <= head_tokens:
        return text
    cut = spans[head_tokens - 1].end() if head_tokens > 0 else 0
    return text[:cut] + TRUNCATE_MARKER


class SelectionStatus(str, Enum):
    ORIGINAL = "original"
    COMPRESSED = "compressed"
    TRUNCATE = "truncate"
    DROP = "drop"


@dataclass(slots=True)
class Message:
    """One transcript entry; create copies the tool-call arguments with
    their keys and values as strings.  token_count is the configured
    counter applied to the text plus any tool-call keys and values; each
    piece is counted on first use and its count cached on the message.

    Not frozen: a frozen dataclass sets each field through
    object.__setattr__, which makes building one cost about four times
    as much, and transcripts build thousands."""

    id: int
    role: str
    text: str
    tool_call_args: dict[str, str] | None
    counter: TokenCounter = field(compare=False, repr=False)
    _pieces: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def create(
        cls,
        id: int,
        role: str,
        text: str,
        tool_call_args: dict[str, str] | None = None,
        counter: TokenCounter = count_tokens,
    ) -> "Message":
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        args = {str(k): str(v) for k, v in tool_call_args.items()} if tool_call_args else None
        return cls(id, role, text, args, counter)

    @property
    def _piece_tokens(self) -> tuple[int, ...]:
        """The counts of the text, then of each tool-call key and value
        in argument order."""
        if self._pieces is None:
            counter = self.counter
            pieces = [counter(self.text)]
            for key, value in (self.tool_call_args or {}).items():
                pieces += (counter(key), counter(value))
            self._pieces = tuple(pieces)
        return self._pieces

    @property
    def token_count(self) -> int:
        # summed on each read: a cached total would be a second copy of _pieces
        return sum(self._piece_tokens)

    @property
    def is_tool_call(self) -> bool:
        return self.role == "ai" and self.tool_call_args is not None


def _payload_tokens(
    text: str, tool_call_args: dict[str, str] | None, counter: TokenCounter
) -> int:
    total = counter(text)
    for key, value in (tool_call_args or {}).items():
        total += counter(key) + counter(value)
    return total


@dataclass(frozen=True)
class CompressedForm:
    """Cached compact rendering of one message; never longer than the
    original."""

    text: str
    tool_call_args: dict[str, str] | None
    token_count: int


class MessageGroup(NamedTuple):
    """Atomic selection unit: either a single message, or an AI
    tool-call message fused with its tool responses."""

    member_ids: tuple[int, ...]


@dataclass(frozen=True)
class BudgetConfig:
    trigger_tokens: int = 100_000
    target_tokens: int = 20_000
    recent_groups_protected: int = 5
    window_groups: int = 50
    min_compress_tokens: int = 50
    truncate_head_tokens: int = TRUNCATE_HEAD_TOKENS

    def __post_init__(self):
        if self.target_tokens >= self.trigger_tokens:
            raise ValueError("target_tokens must be below trigger_tokens")
        if self.recent_groups_protected > self.window_groups:
            raise ValueError("recent_groups_protected cannot exceed window_groups")
        if self.recent_groups_protected < 0:
            raise ValueError("recent_groups_protected must be >= 0")
        for name in ("trigger_tokens", "target_tokens", "window_groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class MessageHistory:
    """Ordered transcript plus per-message compression state: a
    message is pending until stage one puts its form in cache.

    add also applies the grouping rule: an AI message carrying tool-call
    args absorbs the run of tool messages that follows it, and every
    other message stands alone.  groups holds the member ids of each
    group in order; a tool message with no tool call before it is
    malformed input, stands alone and is listed in orphans."""

    def __init__(self, counter: TokenCounter = count_tokens):
        self.counter = counter
        self.messages: list[Message] = []
        self._positions: dict[int, int] = {}
        self.cache: dict[int, CompressedForm] = {}
        self.diagnostics: list[str] = []
        self.groups: list[list[int]] = []
        self.orphans: list[int] = []
        self._open_tool_call = False  # the last group is a tool call

    def add(
        self,
        role: str,
        text: str,
        tool_call_args: dict[str, str] | None = None,
        id: int | None = None,
    ) -> Message:
        msg_id = id if id is not None else len(self.messages)
        # exact type: a bool is an int, but would render as true/false
        if type(msg_id) is not int:
            raise ValueError("id must be an integer")
        if msg_id in self._positions:
            raise ValueError(f"duplicate message id {msg_id!r}")
        msg = Message.create(msg_id, role, text, tool_call_args, self.counter)
        self._positions[msg_id] = len(self.messages)
        self.messages.append(msg)
        if role == "tool" and self._open_tool_call:
            self.groups[-1].append(msg_id)
        else:
            if role == "tool":
                self.orphans.append(msg_id)
            self.groups.append([msg_id])
            self._open_tool_call = msg.is_tool_call
        return msg

    def get(self, msg_id: int) -> Message:
        return self.messages[self._positions[msg_id]]


def group_messages(history: MessageHistory) -> list[MessageGroup]:
    """The transcript's atomic groups, in order; every call reports each
    orphan tool message in the diagnostics."""
    history.diagnostics.extend(f"orphan tool message {mid}" for mid in history.orphans)
    return [MessageGroup(tuple(ids)) for ids in history.groups]


def compress_pending(
    history: MessageHistory, summarizer: Summarizer, budget: BudgetConfig
) -> list[str]:
    """Stage one: fill the compressed cache for the pending messages of
    the newest window_groups groups.

    Selection drops every older group outright, so those messages are
    neither summarized nor counted; they stay pending.  Messages under
    min_compress_tokens are copied through verbatim.  Longer ones get a
    summary, kept only if strictly shorter; long tool-call argument
    values are summarized per key under the same rule.  A summarizer
    failure inside the window leaves its message pending and is
    reported, not raised; outside the window nothing is attempted, so
    nothing is reported.
    """
    diagnostics: list[str] = []
    for ids in history.groups[-budget.window_groups:]:
        for msg_id in ids:
            if msg_id in history.cache:
                continue
            try:
                form = _compress_one(history.get(msg_id), summarizer, budget, history.counter)
            except Exception as exc:
                diagnostics.append(f"summarizer failed on {msg_id}: {exc}")
                continue
            history.cache[msg_id] = form
    history.diagnostics.extend(diagnostics)
    return diagnostics


def _compress_one(
    msg: Message, summarizer: Summarizer, budget: BudgetConfig, counter: TokenCounter
) -> CompressedForm:
    if msg.token_count < budget.min_compress_tokens:
        return CompressedForm(msg.text, msg.tool_call_args, msg.token_count)

    def shorter(text: str, tokens: int) -> tuple[str, int]:
        candidate = summarizer(text)
        candidate_tokens = counter(candidate)
        return (candidate, candidate_tokens) if candidate_tokens < tokens else (text, tokens)

    text_tokens, *arg_tokens = msg._piece_tokens
    text, total = shorter(msg.text, text_tokens)
    args = None
    if msg.tool_call_args is not None:
        args = {}
        for (key, value), key_tokens, value_tokens in zip(
            msg.tool_call_args.items(), arg_tokens[::2], arg_tokens[1::2]
        ):
            if value_tokens >= budget.min_compress_tokens:
                value, value_tokens = shorter(value, value_tokens)
            args[key] = value
            total += key_tokens + value_tokens
    return CompressedForm(text, args, total)


# -- stage two: selection --------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    statuses: tuple[SelectionStatus, ...]
    total_tokens: int
    over_budget: bool


def message_status_tokens(
    history: MessageHistory, msg: Message, status: SelectionStatus, budget: BudgetConfig
) -> int:
    """Token cost of one message under a rendering status; exactly what
    reconstruct_context will emit."""
    if status is SelectionStatus.DROP:
        return 0
    if status is SelectionStatus.ORIGINAL:
        return msg.token_count
    if status is SelectionStatus.COMPRESSED:
        form = history.cache.get(msg.id)
        return form.token_count if form is not None else msg.token_count
    return history.counter(truncate_text(msg.text, budget.truncate_head_tokens))


def select_statuses(
    history: MessageHistory, groups: list[MessageGroup], budget: BudgetConfig
) -> SelectionResult:
    """Stage two: pick a status per group to fit the token target.

    In order: groups older than the newest window_groups are dropped;
    the newest recent_groups_protected groups are pinned original; the
    oldest surviving group is pinned non-drop (it may still compress or
    truncate).  The rest degrade oldest-first in stage passes
    (compressed, then truncate, then drop), one group at a time,
    re-checking the budget after each move; each group's cost under a
    status is computed once and a running total follows the moves, so
    the walk is linear in the window.  A stage move is applied only
    when it strictly shrinks that group's render: truncating a group of
    short messages saves nothing, so the walk skips it and reaches the
    drop stage instead.  Groups still holding pending messages skip the
    compressed stage, since their cache does not exist yet.  If even
    maximal degradation stays over target, the result is flagged over
    budget.
    """
    n = len(groups)
    statuses = [SelectionStatus.ORIGINAL] * n
    for i in range(max(0, n - budget.window_groups)):
        statuses[i] = SelectionStatus.DROP
    survivors = list(range(max(0, n - budget.window_groups), n))
    if not survivors:
        return SelectionResult(tuple(statuses), 0, False)
    first_kept = survivors[0]
    # guard the n=0 slice: [-0:] would pin everything
    n_protected = budget.recent_groups_protected
    protected = set(survivors[-n_protected:]) if n_protected > 0 else set()
    degradable = [i for i in survivors if i not in protected]

    def tokens(i: int, status: SelectionStatus) -> int:
        return sum(
            message_status_tokens(history, history.get(mid), status, budget)
            for mid in groups[i].member_ids
        )

    cost = {i: tokens(i, SelectionStatus.ORIGINAL) for i in survivors}
    total = sum(cost.values())
    if total <= budget.target_tokens:
        return SelectionResult(tuple(statuses), total, False)

    for stage in (SelectionStatus.COMPRESSED, SelectionStatus.TRUNCATE, SelectionStatus.DROP):
        for i in degradable:
            if stage is SelectionStatus.COMPRESSED and any(
                mid not in history.cache for mid in groups[i].member_ids
            ):
                continue
            if stage is SelectionStatus.DROP and i == first_kept:
                continue
            stage_cost = tokens(i, stage)
            if stage_cost >= cost[i]:
                continue
            statuses[i] = stage
            total += stage_cost - cost[i]
            cost[i] = stage_cost
            if total <= budget.target_tokens:
                return SelectionResult(tuple(statuses), total, False)

    return SelectionResult(tuple(statuses), total, total > budget.target_tokens)


@dataclass(frozen=True)
class RenderedMessage:
    id: int
    role: str
    text: str
    tool_call_args: dict[str, str] | None
    status: SelectionStatus


def reconstruct_context(
    history: MessageHistory,
    groups: list[MessageGroup],
    statuses: Iterable[SelectionStatus],
    budget: BudgetConfig,
) -> list[RenderedMessage]:
    """Emit the working context in transcript order.

    Dropped groups vanish; truncated messages keep their head plus a
    marker and shed their tool args.  The summed token count of the
    result is exactly what select_statuses optimized.
    """
    rendered: list[RenderedMessage] = []
    for group, status in zip(groups, statuses):
        if status is SelectionStatus.DROP:
            continue
        for mid in group.member_ids:
            msg = history.get(mid)
            text, args = msg.text, msg.tool_call_args
            if status is SelectionStatus.COMPRESSED and mid in history.cache:
                text, args = history.cache[mid].text, history.cache[mid].tool_call_args
            elif status is SelectionStatus.TRUNCATE:
                text, args = truncate_text(msg.text, budget.truncate_head_tokens), None
            rendered.append(RenderedMessage(msg.id, msg.role, text, args, status))
    return rendered


def rendered_token_total(
    history: MessageHistory, rendered: list[RenderedMessage]
) -> int:
    return sum(_payload_tokens(r.text, r.tool_call_args, history.counter) for r in rendered)


def head_fraction_summarizer(fraction: float = 0.1) -> Summarizer:
    """Built-in deterministic summarizer: keep the leading fraction of
    the text.  Stands in where no language model is wired up."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")

    def summarize(text: str) -> str:
        keep = max(1, int(len(text) * fraction))
        return text[:keep]

    return summarize


# -- transcript files -------------------------------------------------

_raw_decode = json.JSONDecoder().raw_decode


def _parse_line(line: str) -> object:
    """json.loads(line).  A line that is one valid value with nothing
    around it skips the whitespace scans and BOM check of json.loads."""
    try:
        raw, end = _raw_decode(line)
        if end == len(line):
            return raw
    except json.JSONDecodeError:
        pass
    return json.loads(line)  # its value, or json's own error for the line


def load_transcript(path: Path, counter: TokenCounter = count_tokens) -> MessageHistory:
    """Read a JSONL transcript: one object per line with role, text,
    optional tool_call_args and integer id.  Every error names its
    <path>:<line>."""
    history = MessageHistory(counter)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = _parse_line(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            # json.loads builds plain dicts and strs, so exact types suffice
            if type(raw) is not dict or "role" not in raw or "text" not in raw:
                raise ValueError(f"{path}:{lineno}: need role and text fields")
            if type(raw["text"]) is not str:
                raise ValueError(f"{path}:{lineno}: text must be a string")
            args = raw.get("tool_call_args")
            if args is not None and type(args) is not dict:
                raise ValueError(f"{path}:{lineno}: tool_call_args must be an object")
            try:
                history.add(raw["role"], raw["text"], args, raw.get("id"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return history


_SIDECAR_ROW = """\
    {
      "index": %d,
      "member_ids": %s,
      "status": "%s"
    }"""


def write_selection_sidecar(
    path: Path, groups: list[MessageGroup], result: SelectionResult
) -> None:
    """Write the selection plan.  The file holds exactly the bytes of

        json.dumps(payload, indent=2, sort_keys=True) + "\n"

    for payload = {"schema_version": 1, "over_budget": ..., "total_tokens":
    ..., "groups": [{"index": i, "member_ids": [...], "status": ...}, ...]}.
    It is formatted directly because json runs every indented dump
    through its pure-Python encoder.  Member ids are exact ints (the only
    ids MessageHistory.add admits) and statuses are SelectionStatus
    values, so nothing needs escaping.
    """
    rows = []
    for i, (group, status) in enumerate(zip(groups, result.statuses)):
        ids = ",\n        ".join(map(str, group.member_ids))
        members = f"[\n        {ids}\n      ]" if ids else "[]"
        rows.append(_SIDECAR_ROW % (i, members, status.value))
    groups_text = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    Path(path).write_text(
        f'{{\n  "groups": {groups_text},\n'
        f'  "over_budget": {json.dumps(result.over_budget)},\n'
        f'  "schema_version": 1,\n'
        f'  "total_tokens": {json.dumps(result.total_tokens)}\n}}\n',
        encoding="utf-8",
    )


def write_rendered_context(path: Path, rendered: list[RenderedMessage]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rendered:
            row = {"id": r.id, "role": r.role, "text": r.text, "status": r.status.value}
            if r.tool_call_args is not None:
                row["tool_call_args"] = r.tool_call_args
            fh.write(json.dumps(row, sort_keys=True) + "\n")
