"""Compression tests: token counting, grouping, the two compression
stages, reconstruction, and transcript files."""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import word_head_summarizer
from oracles import selection_walk_oracle
from seedevo.compression import (
    BudgetConfig,
    Message,
    MessageGroup,
    MessageHistory,
    SelectionResult,
    SelectionStatus,
    compress_pending,
    count_tokens,
    group_messages,
    head_fraction_summarizer,
    load_transcript,
    reconstruct_context,
    rendered_token_total,
    select_statuses,
    truncate_text,
    write_rendered_context,
    write_selection_sidecar,
    _payload_tokens,
)

#: Frozen counts from the default counter, recorded once by hand.
TOKEN_GOLDENS = [
    ("", 0),
    ("hello", 1),
    ("hello world", 2),
    ("def f(x): return x + 1", 10),
    ("error: file not found (errno=2)!", 11),
    ("a, b, c... and d", 10),
    ("  leading and trailing  ", 3),
    ("newline\nsplit\ttab", 3),
    ("unicode Ω ≤ ∑ test", 5),
]


def small_budget(**overrides) -> BudgetConfig:
    base = dict(trigger_tokens=100_000, target_tokens=300, window_groups=50,
                recent_groups_protected=3, min_compress_tokens=50)
    base.update(overrides)
    return BudgetConfig(**base)


def pending_ids(history: MessageHistory) -> list[int]:
    """Ids of the messages stage one has not put in the cache yet."""
    return [m.id for m in history.messages if m.id not in history.cache]


def words(n: int, stem: str = "w") -> str:
    return " ".join(f"{stem}{i}" for i in range(n))


class CountingCounter:
    """The default counter, counting its calls and keeping what it
    counted."""

    def __init__(self):
        self.calls = 0
        self.texts: list[str] = []

    def __call__(self, text: str) -> int:
        self.calls += 1
        self.texts.append(text)
        return count_tokens(text)


# -- token counting and truncation -----------------------------------


@pytest.mark.parametrize("text,expected", TOKEN_GOLDENS)
def test_count_tokens_goldens(text, expected):
    assert count_tokens(text) == expected


def test_count_tokens_monotone_under_concatenation():
    rng = random.Random(3)
    alphabet = ["alpha", ", ", "x=1;", "\n", "Ω", " done"]
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        assert count_tokens(a + b) >= max(count_tokens(a), count_tokens(b))


def test_truncate_long_text_golden():
    text = words(100)
    cut = truncate_text(text)
    assert count_tokens(cut) == 67  # 64 head tokens + 3-token marker
    assert cut.endswith(" [truncated]")
    assert cut.startswith("w0 w1 ")


def test_truncate_short_text_is_identity():
    text = words(64)
    assert truncate_text(text) is text
    assert truncate_text("tiny") == "tiny"


def test_truncate_zero_head_keeps_only_marker():
    assert truncate_text(words(10), head_tokens=0) == " [truncated]"


# -- messages and history --------------------------------------------


def test_message_rejects_unknown_role():
    with pytest.raises(ValueError):
        Message.create(0, "narrator", "hi")


def test_message_token_count_includes_args():
    msg = Message.create(0, "ai", "run the query", {"sql": "select 1"})
    # text 3 + key 1 + value 2
    assert msg.token_count == 6
    assert msg.is_tool_call


@pytest.mark.parametrize("args", [None, {"sql": "select 1", "limit": "10 rows"}])
def test_message_token_count_is_taken_once_on_first_use(args):
    counter = CountingCounter()
    msg = Message.create(0, "ai", "run the query, please", args, counter)
    assert counter.calls == 0
    assert msg.token_count == _payload_tokens(msg.text, args, count_tokens)
    pieces = counter.calls
    assert pieces == 1 + 2 * len(args or {})
    assert msg.token_count == _payload_tokens(msg.text, args, count_tokens)
    assert counter.calls == pieces


def test_message_without_args_is_not_tool_call():
    assert not Message.create(0, "ai", "plain reply").is_tool_call
    assert not Message.create(1, "tool", "result").is_tool_call


def test_history_assigns_sequential_ids():
    history = MessageHistory()
    ids = [history.add("human", f"message {i}").id for i in range(3)]
    assert ids == [0, 1, 2]
    assert pending_ids(history) == [0, 1, 2]


def test_history_rejects_duplicate_id():
    history = MessageHistory()
    history.add("human", "one", id=7)
    with pytest.raises(ValueError):
        history.add("human", "two", id=7)
    with pytest.raises(KeyError):
        history.get(8)


# -- grouping --------------------------------------------------------


def test_grouping_fuses_tool_call_with_responses():
    history = MessageHistory()
    history.add("ai", "look these up", {"q1": "a", "q2": "b"})
    history.add("tool", "answer one")
    history.add("tool", "answer two")
    history.add("ai", "done")
    groups = group_messages(history)
    assert [g.member_ids for g in groups] == [(0, 1, 2), (3,)]


def test_grouping_plain_messages_are_singletons():
    history = MessageHistory()
    for role in ("system", "human", "ai", "human"):
        history.add(role, "text")
    groups = group_messages(history)
    assert [g.member_ids for g in groups] == [(0,), (1,), (2,), (3,)]


def test_grouping_empty_history():
    assert group_messages(MessageHistory()) == []


def test_grouping_orphan_tool_gets_diagnostic():
    history = MessageHistory()
    history.add("human", "hi")
    history.add("tool", "who called me?")
    groups = group_messages(history)
    assert [g.member_ids for g in groups] == [(0,), (1,)]
    assert any("orphan tool" in d for d in history.diagnostics)


def test_grouping_absorption_stops_at_non_tool():
    history = MessageHistory()
    history.add("ai", "call", {"k": "v"})
    history.add("tool", "out")
    history.add("human", "next question")
    history.add("tool", "late result")  # orphan: human broke the run
    groups = group_messages(history)
    assert [g.member_ids for g in groups] == [(0, 1), (2,), (3,)]


def test_grouping_extends_open_tool_call_between_calls():
    history = MessageHistory()
    history.add("ai", "call", {"k": "v"})
    history.add("tool", "first")
    history.add("tool", "also first")
    assert [g.member_ids for g in group_messages(history)] == [(0, 1, 2)]
    history.add("tool", "second")
    history.add("human", "thanks")
    history.add("tool", "orphan")
    assert [g.member_ids for g in group_messages(history)] == [(0, 1, 2, 3), (4,), (5,)]
    group_messages(history)
    assert history.diagnostics == ["orphan tool message 5"] * 2


# -- stage one: compression ------------------------------------------


def test_compress_short_message_copied_through():
    history = MessageHistory()
    msg = history.add("human", words(40))
    compress_pending(history, word_head_summarizer(0.1), small_budget())
    form = history.cache[msg.id]
    assert form.text == msg.text
    assert form.token_count == msg.token_count == 40
    assert pending_ids(history) == []


def test_compress_keeps_original_when_summary_not_shorter():
    history = MessageHistory()
    msg = history.add("human", words(500))
    compress_pending(history, lambda text: text, small_budget())
    assert history.cache[msg.id].text == msg.text
    assert history.cache[msg.id].token_count == 500


def test_compress_long_message_shrinks_and_flips_status():
    history = MessageHistory()
    msg = history.add("human", words(1000))
    compress_pending(history, head_fraction_summarizer(0.1), small_budget())
    form = history.cache[msg.id]
    assert form.token_count < msg.token_count
    assert pending_ids(history) == []


def test_compress_args_per_key():
    history = MessageHistory()
    msg = history.add("ai", "fetch", {"long": words(80, "a"), "short": "x y"})
    compress_pending(history, word_head_summarizer(0.5), small_budget())
    form = history.cache[msg.id]
    assert form.tool_call_args["short"] == "x y"
    assert count_tokens(form.tool_call_args["long"]) == 40
    assert form.token_count == count_tokens("fetch") + 1 + 40 + 1 + 2


def test_compress_summarizer_failure_leaves_message_pending():
    history = MessageHistory()
    ok = history.add("human", words(60, "ok"))
    bad = history.add("human", words(60, "bad"))

    def fragile(text):
        if text.startswith("bad"):
            raise RuntimeError("model refused")
        return text[: len(text) // 2]

    diags = compress_pending(history, fragile, small_budget())
    assert ok.id in history.cache
    assert pending_ids(history) == [bad.id]
    assert any("model refused" in d for d in diags)
    # a later pass with a working summarizer finishes the job
    compress_pending(history, lambda t: t, small_budget())
    assert pending_ids(history) == []


def test_compress_cache_never_longer_than_original():
    rng = random.Random(8)
    history = MessageHistory()
    for i in range(30):
        n = rng.randint(1, 300)
        args = {"k": words(rng.randint(1, 120), "v")} if rng.random() < 0.4 else None
        history.add("ai" if args else "human", words(n, f"m{i}_"), args)
    compress_pending(history, word_head_summarizer(0.3), small_budget())
    for msg in history.messages:
        assert history.cache[msg.id].token_count <= msg.token_count


def windowed_history(counter, n_groups: int = 60) -> MessageHistory:
    """n_groups groups, every text over the compression floor; each word
    starts with g<group>_, so a counted or summarized text names its group."""
    history = MessageHistory(counter)
    for g in range(n_groups):
        if g % 4 == 3:
            history.add("ai", words(60, f"g{g}_a"), {"k": words(70, f"g{g}_v")})
            history.add("tool", words(80, f"g{g}_t"))
        else:
            history.add("human", words(90, f"g{g}_h"))
    return history


def group_of(text: str) -> int:
    return int(text.split("_", 1)[0][1:])


def test_compress_summarizes_and_counts_only_the_window():
    counter = CountingCounter()
    history = windowed_history(counter)
    summarized: list[str] = []

    def summarizer(text):
        summarized.append(text)
        return text[: len(text) // 4]

    budget = small_budget(window_groups=10)
    compress_pending(history, summarizer, budget)
    window = {mid for g in group_messages(history)[-10:] for mid in g.member_ids}
    # each window message's text, plus its argument value, summarized once
    window_msgs = [history.get(mid) for mid in sorted(window)]
    arg_values = [v for m in window_msgs for v in (m.tool_call_args or {}).values()]
    assert sorted(summarized) == sorted([m.text for m in window_msgs] + arg_values)
    assert {group_of(t) for t in counter.texts if t != "k"} <= set(range(50, 60))
    assert set(history.cache) == window


def test_compress_counts_each_piece_once():
    counter = CountingCounter()
    summarized: list[str] = []

    def summarizer(text):
        summarized.append(text)
        return text[: len(text) // 2]

    history = MessageHistory(counter)
    # text and two values at or above the 50-token floor, one value below
    args = {"at": words(50, "a"), "above": words(80, "b"), "below": words(49, "c")}
    msg = history.add("ai", words(60, "t"), args)
    compress_pending(history, summarizer, small_budget())
    pieces = 1 + 2 * len(args)
    assert len(summarized) == 3
    assert counter.calls == pieces + len(summarized)
    form = history.cache[msg.id]
    assert form.tool_call_args["below"] == args["below"]
    assert form.token_count == _payload_tokens(form.text, form.tool_call_args, count_tokens)
    assert form.token_count < msg.token_count


def test_compress_out_of_window_messages_stay_pending_and_unreported():
    history = windowed_history(count_tokens, n_groups=30)
    outside = history.messages[0].id  # group 0
    inside = history.messages[-1].id  # the newest group

    def fragile(text):
        if text.startswith(("g0_", "g29_")):
            raise RuntimeError("model refused")
        return text[: len(text) // 2]

    diags = compress_pending(history, fragile, small_budget(window_groups=5))
    pending = pending_ids(history)
    assert outside in pending and inside in pending
    assert diags == [f"summarizer failed on {inside}: model refused"]
    assert history.diagnostics == diags
    groups = group_messages(history)
    assert set(pending) - {inside} == {mid for g in groups[:-5] for mid in g.member_ids}


def test_compress_orphan_at_window_edge_reported_once():
    history = MessageHistory()
    for i in range(6):
        history.add("human", words(60, f"h{i}_"))
    orphan = history.add("tool", words(60, "orphan"))
    for i in range(3):
        history.add("human", words(60, f"n{i}_"))
    budget = small_budget(window_groups=4, recent_groups_protected=1)
    compress_pending(history, word_head_summarizer(0.5), budget)
    groups = group_messages(history)
    assert groups[-4].member_ids == (orphan.id,)
    assert orphan.id in history.cache
    assert history.diagnostics == [f"orphan tool message {orphan.id}"]


# -- stage two: selection --------------------------------------------


def crafted_history() -> tuple[MessageHistory, list]:
    """Eight groups whose staged walk lands on a known mixed outcome.

    Sizes per group (original / compressed / truncated):
    g0 200/80/67, g1 g2 180/73/177, g3 g4 150/60/67, g5 g6 g7 30/30/30.
    """
    history = MessageHistory()
    history.add("human", " ".join(["alpha"] * 200))
    for _ in range(2):
        history.add("ai", words(57, "q"), {"q": "x y"})
        history.add("tool", words(60, "r"))
        history.add("tool", words(60, "s"))
    history.add("human", words(150, "c"))
    history.add("human", words(150, "d"))
    for i in range(3):
        history.add("human", " ".join(["keep"] * 30))
    compress_pending(history, word_head_summarizer(0.4), small_budget())
    return history, group_messages(history)


def test_selection_under_target_is_all_original():
    history = MessageHistory()
    for i in range(4):
        history.add("human", words(10))
    groups = group_messages(history)
    result = select_statuses(history, groups, small_budget(target_tokens=1000))
    assert set(result.statuses) == {SelectionStatus.ORIGINAL}
    assert result.total_tokens == 40
    assert not result.over_budget


def test_selection_window_drops_oldest_before_degrading():
    history = MessageHistory()
    for i in range(60):
        history.add("human", words(5, f"g{i}_"))
    groups = group_messages(history)
    result = select_statuses(history, groups, small_budget(window_groups=50))
    assert all(s is SelectionStatus.DROP for s in result.statuses[:10])
    assert all(s is not SelectionStatus.DROP for s in result.statuses[10:])
    assert result.total_tokens == 250


def test_selection_crafted_mixed_outcome():
    history, groups = crafted_history()
    result = select_statuses(history, groups, small_budget())
    want = [
        SelectionStatus.TRUNCATE,
        SelectionStatus.DROP,
        SelectionStatus.DROP,
        SelectionStatus.COMPRESSED,
        SelectionStatus.COMPRESSED,
        SelectionStatus.ORIGINAL,
        SelectionStatus.ORIGINAL,
        SelectionStatus.ORIGINAL,
    ]
    assert list(result.statuses) == want
    assert result.total_tokens == 277
    assert not result.over_budget


def test_selection_first_group_never_drops():
    history = MessageHistory()
    for i in range(6):
        history.add("human", words(200, f"g{i}_"))
    compress_pending(history, word_head_summarizer(0.4), small_budget())
    groups = group_messages(history)
    result = select_statuses(
        history, groups, small_budget(target_tokens=100, recent_groups_protected=1)
    )
    assert result.statuses[0] is not SelectionStatus.DROP
    assert result.over_budget  # first group floor keeps it above 100


def test_selection_protected_tail_stays_original():
    history, groups = crafted_history()
    result = select_statuses(history, groups, small_budget(target_tokens=50))
    assert [s is SelectionStatus.ORIGINAL for s in result.statuses[-3:]] == [True] * 3
    assert result.over_budget


def test_selection_pending_groups_skip_compressed_stage():
    history = MessageHistory()
    for i in range(4):
        history.add("human", words(100, f"g{i}_"))
    # no compress_pending call: all four messages are still pending
    groups = group_messages(history)
    result = select_statuses(
        history, groups, small_budget(target_tokens=250, recent_groups_protected=1)
    )
    assert SelectionStatus.COMPRESSED not in result.statuses
    assert result.statuses[0] is SelectionStatus.TRUNCATE


def test_selection_protect_zero_pins_nothing():
    history = MessageHistory()
    for i in range(3):
        history.add("human", words(100, f"g{i}_"))
    compress_pending(history, word_head_summarizer(0.2), small_budget())
    groups = group_messages(history)
    result = select_statuses(
        history, groups, small_budget(target_tokens=40, recent_groups_protected=0)
    )
    # with no pinned tail the walk compresses all three groups (100 ->
    # 20 each), then dropping the second group alone reaches 40 exactly
    assert [s.value for s in result.statuses] == ["compressed", "drop", "compressed"]
    assert result.total_tokens == 40
    assert not result.over_budget


def test_selection_matches_oracle_on_random_histories():
    rng = random.Random(1234)
    for case in range(100):
        history = MessageHistory()
        for g in range(rng.randint(1, 65)):
            if rng.random() < 0.3:
                history.add(
                    "ai", words(rng.randint(1, 120), f"g{g}a"),
                    {"k": words(rng.randint(1, 90), f"g{g}v")},
                )
                for t in range(rng.randint(1, 2)):
                    history.add("tool", words(rng.randint(1, 120), f"g{g}t{t}"))
            else:
                history.add("human", words(rng.randint(1, 150), f"g{g}h"))

        def moody(text):
            if count_tokens(text) % 7 == 0:
                raise RuntimeError("skip this one")
            return " ".join(text.split()[: max(1, len(text.split()) // 3)])

        budget = small_budget(
            target_tokens=rng.randint(50, 2000),
            window_groups=rng.randint(5, 60),
            recent_groups_protected=rng.randint(0, 5),
        )
        compress_pending(history, moody, budget)
        groups = group_messages(history)
        want_statuses, want_total, want_flag = oracle_selection(history, groups, budget)
        result = select_statuses(history, groups, budget)
        assert [s.value for s in result.statuses] == want_statuses, f"case {case}"
        assert result.total_tokens == want_total
        assert result.over_budget == want_flag


def oracle_selection(history, groups, budget) -> tuple[list[str], int, bool]:
    """Run selection_walk_oracle on a group size table built here from
    the messages, the cache and the history's counter."""
    table, pending = [], []
    for group in groups:
        row = {"original": 0, "compressed": 0, "truncate": 0}
        is_pending = False
        for mid in group.member_ids:
            msg = history.get(mid)
            row["original"] += msg.token_count
            form = history.cache.get(mid)
            row["compressed"] += form.token_count if form else msg.token_count
            head = truncate_text(msg.text, budget.truncate_head_tokens)
            row["truncate"] += history.counter(head)
            if msg.id not in history.cache:
                is_pending = True
        table.append(row)
        pending.append(is_pending)
    return selection_walk_oracle(
        table, pending, budget.target_tokens, budget.window_groups,
        budget.recent_groups_protected,
    )


@st.composite
def compressed_transcripts(draw):
    """A history after stage one, its groups, and a budget.

    Draws cover orphan tool messages, summarizer failures that leave
    groups pending, windows narrower than the transcript, an unpinned
    tail (recent_groups_protected=0), character counting, and targets
    from far below to above the transcript's size.
    """
    history = MessageHistory(draw(st.sampled_from([count_tokens, len])))
    sizes = st.integers(1, 120)
    n_groups = draw(st.integers(1, 60))
    for g in range(n_groups):
        kind = draw(st.sampled_from(["human", "ai", "system", "tool_call", "orphan_tool"]))
        if kind == "tool_call":
            history.add("ai", words(draw(sizes), f"g{g}a"), {"k": words(draw(sizes), f"g{g}v")})
            for t in range(draw(st.integers(0, 2))):
                history.add("tool", words(draw(sizes), f"g{g}t{t}"))
        else:
            role = "tool" if kind == "orphan_tool" else kind
            history.add(role, words(draw(sizes), f"g{g}m"))
    fail_every = draw(st.integers(2, 6))

    def failing_summarizer(text):
        kept = text.split()
        if len(kept) % fail_every == 0:
            raise RuntimeError("summarizer down")
        return " ".join(kept[: max(1, len(kept) // 3)])

    # half the draws keep the window under half the transcript
    window = draw(st.integers(1, max(1, n_groups // 2)) | st.integers(1, n_groups + 3))
    size = sum(m.token_count for m in history.messages)
    target = max(1, int(size * draw(st.floats(0.0, 1.2))))
    budget = BudgetConfig(
        trigger_tokens=max(100_000, target + 1),
        target_tokens=target,
        window_groups=window,
        recent_groups_protected=draw(st.integers(0, min(window, 4))),
        min_compress_tokens=draw(st.sampled_from([1, 20, 50])),
        truncate_head_tokens=draw(st.sampled_from([0, 8, 64])),
    )
    compress_pending(history, failing_summarizer, budget)
    return history, group_messages(history), budget


@settings(max_examples=200)
@given(case=compressed_transcripts())
def test_selection_matches_oracle_on_generated_transcripts(case):
    history, groups, budget = case
    want_statuses, want_total, want_flag = oracle_selection(history, groups, budget)
    result = select_statuses(history, groups, budget)
    assert [s.value for s in result.statuses] == want_statuses
    assert result.total_tokens == want_total
    assert result.over_budget == want_flag
    rendered = reconstruct_context(history, groups, result.statuses, budget)
    assert rendered_token_total(history, rendered) == result.total_tokens
    # stage one left everything outside the window pending
    window = {mid for g in groups[-budget.window_groups:] for mid in g.member_ids}
    assert set(history.cache) <= window


def test_counter_calls_stay_linear_however_many_moves(tmp_path):
    n = 60
    path = tmp_path / "transcript.jsonl"
    path.write_text("".join(
        json.dumps({"role": "human", "text": words(200, f"g{i}_")}) + "\n" for i in range(n)
    ))
    # nothing pinned and a target below the first group's floor: every
    # group compresses (200 -> 80) and truncates (-> 67), all but the
    # first then drop, and the walk never stops early
    budget = small_budget(target_tokens=1, window_groups=n, recent_groups_protected=0)
    counter = CountingCounter()
    history = load_transcript(path, counter)
    compress_pending(history, word_head_summarizer(0.4), budget)
    # one count of each message, one for its summary
    assert counter.calls <= 2 * n
    groups = group_messages(history)
    counter.calls = 0
    result = select_statuses(history, groups, budget)
    assert result.statuses[0] is SelectionStatus.TRUNCATE
    assert set(result.statuses[1:]) == {SelectionStatus.DROP}
    assert result.over_budget
    assert counter.calls <= 4 * n


def test_selection_degradation_is_monotone_in_pressure():
    rank = {
        SelectionStatus.ORIGINAL: 0,
        SelectionStatus.COMPRESSED: 1,
        SelectionStatus.TRUNCATE: 2,
        SelectionStatus.DROP: 3,
    }
    history, groups = crafted_history()
    previous = None
    for target in (2000, 950, 600, 400, 277, 150, 60):
        result = select_statuses(history, groups, small_budget(target_tokens=target))
        if previous is not None:
            for before, after in zip(previous, result.statuses):
                assert rank[after] >= rank[before]
        previous = result.statuses


# -- reconstruction --------------------------------------------------


def test_reconstruct_all_original_is_identity():
    history, groups = crafted_history()
    statuses = [SelectionStatus.ORIGINAL] * len(groups)
    rendered = reconstruct_context(history, groups, statuses, small_budget())
    assert [r.text for r in rendered] == [m.text for m in history.messages]
    assert [r.tool_call_args for r in rendered] == [
        m.tool_call_args for m in history.messages
    ]


def test_reconstruct_mixed_statuses_match_selection_total():
    history, groups = crafted_history()
    result = select_statuses(history, groups, small_budget())
    rendered = reconstruct_context(history, groups, result.statuses, small_budget())
    assert rendered_token_total(history, rendered) == result.total_tokens
    by_id = {r.id: r for r in rendered}
    # dropped groups 1 and 2 held message ids 1..6
    for mid in range(1, 7):
        assert mid not in by_id
    assert by_id[0].status is SelectionStatus.TRUNCATE
    assert by_id[0].text.endswith(" [truncated]")
    assert by_id[0].tool_call_args is None
    assert by_id[7].status is SelectionStatus.COMPRESSED
    assert by_id[7].text == history.cache[7].text
    assert by_id[9].status is SelectionStatus.ORIGINAL


def test_reconstruct_truncate_sheds_args():
    history = MessageHistory()
    history.add("ai", words(100), {"k": "v v v"})
    history.add("tool", words(100))
    groups = group_messages(history)
    rendered = reconstruct_context(
        history, groups, [SelectionStatus.TRUNCATE], small_budget()
    )
    assert rendered[0].tool_call_args is None
    assert count_tokens(rendered[0].text) == 67


# -- summarizer and budget -------------------------------------------


def test_head_fraction_summarizer_contract():
    summarize = head_fraction_summarizer(0.1)
    text = "x" * 1000
    assert summarize(text) == "x" * 100
    assert summarize("ab") == "a" if False else summarize("ab")  # never empty
    assert len(summarize("z")) == 1
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            head_fraction_summarizer(bad)


def test_budget_config_validation():
    with pytest.raises(ValueError):
        BudgetConfig(trigger_tokens=100, target_tokens=100)
    with pytest.raises(ValueError):
        BudgetConfig(recent_groups_protected=51, window_groups=50)
    with pytest.raises(ValueError):
        BudgetConfig(window_groups=0, recent_groups_protected=0)


# -- transcript files ------------------------------------------------


def test_load_transcript_round_trip(tmp_path):
    path = tmp_path / "transcript.jsonl"
    rows = [
        {"role": "system", "text": "be brief"},
        {"role": "ai", "text": "looking", "tool_call_args": {"q": "weather"}},
        {"role": "tool", "text": "sunny", "id": 9},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
    history = load_transcript(path)
    assert [m.id for m in history.messages] == [0, 1, 9]
    assert history.messages[1].tool_call_args == {"q": "weather"}
    assert history.messages[2].text == "sunny"


def test_load_transcript_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"role": "ai", "text": "ok"}\n{broken\n')
    with pytest.raises(ValueError, match=":2:"):
        load_transcript(path)
    path.write_text('{"text": "missing role"}\n')
    with pytest.raises(ValueError, match="role"):
        load_transcript(path)
    path.write_text('{"role": "ai", "text": "x", "id": "nine"}\n')
    with pytest.raises(ValueError, match="integer"):
        load_transcript(path)
    path.write_text('{"role": "ai", "text": "x", "id": true}\n')
    with pytest.raises(ValueError, match=":1: id must be an integer"):
        load_transcript(path)


@settings(max_examples=200)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=-(2**64), max_value=2**64), max_size=4),
            st.sampled_from(SelectionStatus),
        ),
        max_size=60,
    ),
    total=st.integers(min_value=0, max_value=2**64),
    over_budget=st.booleans(),
)
def test_sidecar_bytes_match_indented_json(rows, total, over_budget):
    groups = [MessageGroup(member_ids=tuple(ids)) for ids, _ in rows]
    result = SelectionResult(tuple(s for _, s in rows), total, over_budget)
    payload = {
        "schema_version": 1,
        "over_budget": over_budget,
        "total_tokens": total,
        "groups": [
            {"index": i, "member_ids": ids, "status": s.value}
            for i, (ids, s) in enumerate(rows)
        ],
    }
    with tempfile.TemporaryDirectory() as tmp:
        sidecar = Path(tmp) / "plan.json"
        write_selection_sidecar(sidecar, groups, result)
        assert sidecar.read_bytes() == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")


def test_sidecar_and_rendered_files(tmp_path):
    history, groups = crafted_history()
    result = select_statuses(history, groups, small_budget())
    sidecar = tmp_path / "selection.json"
    write_selection_sidecar(sidecar, groups, result)
    raw = json.loads(sidecar.read_text())
    assert raw["total_tokens"] == 277
    assert raw["over_budget"] is False
    assert raw["groups"][1] == {"index": 1, "member_ids": [1, 2, 3], "status": "drop"}

    rendered = reconstruct_context(history, groups, result.statuses, small_budget())
    out = tmp_path / "rendered.jsonl"
    write_rendered_context(out, rendered)
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == len(rendered)
    assert lines[0]["status"] == "truncate"
    assert all("tool_call_args" not in l or l["tool_call_args"] for l in lines)
