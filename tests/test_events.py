"""Infrastructure tests: the append-only event log, deterministic rng
derivation, and the operator vocabulary."""

from __future__ import annotations

import json

import pytest

from seedevo.errors import CorruptStateError, SeedevoError
from seedevo.events import EventLog, encode_event, read_events
from seedevo.config import DEFAULT_BASE_PROBS
from seedevo.operators import Operator
from seedevo.rng import derive_rng, derive_seed


# -- event log -------------------------------------------------------


def test_encode_event_is_compact_and_sorted():
    data = encode_event({"b": 1, "a": {"z": None, "y": [1, 2]}})
    assert data == b'{"a":{"y":[1,2],"z":null},"b":1}\n'


def test_append_and_read_round_trip(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    log.append({"type": "tournament", "iteration": 1})
    log.append({"type": "stopping", "iteration": 1, "stop": False})
    events, skipped = read_events(log.path)
    assert skipped == 0
    assert [e["type"] for e in events] == ["tournament", "stopping"]


def test_read_events_skips_malformed_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(
        b'{"type": "stopping", "iteration": 1}\n'
        b"{torn line\n"
        b"\n"
        b'["not", "an", "object"]\n'
        b'{"iteration": 2}\n'  # no type field
        b"\xff\xfe not utf-8\n"
        b'{"type": "hedge", "iteration": 2}\n'
    )
    events, skipped = read_events(path)
    assert [e["type"] for e in events] == ["stopping", "hedge"]
    assert skipped == 4


def test_append_returns_the_end_offset(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")  # no file yet
    a, b, c = {"type": "a"}, {"type": "b", "n": 1}, {"type": "c"}
    first = log.append(a)
    assert first == len(encode_event(a))
    end = log.append(b, c)  # several events, one append
    assert end == first + len(encode_event(b)) + len(encode_event(c))
    assert log.path.read_bytes() == encode_event(a) + encode_event(b) + encode_event(c)
    assert log.append() == end == log.path.stat().st_size


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_append_refuses_what_json_cannot_hold_and_writes_nothing(tmp_path, value):
    log = EventLog(tmp_path / "events.jsonl")
    log.append({"type": "a"})
    bad = {"type": "hedge", "iteration": 4, "probabilities": {"eda": value}}
    with pytest.raises(SeedevoError, match="'type': 'hedge', 'iteration': 4"):
        log.append({"type": "b"}, bad)
    assert log.path.read_bytes() == encode_event({"type": "a"})


def test_truncate_drops_suffix_only(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    keep = log.append({"type": "a"})
    log.append({"type": "b"})
    log.truncate_to(keep)
    events, _ = read_events(log.path)
    assert [e["type"] for e in events] == ["a"]
    log.truncate_to(keep)  # idempotent at the same offset
    assert log.path.stat().st_size == keep


def test_truncate_beyond_size_is_an_error(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    end = log.append({"type": "a"})
    with pytest.raises(CorruptStateError):
        log.truncate_to(end + 100)


def test_truncate_missing_file(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    log.truncate_to(0)  # fine: nothing to drop
    with pytest.raises(CorruptStateError):
        log.truncate_to(10)


# -- rng derivation --------------------------------------------------


def test_derive_seed_goldens():
    # pinned once: stability across platforms and python versions is
    # the whole point of deriving through sha-256
    assert derive_seed(0, "sim", 1, 0) == 7677193800494689558
    assert derive_seed(7, "plan", 2, 3) == 6266954402364177549


def test_derive_rng_stream_goldens():
    rng = derive_rng(0, "sim", 1, 0)
    assert rng.random() == 0.2236256277833233
    assert rng.gauss(0.0, 1.0) == 0.314309107742354


def test_derive_paths_are_independent():
    a = derive_rng(0, "sim", 1, 0).random()
    b = derive_rng(0, "sim", 1, 1).random()
    c = derive_rng(0, "plan", 1, 0).random()
    d = derive_rng(1, "sim", 1, 0).random()
    assert len({a, b, c, d}) == 4


def test_derive_is_reproducible():
    assert derive_rng(5, "x", 2).random() == derive_rng(5, "x", 2).random()


# -- operators -------------------------------------------------------


def test_operator_string_form():
    assert str(Operator.CONTINUE) == "continue"
    assert json.dumps(Operator.EDA) == '"eda"'
    assert Operator("merge") is Operator.MERGE


def test_operator_order_covers_all():
    # declaration order is the sampling order, and the order in which
    # load_config lays out every probability map
    assert list(Operator) == list(DEFAULT_BASE_PROBS)
    assert len(Operator) == 6
