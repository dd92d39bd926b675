"""Tests for structured JSON-lines logging and correlation IDs."""

from __future__ import annotations

import io
import json
import threading

from repro.service.log import (
    JsonLogger,
    bind_request_id,
    current_request_id,
    new_request_id,
    parse_jsonl,
)


def test_new_request_id_shape_and_uniqueness():
    ids = {new_request_id() for _ in range(64)}
    assert len(ids) == 64
    for rid in ids:
        assert len(rid) == 16
        int(rid, 16)  # hex


def test_bind_request_id_scopes_the_context():
    assert current_request_id() is None
    with bind_request_id("abc123"):
        assert current_request_id() == "abc123"
        with bind_request_id("nested"):
            assert current_request_id() == "nested"
        assert current_request_id() == "abc123"
    assert current_request_id() is None


def test_disabled_logger_is_a_noop():
    log = JsonLogger()
    assert not log.enabled
    log.event("anything", key="value")  # must not raise, writes nowhere


def test_event_writes_one_json_line_with_context_id():
    log = JsonLogger()
    sink = io.StringIO()
    log.configure(stream=sink, service="test")
    with bind_request_id("feedbeefcafe0001"):
        log.event("request.done", kind="compile", ms=1.25)
    (record,) = parse_jsonl(sink.getvalue())
    assert record["event"] == "request.done"
    assert record["request_id"] == "feedbeefcafe0001"
    assert record["service"] == "test"
    assert record["kind"] == "compile"
    assert record["ms"] == 1.25
    assert isinstance(record["ts"], float)


def test_explicit_request_id_wins_over_context():
    log = JsonLogger()
    sink = io.StringIO()
    log.configure(stream=sink)
    with bind_request_id("context-id"):
        log.event("x", request_id="explicit-id")
    (record,) = parse_jsonl(sink.getvalue())
    assert record["request_id"] == "explicit-id"


def test_none_fields_are_dropped():
    log = JsonLogger()
    sink = io.StringIO()
    log.configure(stream=sink)
    log.event("x", present=1, absent=None)
    (record,) = parse_jsonl(sink.getvalue())
    assert "absent" not in record
    assert record["present"] == 1


def test_disable_stops_writing():
    log = JsonLogger()
    sink = io.StringIO()
    log.configure(stream=sink)
    log.event("before")
    log.disable()
    log.event("after")
    records = parse_jsonl(sink.getvalue())
    assert [r["event"] for r in records] == ["before"]


def test_configure_path_appends_jsonl(tmp_path):
    log = JsonLogger()
    target = tmp_path / "events.jsonl"
    log.configure(path=str(target))
    log.event("one")
    log.disable()
    log.configure(path=str(target))
    log.event("two")
    log.disable()
    records = parse_jsonl(target.read_text())
    assert [r["event"] for r in records] == ["one", "two"]


def test_concurrent_writers_produce_valid_lines():
    log = JsonLogger()
    sink = io.StringIO()
    log.configure(stream=sink)

    def write(worker: int) -> None:
        with bind_request_id(f"req-{worker}"):
            for index in range(50):
                log.event("tick", worker=worker, index=index)

    threads = [
        threading.Thread(target=write, args=(worker,)) for worker in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records = parse_jsonl(sink.getvalue())
    assert len(records) == 200
    for record in records:
        assert record["request_id"] == f"req-{record['worker']}"


def test_bound_id_crosses_thread_spawn_explicitly():
    """contextvars don't auto-propagate into threads — the pool binds
    the job's ID inside the worker explicitly; mirror that pattern."""
    log = JsonLogger()
    sink = io.StringIO()
    log.configure(stream=sink)
    rid = new_request_id()

    def worker() -> None:
        with bind_request_id(rid):
            log.event("in-thread")

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    (record,) = parse_jsonl(sink.getvalue())
    assert record["request_id"] == rid


def test_unjsonable_values_degrade_to_str():
    log = JsonLogger()
    sink = io.StringIO()
    log.configure(stream=sink)
    log.event("x", payload=object())
    (record,) = parse_jsonl(sink.getvalue())
    assert "object object" in record["payload"]
    json.dumps(record)
