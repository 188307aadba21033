import datetime as dt
import json
import re
import tempfile
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from nestflow._util import canonical_json
from nestflow.backends import ScriptedBackend
from nestflow.ccflows import DEFAULT_VARIANTS, VariantSettings
from nestflow.core import RunContext, create_flow, package_input, run
from nestflow.errors import NestflowError
from nestflow.evalharness import EvalSettings, evaluate_grid, replay_pair
from nestflow.trace import (
    EVENT_KINDS,
    TraceEvent,
    TraceSink,
    normalize_trace,
    read_trace,
)

ECHO = "```python\nprint(input())\n```"


def llm_config(name="writer"):
    return {
        "name": name,
        "kind": "llm",
        "input_keys": ["task"],
        "output_keys": ["completion"],
        "params": {"system_message": "system",
                   "query_message": "please handle {{task}}"},
    }


def scripted_ctx(sink, responses):
    return RunContext(trace=sink,
                      backends={"default": ScriptedBackend(responses=responses)})


class TestTraceSink:
    def test_header_then_sequential_events(self, tmp_path):
        path = tmp_path / "trace.log"
        with TraceSink(path) as sink:
            sink.emit("flow_start", "a#1", {"note": 1})
            sink.emit("flow_end", "a#1")
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header.keys() == {"t0", "trace_format"} and header["trace_format"] == 3
        events = [json.loads(line) for line in lines[1:]]
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["kind"] for e in events] == ["flow_start", "flow_end"]
        assert all(isinstance(e["t"], int) for e in events)

    def test_flow_end_flushes(self, tmp_path):
        path = tmp_path / "trace.log"
        sink = TraceSink(path)
        try:
            sink.emit("flow_start", "a#1")
            sink.emit("flow_end", "a#1")
            # Readable before close because flow_end forces a flush.
            assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        finally:
            sink.close()

    def test_unknown_kind_rejected(self, tmp_path):
        with TraceSink(tmp_path / "t.log") as sink:
            with pytest.raises(NestflowError, match="unknown trace event kind"):
                sink.emit("flow_started", "a#1")


class TestMemorySink:
    def test_memory_sink_collects(self):
        sink = TraceSink()
        sink.emit("flow_start", "a#1")
        sink.emit("flow_end", "a#1")
        assert [e.seq for e in sink.events] == [1, 2]
        assert sink.path is None
        with pytest.raises(NestflowError, match="unknown trace event kind"):
            sink.emit("bogus", "a#1")
        sink.close()

    def test_run_context_keeps_events_by_default(self):
        ctx = RunContext(backends={"default": ScriptedBackend(responses=["ok"])})
        run(create_flow(llm_config()), package_input({"task": "t"}), ctx)
        assert ctx.trace.path is None
        assert ctx.trace.events[0].kind == "flow_start"
        assert ctx.trace.events[-1].kind == "flow_end"


class TestReadTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.log"
        with TraceSink(path) as sink:
            emitted = [sink.emit("flow_start", "a#1", {"payload": {"x": 1}}),
                       sink.emit("flow_end", "a#1")]
        assert read_trace(path) == emitted

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.log"
        path.write_text("", encoding="utf-8")
        with pytest.raises(NestflowError, match="is empty"):
            read_trace(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "future.log"
        path.write_text('{"trace_format": 99}\n', encoding="utf-8")
        with pytest.raises(NestflowError, match="unsupported format version 99"):
            read_trace(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "head.log"
        path.write_text('{"seq": 1}\n', encoding="utf-8")
        with pytest.raises(NestflowError, match="unsupported format version None"):
            read_trace(path)


def written_and_emitted(emits):
    """Write ``(kind, instance_id, body)`` triples to a file; return what it reads
    back and what ``emit`` returned."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.log"
        with TraceSink(path) as sink:
            emitted = [sink.emit(kind, instance_id, body) for kind, instance_id, body in emits]
        return read_trace(path), emitted, path.read_text(encoding="utf-8")


def message(id_, payload, parents=(), created_at=None, created_by="f#1"):
    stamp = created_at or dt.datetime.now(dt.timezone.utc).isoformat()
    return {"message": {"id": id_, "created_at": stamp, "created_by": created_by,
                        "payload": payload, "parents": list(parents)}}


def request(*turns, **extra):
    return {"backend": "default", "fingerprint": "f" * 64,
            "request": {"model": "m", "temperature": 0.0, "max_tokens": 8,
                        "turns": [{"role": r, "content": c} for r, c in turns], **extra}}


class TestFormat2:
    """Encoded traces: what the writer encodes reads back as emitted. Traces
    that format 2 wrote are replayed from ``tests/format_2_run`` in test_cli.py."""

    def test_encodings_round_trip(self):
        out = message("m2", {"task": "t", "tests": [1, 2], "out": "r"}, ["g1", "m1"],
                      created_by="b#2")
        emits = [
            ("message_in", "a#1", message("g1", {"task": "t"})),
            ("message_in", "b#2", message("m1", {"task": "t", "tests": [1, 2]}, ["g1"])),
            ("backend_call", "b#2", request(("system", "s"), ("user", "u"))),
            ("warning", "b#2", {"message": "cache read failed: disk full"}),
            ("backend_response", "b#2", {"backend": "default", "cached": True,
                                          "fingerprint": "f" * 64, "response": "r"}),
            ("backend_call", "b#2", request(("system", "s"), ("user", "u"),
                                            ("assistant", "r"), ("user", "again"))),
            ("backend_response", "b#2", {"backend": "other", "cached": False,
                                          "fingerprint": "f" * 64, "response": "r2"}),
            ("message_out", "b#2", out),
            ("message_in", "c#3", out),
        ]
        read, emitted, text = written_and_emitted(emits)
        assert read == emitted
        lines = [json.loads(line) for line in text.splitlines()[1:]]
        assert [line.get("enc") for line in lines] == [
            "message", "delta", None, None, "resp", "call", None, "delta", "delta"]
        # A response holds only what its call does not; a message only what
        # its last parent does not, and a message_out not its own creator.
        assert lines[4]["body"] == {"cached": True, "response": "r"}
        assert lines[7]["body"]["message"].keys() == {"id", "created_at", "parents", "set"}
        assert lines[7]["body"]["message"]["set"] == {"out": "r"}
        assert lines[8]["body"]["message"]["created_by"] == "b#2"

    @pytest.mark.parametrize("line", [
        {"enc": "ref", "body": {"id": "g1"}},
        {"enc": "append", "body": {"key": "seen", "value": [2]}},
        {"enc": "gzip", "body": {}},
    ], ids=["ref", "append", "gzip"])
    def test_unknown_encoding_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "trace.log"
        with TraceSink(path) as sink:
            sink.emit("message_in", "a#1", message("g1", {"task": "t"}))
            sink.emit("flow_end", "a#1")
        event = {"seq": 3, "t": 0, "instance_id": "a#1", "kind": "message_in", **line}
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(event) + "\n")
        expected = f"trace file {path}, line 4: unknown encoding '{line['enc']}'"
        with pytest.raises(NestflowError, match=re.escape(expected)):
            read_trace(path)

    def test_bodies_that_resemble_encodings_round_trip(self):
        emits = [
            ("message_in", "a#1", message("g1", {"x": 1}, created_at="t0")),
            ("message_in", "a#1", message("g1", {"x": 2}, created_at="2024-01-01T00:00:00")),
            ("message_in", "a#1", message("g2", {"x": 2}, ["g1"],
                                          created_at="2024-01-01T00:00:00+05:00")),
            ("message_out", "a#1", {"message": {"id": "g3"}, "extra": 1}),
            ("message_out", "a#1", message("g4", {"x": 3}, ["g2"], created_at=5)),
            ("backend_call", "a#1", request(("user", "u"))),
            ("backend_call", "a#1", request(("user", "u"), keep=1)),
            ("backend_call", "a#1", {"request": "text"}),
            ("backend_response", "a#1", {"response": "r"}),
            ("backend_response", "b#2", {"backend": "default", "fingerprint": "f" * 64}),
            ("backend_call", "a#1", request(("user", "v"))),
            ("backend_response", "a#1", {"response": 7}),
            ("backend_response", "a#1", {"fingerprint": "f" * 64, "response": "r"}),
            ("backend_response", "a#1", {"backend": "default", "fingerprint": "f" * 64,
                                         "enc": "call"}),
            ("message_out", "f#1", message("g5", {"x": 3}, ["g4", "g2"], created_by="g#1")),
            ("message_out", "f#1", message("g6", {}, ["g5"])),
            ("flow_start", "a#1", {"enc": "ref", "id": "g1"}),
        ]
        read, emitted, _ = written_and_emitted(emits)
        assert read == emitted

    def test_written_keys_win_over_rebuilt_ones(self, tmp_path):
        path = tmp_path / "trace.log"
        with TraceSink(path) as sink:
            sink.emit("backend_call", "a#1", request(("user", "u")))
            sink.emit("backend_response", "a#1", {"backend": "default",
                                                  "fingerprint": "f" * 64, "response": "r"})
            sink.emit("message_out", "a#1", message("m1", {"x": 1}, created_by="a#1"))
        header, *lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [line.get("enc") for line in lines] == [None, "resp", "message"]
        lines[1]["body"]["fingerprint"] = "0" * 64
        lines[2]["body"]["message"]["created_by"] = "b#2"
        path.write_text("\n".join(json.dumps(line) for line in [header, *lines]) + "\n",
                        encoding="utf-8")
        _, response, out = read_trace(path)
        assert response.body == {"backend": "default", "fingerprint": "0" * 64, "response": "r"}
        assert out.body["message"]["created_by"] == "b#2"

    @given(st.lists(st.tuples(
        st.sampled_from(["message_in", "message_out", "backend_call", "backend_response"]),
        st.sampled_from(["a#1", "b#2", "f#1"]),
        st.sampled_from(["m1", "m2", "m3"]),
        st.lists(st.sampled_from(["m1", "m2", "m3"]), max_size=2),
        st.dictionaries(st.sampled_from("abc"), st.sampled_from([0, 1, "x", [1]]), max_size=3),
        st.lists(st.tuples(st.sampled_from(["user", "assistant"]), st.sampled_from("pq")),
                 max_size=3)), max_size=12))
    @hyp_settings(max_examples=60, deadline=None)
    def test_random_event_sequences_round_trip(self, steps):
        emits = []
        for kind, instance, id_, parents, payload, turns in steps:
            if kind.startswith("message"):
                body = message(id_, payload, parents)
            elif kind == "backend_call":
                body = request(*turns)
            else:
                body = {"backend": "default", "fingerprint": "f" * 64 if payload else "f",
                        "response": id_, "cached": False}
            emits.append((kind, instance, body))
        read, emitted, _ = written_and_emitted(emits)
        assert read == emitted


@pytest.fixture(scope="module")
def recorded_grid(tmp_path_factory, problems, fixture_settings):
    """The fixture grid written to files, and every event each file's sink emitted."""
    out_dir = tmp_path_factory.mktemp("format-2-grid")
    emitted = defaultdict(list)
    original = TraceSink.emit

    def recording(sink, kind, instance_id, body=None):
        event = original(sink, kind, instance_id, body)
        emitted[sink.path].append(event)
        return event

    settings = EvalSettings(
        out_dir=out_dir, variant_settings=fixture_settings,
        backend=ScriptedBackend.from_rules_file(Path(__file__).resolve().parents[1]
                                                / "fixtures" / "scripted_responses.yaml"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TraceSink, "emit", recording)
        evaluate_grid(problems, list(DEFAULT_VARIANTS), settings)
    return emitted


class TestFixtureGridTraces:
    def test_every_file_reads_back_as_emitted(self, recorded_grid):
        assert len(recorded_grid) == 54
        for path, events in recorded_grid.items():
            assert read_trace(path) == events, path

    def test_files_are_at_most_half_the_full_form(self, recorded_grid):
        written = sum(path.stat().st_size for path in recorded_grid)
        full = sum(len(canonical_json(asdict(event))) + 1 for events in recorded_grid.values()
                   for event in events)
        assert written < 0.5 * full


class TestNormalizeTrace:
    def run_once(self):
        sink = TraceSink()
        flow = create_flow(llm_config())
        run(flow, package_input({"task": "sort a list"}),
            scripted_ctx(sink, ["done"]))
        return sink.events

    def test_fresh_runs_normalize_identically(self):
        first, second = self.run_once(), self.run_once()
        raw_ids = {e.instance_id for e in first} | {e.instance_id for e in second}
        assert len(raw_ids) > 1 or first == second
        assert normalize_trace(first) == normalize_trace(second)

    def test_ids_become_first_occurrence_ordinals(self):
        normalized = normalize_trace(self.run_once())
        assert normalized[0]["seq"] == 1
        assert normalized[0]["instance_id"] == "#1"
        seen = set()
        for event in normalized:
            assert "timestamp" not in event
            seen.add(event["instance_id"])
        assert "#1" in seen

    def test_parents_and_nested_ids_renumbered(self):
        events = [TraceEvent(1, "t0", "flow-abc", "message_in",
                             {"id": "msg-1", "parents": ["msg-0"],
                              "created_at": "t0", "payload": {"x": 1}})]
        normalized = normalize_trace(events)
        body = normalized[0]["body"]
        assert body["id"] == "#2" and body["parents"] == ["#3"]
        assert "created_at" not in body
        assert body["payload"] == {"x": 1}

    def test_cached_flag_dropped_from_backend_responses_only(self):
        def events(cached):
            return [TraceEvent(1, "t0", "a#1", "backend_response",
                               {"fingerprint": "f", "response": "r", "cached": cached}),
                    TraceEvent(2, "t0", "a#1", "message_out",
                               {"message": {"payload": {"cached": cached}}})]

        fresh, served = normalize_trace(events(False)), normalize_trace(events(True))
        assert fresh[0] == served[0]
        assert fresh[0]["body"] == {"fingerprint": "f", "response": "r"}
        assert fresh[1] != served[1]

    def test_warnings_dropped(self):
        def events(*warned):
            return [TraceEvent(1, "t0", "a#1", "backend_call", {"fingerprint": "f"}),
                    *(TraceEvent(2, "t0", "a#1", "warning", {"message": m}) for m in warned),
                    TraceEvent(3, "t0", "a#1", "backend_response", {"response": "r"})]

        assert normalize_trace(events("cache read failed: x", "cache write failed: y")) \
            == normalize_trace(events())


class TestLlmRunTraceShape:
    def test_core_event_order(self):
        sink = TraceSink()
        flow = create_flow(llm_config())
        run(flow, package_input({"task": "anything"}), scripted_ctx(sink, ["ok"]))
        kinds = [e.kind for e in sink.events]
        expected = ["flow_start", "message_in", "backend_call",
                    "backend_response", "message_out", "flow_end"]
        positions = []
        cursor = 0
        for kind in expected:
            cursor = kinds.index(kind, cursor)
            positions.append(cursor)
        assert positions == sorted(positions)
        assert set(kinds) <= EVENT_KINDS

    def test_backend_events_carry_fingerprint_and_response(self):
        sink = TraceSink()
        flow = create_flow(llm_config())
        run(flow, package_input({"task": "anything"}), scripted_ctx(sink, ["ok"]))
        calls = [e for e in sink.events if e.kind == "backend_call"]
        replies = [e for e in sink.events if e.kind == "backend_response"]
        assert len(calls) == len(replies) == 1
        assert replies[0].body["response"] == "ok"
        assert replies[0].body["fingerprint"] == calls[0].body["fingerprint"]


def recorded_pair(run_dir, problem, responses):
    """Record the Code pair of one problem, answered by a scripted queue."""
    settings = EvalSettings(out_dir=run_dir, backend=ScriptedBackend(responses=responses),
                            variant_settings=VariantSettings(wall_time=2.0))
    evaluate_grid([problem], ["Code"], settings)
    return run_dir / problem.id / "Code" / "trace.log"


class TestReplayBackend:
    def test_replays_recorded_responses(self, tmp_path, problems_by_id):
        recorded_pair(tmp_path, problems_by_id["cf-echo-101"], [ECHO])
        replay = replay_pair(tmp_path, "cf-echo-101", "Code")
        assert replay.identical and replay.error is None
        assert [e["body"]["response"] for e in replay.replayed
                if e["kind"] == "backend_response"] == [ECHO]

    def test_divergent_request_rejected(self, tmp_path, problems_by_id):
        path = recorded_pair(tmp_path, problems_by_id["cf-echo-101"], [ECHO])
        # File the recorded response under another request's fingerprint.
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event.get("kind") == "backend_response":
                event["body"]["fingerprint"] = "0" * 64
                lines[i] = json.dumps(event)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        replay = replay_pair(tmp_path, "cf-echo-101", "Code")
        assert not replay.identical
        assert "not present in recorded responses" in replay.error
