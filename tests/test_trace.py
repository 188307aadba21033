import datetime as dt
import gzip
import json
import re
import tempfile
import zlib
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


def trace_text(path) -> str:
    data = path.read_bytes()
    return (gzip.decompress(data) if path.suffix == ".gz" else data).decode("utf-8")


class TestTraceSink:
    def test_header_then_sequential_events(self, tmp_path):
        for name in ("trace.log.gz", "trace.log"):
            path = tmp_path / name
            with TraceSink(path) as sink:
                sink.emit("flow_start", "a#1", {"note": 1})
                sink.emit("flow_end", "a#1")
            assert (path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")
            lines = trace_text(path).splitlines()
            header = json.loads(lines[0])
            assert header.keys() == {"t0", "trace_format"} and header["trace_format"] == 4
            events = [json.loads(line) for line in lines[1:]]
            assert all(e.keys() == {"seq", "t", "instance_id", "kind", "body"} for e in events)
            assert [e["seq"] for e in events] == [1, 2]
            assert [e["kind"] for e in events] == ["flow_start", "flow_end"]
            assert [e["body"] for e in events] == [{"note": 1}, {}]
            assert all(isinstance(e["t"], int) for e in events)

    def test_flow_end_flushes(self, tmp_path):
        path = tmp_path / "trace.log.gz"
        sink = TraceSink(path)
        try:
            sink.emit("flow_start", "a#1")
            sink.emit("flow_end", "a#1")
            sink.emit("flow_start", "b#2")
            # Readable before close up to the flow_end, which ends a deflate
            # block; the stream itself is not ended.
            stream = zlib.decompressobj(31)
            text = stream.decompress(path.read_bytes()).decode("utf-8")
            assert len(text.splitlines()) == 3 and text.endswith("\n")
            assert not stream.eof
        finally:
            sink.close()
        sink.close()
        assert [e.kind for e in read_trace(path)] == ["flow_start", "flow_end", "flow_start"]

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

    def test_gzip_is_told_by_its_magic_bytes(self, tmp_path):
        with TraceSink(tmp_path / "trace.log.gz") as sink:
            emitted = [sink.emit("flow_start", "a#1"), sink.emit("flow_end", "a#1")]
        compressed = (tmp_path / "trace.log.gz").read_bytes()
        (tmp_path / "named-plain.log").write_bytes(compressed)
        (tmp_path / "named-compressed.log.gz").write_bytes(gzip.decompress(compressed))
        for name in ("trace.log.gz", "named-plain.log", "named-compressed.log.gz"):
            assert read_trace(tmp_path / name) == emitted, name

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
    """Write ``(kind, instance_id, body)`` triples to a compressed file; return
    what it reads back, what ``emit`` returned and the file's text."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trace.log.gz"
        with TraceSink(path) as sink:
            emitted = [sink.emit(kind, instance_id, body) for kind, instance_id, body in emits]
        return read_trace(path), emitted, trace_text(path)


def message(id_, payload, parents=(), created_at=None, created_by="f#1"):
    stamp = created_at or dt.datetime.now(dt.timezone.utc).isoformat()
    return {"message": {"id": id_, "created_at": stamp, "created_by": created_by,
                        "payload": payload, "parents": list(parents)}}


def request(*turns, **extra):
    return {"backend": "default", "fingerprint": "f" * 64,
            "request": {"model": "m", "temperature": 0.0, "max_tokens": 8,
                        "turns": [{"role": r, "content": c} for r, c in turns], **extra}}


T0 = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc)


def at(offset: int) -> str:
    """The time ``offset`` microseconds after ``T0``."""
    return (T0 + dt.timedelta(microseconds=offset)).isoformat()


def write_encoded(path, lines, version=3):
    """Write a trace as format 3 (or 2) wrote it: a header, then one line per
    ``(instance_id, kind, enc, body)``, the n-th at ``t`` = n."""
    rows = [{"t0": T0.isoformat(), "trace_format": version}]
    for seq, (instance_id, kind, enc, body) in enumerate(lines, start=1):
        row = {"seq": seq, "t": seq, "instance_id": instance_id, "kind": kind, "body": body}
        if enc is not None:
            row["enc"] = enc
        rows.append(row)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


class TestFormat2:
    """Formats 2 and 3, whose lines leave out what the file already holds:
    hand-written lines read back as the events they encode. Traces that
    formats 2 and 3 wrote are replayed from ``tests/format_2_run`` and
    ``tests/format_3_run`` in test_cli.py."""

    def test_encodings_round_trip(self, tmp_path):
        g1 = message("g1", {"task": "t"}, created_at=at(1))
        m1 = message("m1", {"task": "t", "tests": [1, 2], "old": 0}, ["g1"], created_at=at(2))
        # A time that is no whole offset from t0 is written as it is.
        m2 = message("m2", {"task": "t", "tests": [1, 2], "out": "r"}, ["g1", "m1"],
                     created_at="2024-01-01T05:00:00+05:00", created_by="b#2")
        first, again = request(("system", "s"), ("user", "u")), request(
            ("system", "s"), ("user", "u"), ("assistant", "r"), ("user", "again"))
        warning = {"message": "cache read failed: disk full"}
        other = {"backend": "other", "cached": False, "fingerprint": "f" * 64, "response": "r2"}
        m2_delta = {"id": "m2", "parents": ["g1", "m1"], "created_at": m2["message"]["created_at"],
                    "set": {"out": "r"}, "del": ["old"]}
        # (instance_id, kind, the event's body, enc, the body as written)
        cases = [
            ("a#1", "message_in", g1, "message", {"message": {
                "id": "g1", "created_by": "f#1", "parents": [], "created_at": 1,
                "payload": {"task": "t"}}}),
            # A delta holds the keys that change from the last parent.
            ("b#2", "message_in", m1, "delta", {"message": {
                "id": "m1", "created_by": "f#1", "parents": ["g1"], "created_at": 2,
                "set": {"tests": [1, 2], "old": 0}}}),
            ("b#2", "backend_call", first, None, first),
            ("b#2", "warning", warning, None, warning),
            # A response holds only what its call does not.
            ("b#2", "backend_response", {"backend": "default", "cached": True,
                                         "fingerprint": "f" * 64, "response": "r"},
             "resp", {"cached": True, "response": "r"}),
            # A request keeps the turns of its flow's conversation so far.
            ("b#2", "backend_call", again, "call", {**again, "request": {
                **again["request"], "keep": 3, "turns": [{"role": "user", "content": "again"}]}}),
            ("b#2", "backend_response", other, None, other),
            # A message_out leaves out its creator, its own instance.
            ("b#2", "message_out", m2, "delta", {"message": m2_delta}),
            ("c#3", "message_in", m2, "delta", {"message": {**m2_delta, "created_by": "b#2"}}),
        ]
        path = tmp_path / "trace.log"
        write_encoded(path, [(instance, kind, enc, written)
                             for instance, kind, _, enc, written in cases])
        assert read_trace(path) == [TraceEvent(seq, at(seq), instance, kind, body)
                                    for seq, (instance, kind, body, _, _)
                                    in enumerate(cases, start=1)]

    def test_format_2_deltas_are_against_the_first_parent(self, tmp_path):
        path = tmp_path / "trace.log"
        write_encoded(path, [
            ("a#1", "message_in", "message", {"message": {
                "id": "g1", "created_by": "f#1", "parents": [], "created_at": 1,
                "payload": {"x": 1}}}),
            ("a#1", "message_in", "message", {"message": {
                "id": "g2", "created_by": "f#1", "parents": [], "created_at": 2,
                "payload": {"y": 2}}}),
            ("a#1", "message_out", "delta", {"message": {
                "id": "m1", "parents": ["g1", "g2"], "created_at": 3, "set": {"z": 3}}}),
        ], version=2)
        assert read_trace(path)[2].body["message"]["payload"] == {"x": 1, "z": 3}

    @pytest.mark.parametrize("line", [
        {"enc": "ref", "body": {"id": "g1"}},
        {"enc": "append", "body": {"key": "seen", "value": [2]}},
        {"enc": "gzip", "body": {}},
    ], ids=["ref", "append", "gzip"])
    def test_unknown_encoding_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "trace.log"
        write_encoded(path, [
            ("a#1", "message_in", "message", {"message": {
                "id": "g1", "created_by": "f#1", "parents": [], "created_at": 1,
                "payload": {"task": "t"}}}),
            ("a#1", "flow_end", None, {}),
            ("a#1", "message_in", line["enc"], line["body"]),
        ])
        expected = f"trace file {path}, line 4: unknown encoding '{line['enc']}'"
        with pytest.raises(NestflowError, match=re.escape(expected)):
            read_trace(path)

    @pytest.mark.parametrize("line, detail", [
        (("a#1", "message_in", "delta", {"message": {
            "id": "m1", "created_by": "f#1", "parents": ["g9"], "created_at": 2, "set": {}}}),
         "message 'm1' is a delta against 'g9', which the trace does not hold"),
        (("a#1", "message_in", "message", {"message": {
            "id": "m1", "created_by": "f#1", "parents": [], "created_at": 2, "payload": []}}),
         "message 'm1' is malformed"),
        (("a#1", "message_in", "message", {"message": {
            "id": "m1", "created_by": "f#1", "parents": [], "created_at": 2.5, "payload": {}}}),
         "time offset 2.5 is not an integer"),
        (("a#1", "backend_call", "call", request(("user", "v"), keep=5)),
         "request of a#1 keeps 5 turns of a conversation of 1"),
        (("b#2", "backend_response", "resp", {"response": "r"}),
         "response of b#2 answers no call of its instance"),
    ], ids=["delta-parent-gone", "malformed-message", "time-not-an-offset", "keep-too-many",
            "response-without-call"])
    def test_undecodable_line_names_file_and_line(self, tmp_path, line, detail):
        path = tmp_path / "trace.log"
        write_encoded(path, [("a#1", "backend_call", None, request(("user", "u"))), line])
        with pytest.raises(NestflowError, match=re.escape(f"trace file {path}, line 3: {detail}")):
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
        write_encoded(path, [
            ("a#1", "backend_call", None, request(("user", "u"))),
            ("a#1", "backend_response", "resp", {"fingerprint": "0" * 64, "response": "r"}),
            ("a#1", "message_out", "message", {"message": {
                "id": "m1", "created_by": "b#2", "parents": [], "created_at": 3,
                "payload": {"x": 1}}}),
        ])
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
    out_dir = tmp_path_factory.mktemp("grid")
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

    def test_files_are_at_most_a_third_of_the_full_form(self, recorded_grid):
        assert all(path.name == "trace.log.gz" for path in recorded_grid)
        written = sum(path.stat().st_size for path in recorded_grid)
        full = sum(len(canonical_json(asdict(event))) + 1 for events in recorded_grid.values()
                   for event in events)
        assert written < full / 3


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
    return run_dir / problem.id / "Code" / "trace.log.gz"


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
        lines = trace_text(path).splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event.get("kind") == "backend_response":
                event["body"]["fingerprint"] = "0" * 64
                lines[i] = json.dumps(event)
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode("utf-8")))
        replay = replay_pair(tmp_path, "cf-echo-101", "Code")
        assert not replay.identical
        assert "not present in recorded responses" in replay.error
