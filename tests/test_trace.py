import json

import pytest

from nestflow.backends import ScriptedBackend
from nestflow.ccflows import VariantSettings
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
        assert json.loads(lines[0]) == {"trace_format": 1}
        events = [json.loads(line) for line in lines[1:]]
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["kind"] for e in events] == ["flow_start", "flow_end"]

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
