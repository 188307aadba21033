import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestflow.core import (
    FixedReplyFlow,
    FlowConfig,
    FlowInstance,
    Message,
    RunContext,
    create_flow,
    load_flow_config,
    package_input,
    registered_kinds,
    reset_state,
    run,
    save_flow_config,
    snapshot_states,
)
from nestflow.backends import RemoteBackend
from nestflow.errors import AuthError, ConfigError, DatasetError, FlowError, MissingInputKeysError
from nestflow.trace import TraceSink

payloads = st.dictionaries(
    st.text(min_size=1, max_size=6).filter(lambda k: not k.startswith("_")),
    st.one_of(st.text(max_size=10), st.integers(), st.booleans()),
    max_size=5,
)


def fixed_reply_config(name="echo", reply="hello", **overrides):
    doc = {"name": name, "kind": "fixed_reply", "params": {"reply": reply}}
    doc.update(overrides)
    return FlowConfig.from_dict(doc)


class TestMessage:
    def test_equality_ignores_created_at(self):
        a = Message(id="m1", created_at="t1", created_by="x", payload={"k": 1})
        b = Message(id="m1", created_at="t2", created_by="x", payload={"k": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_ignores_payload_key_order(self):
        a = Message(id="m1", created_at="t", created_by="x", payload={"a": 1, "b": 2})
        b = Message(id="m1", created_at="t", created_by="x", payload={"b": 2, "a": 1})
        assert a == b

    def test_differs_on_payload_and_parents(self):
        a = Message(id="m1", created_at="t", created_by="x", payload={"k": 1})
        assert a != Message(id="m1", created_at="t", created_by="x", payload={"k": 2})
        assert a != Message(id="m1", created_at="t", created_by="x", payload={"k": 1},
                            parents=("m0",))
        assert a.__eq__(object()) is NotImplemented

    def test_package_input_copies_payload(self):
        payload = {"nested": {"k": [1]}}
        message = package_input(payload)
        payload["nested"]["k"].append(2)
        assert message.payload == {"nested": {"k": [1]}}

    def test_package_input_rejects_bad_payload(self):
        with pytest.raises(ConfigError):
            package_input({"bad": None})

    def test_ids_are_unique(self):
        ids = {package_input({}).id for _ in range(5)}
        assert len(ids) == 5


class TestFlowConfig:
    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            FlowConfig.from_dict({"name": "x", "kind": "fixed_reply", "outputs": []})

    def test_requires_name_and_kind(self):
        with pytest.raises(ConfigError):
            FlowConfig(name="", kind="fixed_reply")
        with pytest.raises(ConfigError):
            FlowConfig(name="x", kind="")

    def test_rejects_duplicate_and_reserved_keys(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FlowConfig(name="x", kind="k", input_keys=("a", "a"))
        with pytest.raises(ConfigError, match="reserved"):
            FlowConfig(name="x", kind="k", output_keys=("_rounds_used",))

    def test_to_dict_detaches_params(self):
        config = fixed_reply_config()
        doc = config.to_dict()
        doc["params"]["reply"] = "changed"
        assert config.params["reply"] == "hello"

    def test_yaml_round_trip(self, tmp_path):
        config = fixed_reply_config()
        path = tmp_path / "flow.yaml"
        save_flow_config(config, path)
        assert load_flow_config(path) == config


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_kinds()
        for kind in ("fixed_reply", "transform", "sequential", "circular",
                     "generator_critic", "llm", "code_testing", "human_plan"):
            assert kind in kinds

    @staticmethod
    def fresh_interpreter(code):
        """The JSON that ``code`` prints, run in a new interpreter on this checkout."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    def test_runtime_import_registers_every_kind_without_the_harness(self):
        """`import nestflow.core` in a fresh interpreter registers the eight
        built-in kinds and loads neither the evaluation harness nor numpy."""
        kinds, loaded = self.fresh_interpreter(
            "import json, sys\nimport nestflow.core as core\n"
            "print(json.dumps([core.registered_kinds(), [m for m in "
            "('numpy', 'nestflow.evalharness', 'nestflow.cli') if m in sys.modules]]))\n")
        assert kinds == ["circular", "code_testing", "fixed_reply", "generator_critic",
                         "human_plan", "llm", "sequential", "transform"]
        assert loaded == []

    def test_cli_import_loads_numpy_only_at_the_first_bootstrap(self):
        """`import nestflow.cli` loads the harness but not numpy; the first
        bootstrap interval loads it and equals the one computed after it."""
        before, after, first, second = self.fresh_interpreter(
            "import json, sys\nimport nestflow.cli, nestflow.evalharness as eh\n"
            "loaded = lambda: [m for m in ('numpy', 'nestflow.evalharness') if m in sys.modules]\n"
            "before = loaded()\n"
            "outcomes = [True, False, True, True, False, False, True]\n"
            "first = eh.bootstrap_ci(outcomes, resamples=500, seed=3)\n"
            "print(json.dumps([before, loaded(), first, eh.bootstrap_ci(outcomes, resamples=500, "
            "seed=3)]))\n")
        assert before == ["nestflow.evalharness"]
        assert after == ["numpy", "nestflow.evalharness"]
        assert first == second

    def test_unknown_kind_lists_registered(self):
        with pytest.raises(ConfigError, match="fixed_reply"):
            create_flow({"name": "x", "kind": "no_such_kind"})

    def test_instances_are_independent(self):
        config = fixed_reply_config()
        first, second = create_flow(config), create_flow(config)
        assert first.instance_id != second.instance_id
        first.state.set("k", 1)
        assert second.state.get("k") is None


class FailingFlow(FlowInstance):
    kind = "failing_test_flow"

    def _step(self, message, ctx):
        raise DatasetError("inner failure")


class ReentrantFlow(FlowInstance):
    kind = "reentrant_test_flow"

    def _step(self, message, ctx):
        return run(self, message, ctx).payload


class TestRun:
    def test_output_overlays_input(self):
        flow = create_flow(fixed_reply_config(reply="pong", output_keys=["reply"]))
        out = run(flow, package_input({"question": "ping", "keep": 7}))
        assert out.payload == {"question": "ping", "keep": 7, "reply": "pong"}

    @given(payloads)
    def test_overlay_preserves_all_input_keys(self, payload):
        flow = create_flow(fixed_reply_config(reply="r"))
        out = run(flow, package_input(payload))
        assert out.payload == {**payload, "reply": "r"}

    def test_missing_input_keys_reported_together(self):
        flow = create_flow(fixed_reply_config(input_keys=["a", "b"]))
        with pytest.raises(MissingInputKeysError) as exc_info:
            run(flow, package_input({"b": 1}))
        assert exc_info.value.missing == ["a"]
        with pytest.raises(MissingInputKeysError) as exc_info:
            run(flow, package_input({}))
        assert exc_info.value.missing == ["a", "b"]

    def test_missing_output_key_is_an_error(self):
        flow = create_flow(fixed_reply_config(output_keys=["reply", "score"]))
        with pytest.raises(FlowError, match="score"):
            run(flow, package_input({}))

    def test_domain_errors_become_flow_errors(self):
        flow = FailingFlow(FlowConfig(name="boom", kind="failing_test_flow"))
        with pytest.raises(FlowError) as exc_info:
            run(flow, package_input({}))
        assert exc_info.value.instance_id == flow.instance_id
        assert isinstance(exc_info.value.__cause__, DatasetError)

    def test_environment_errors_propagate_unwrapped(self, monkeypatch):
        monkeypatch.delenv("NESTFLOW_UNSET_KEY", raising=False)
        flow = create_flow({"name": "asker", "kind": "llm",
                            "params": {"system_message": "s", "query_message": "q"}})
        backend = RemoteBackend(endpoint="https://localhost/v1", api_key_env="NESTFLOW_UNSET_KEY")
        sink = TraceSink()
        with pytest.raises(AuthError):
            run(flow, package_input({}), RunContext(trace=sink, backends=backend))
        assert [e.kind for e in sink.events][-1] == "flow_end"

    def test_reentrant_delivery_is_rejected(self):
        flow = ReentrantFlow(FlowConfig(name="loop", kind="reentrant_test_flow"))
        with pytest.raises(FlowError, match="already processing"):
            run(flow, package_input({}))

    def test_output_message_lineage(self):
        flow = create_flow(fixed_reply_config())
        message = package_input({})
        out = run(flow, message)
        assert out.created_by == flow.instance_id
        assert out.parents[0] == message.id

    def test_atomic_trace_event_order(self):
        sink = TraceSink()
        flow = create_flow(fixed_reply_config())
        run(flow, package_input({}), RunContext(trace=sink))
        assert [e.kind for e in sink.events] == [
            "flow_start", "message_in", "message_out", "flow_end"]
        assert all(e.instance_id == flow.instance_id for e in sink.events)

    def test_flow_end_emitted_on_failure(self):
        sink = TraceSink()
        flow = FailingFlow(FlowConfig(name="boom", kind="failing_test_flow"))
        with pytest.raises(FlowError):
            run(flow, package_input({}), RunContext(trace=sink))
        assert sink.events[-1].kind == "flow_end"


class TestState:
    def test_snapshot_and_reset(self):
        flow = create_flow(fixed_reply_config())
        flow.state.set("turns", [1, 2])
        snap = snapshot_states(flow)
        assert snap == {flow.instance_id: {"turns": [1, 2]}}
        snap[flow.instance_id]["turns"].append(3)
        assert flow.state.get("turns") == [1, 2]
        reset_state(flow)
        assert snapshot_states(flow) == {flow.instance_id: {}}


class TestRunContext:
    def test_bare_backend_becomes_default(self):
        class Stub:
            def complete(self, request):
                return "ok"

        ctx = RunContext(backends=Stub())
        assert set(ctx.backends) == {"default"}

    def test_unknown_backend_name(self):
        ctx = RunContext()
        from nestflow.backends import BackendRequest, ChatTurn

        request = BackendRequest(model="m", turns=(ChatTurn("user", "hi"),))
        with pytest.raises(FlowError, match="no backend named"):
            ctx.complete("inst#1", "missing", request)


class TestBuiltinAtoms:
    def test_fixed_reply_validates_params(self):
        with pytest.raises(ConfigError, match="unknown params"):
            create_flow({"name": "x", "kind": "fixed_reply",
                         "params": {"reply": "r", "extra": 1}})
        with pytest.raises(ConfigError, match="reply"):
            create_flow({"name": "x", "kind": "fixed_reply", "params": {}})

    def test_fixed_reply_custom_output_key(self):
        flow = create_flow({"name": "x", "kind": "fixed_reply",
                            "params": {"reply": "r", "output_key": "note"}})
        assert run(flow, package_input({})).payload == {"note": "r"}

    def test_transform_rename_set_template(self):
        flow = create_flow({
            "name": "shape", "kind": "transform",
            "params": {"rename": {"q": "question"},
                       "set": {"lang": "python"},
                       "template": "{{question}} in {{lang}}",
                       "output_key": "prompt"},
        })
        out = run(flow, package_input({"q": "sort a list"}))
        assert out.payload["question"] == "sort a list"
        assert out.payload["prompt"] == "sort a list in python"

    def test_transform_rename_skips_absent_source(self):
        flow = create_flow({"name": "shape", "kind": "transform",
                            "params": {"rename": {"missing": "target"}}})
        assert "target" not in run(flow, package_input({})).payload

    def test_fixed_reply_ignores_isolated_instances(self):
        # Same config, two instances: runs never share conversation state.
        config = fixed_reply_config()
        first, second = create_flow(config), create_flow(config)
        run(first, package_input({"who": "a"}))
        assert snapshot_states(second) == {second.instance_id: {}}
