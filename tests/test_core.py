import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestflow.core import (
    FlowConfig,
    FlowInstance,
    Message,
    RunContext,
    create_flow,
    package_input,
    registered_kinds,
    run,
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
    def test_messages_compare_by_identity(self):
        # Replay compares normalized traces, so messages need no value equality.
        a = Message(id="m1", created_at="t", created_by="x", payload={"k": 1})
        assert a == a and len({a, a}) == 1
        assert a != Message(id="m1", created_at="t", created_by="x", payload={"k": 1})

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


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = registered_kinds()
        for kind in ("fixed_reply", "sequential", "generator_critic", "llm", "code_testing",
                     "human_plan"):
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
        """`import nestflow.core` in a fresh interpreter registers the six
        built-in kinds and loads neither the evaluation harness nor numpy."""
        kinds, loaded = self.fresh_interpreter(
            "import json, sys\nimport nestflow.core as core\n"
            "print(json.dumps([core.registered_kinds(), [m for m in "
            "('numpy', 'nestflow.evalharness', 'nestflow.cli') if m in sys.modules]]))\n")
        assert kinds == ["code_testing", "fixed_reply", "generator_critic", "human_plan", "llm",
                         "sequential"]
        assert loaded == []

    def test_every_registered_kind_is_used_by_a_variant(self):
        """The kinds in the 25 variants' flow trees are the registered ones,
        counted in a fresh interpreter, where no test kind is registered."""
        registered, used, variants = self.fresh_interpreter(
            "import json\nfrom nestflow import ccflows, core\n"
            "names = [*ccflows.CODE_PARTS, *(f'{p}-{c}' for p in ccflows.PLAN_PARTS\n"
            "                                for c in ccflows.CODE_PARTS)]\n"
            "flows = [core.create_flow(ccflows.build_variant(name)) for name in names]\n"
            "used = {node.config.kind for flow in flows for node in core.walk_instances(flow)}\n"
            "print(json.dumps([core.registered_kinds(), sorted(used), len(set(names))]))\n")
        assert variants == 25
        assert used == registered

    def test_unknown_kind_lists_registered(self):
        # circular and transform were kinds once; no variant used them.
        for kind in ("no_such_kind", "circular", "transform"):
            with pytest.raises(ConfigError, match=f"unknown flow kind '{kind}'.*fixed_reply"):
                create_flow({"name": "x", "kind": kind})

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
    def test_snapshot_is_a_copy(self):
        flow = create_flow(fixed_reply_config())
        assert snapshot_states(flow) == {flow.instance_id: {}}
        flow.state.set("turns", [1, 2])
        snap = snapshot_states(flow)
        assert snap == {flow.instance_id: {"turns": [1, 2]}}
        snap[flow.instance_id]["turns"].append(3)
        assert flow.state.get("turns") == [1, 2]


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


def _llm(**params):
    return {"name": "speaker", "kind": "llm",
            "params": {"system_message": "s", "query_message": "q", **params}}


def _loop(**params):
    return {"name": "loop", "kind": "generator_critic",
            "params": {"children": [fixed_reply_config("gen").to_dict(),
                                    fixed_reply_config("critic").to_dict()], **params}}


def _config(kind, name="flow", **fields):
    return {"name": name, "kind": kind, **fields}


# One row per malformed config: the config, and the param or field its one
# ConfigError must name after "<kind> flow '<name>'". The comment on each row
# says what the tree before rule tables did with it instead.
MALFORMED_CONFIGS = {
    # Taken as interactive: bool("false") is True, and stdin was read.
    "interactive-text": (_config("human_plan", params={"interactive": "false"}), "interactive"),
    # Accepted: int(1.5) capped memory at 1 byte.
    "memory-fraction": (_config("code_testing", params={"memory_bytes": 1.5}), "memory_bytes"),
    # ValueError from float("x").
    "wall-time-text": (_config("code_testing", params={"wall_time": "x"}), "wall_time"),
    # Accepted: float(True) is a 1.0 s wall time.
    "wall-time-true": (_config("code_testing", params={"wall_time": True}), "wall_time"),
    # TypeError from float(None).
    "wall-time-null": (_config("code_testing", params={"wall_time": None}), "wall_time"),
    # Accepted as the input keys "a", "b" and "c".
    "input-keys-text": (_config("fixed_reply", params={"reply": "r"}, input_keys="abc"),
                        "input_keys"),
    # TypeError from tuple(None).
    "output-keys-null": (_config("fixed_reply", params={"reply": "r"}, output_keys=None),
                         "output_keys"),
    # ValueError from dict("ab").
    "params-text": (_config("fixed_reply", params="ab"), "params"),
    # TypeError from dict(None).
    "params-null": (_config("fixed_reply", params=None), "params"),
    # Accepted as {"reply": "r"}.
    "params-pairs": (_config("fixed_reply", params=[["reply", "r"]]), "params"),
    # Taken as stateless: bool("no") is True.
    "stateless-text": (_llm(stateless="no"), "stateless"),
    # Accepted as the model None.
    "model-null": (_llm(model=None), "model"),
    # Accepted as the backend name 3.
    "backend-number": (_llm(backend=3), "backend"),
    # Accepted as absent. Now refused as every null is: leave the param out.
    "human-message-null": (_llm(human_message=None), "human_message"),
    # Refused, but naming both messages, not the one that is missing.
    "system-message-missing": (_config("llm", name="speaker", params={"query_message": "q"}),
                               "system_message"),
    # Accepted as the output key 3.
    "output-key-number": (_config("fixed_reply", params={"reply": "r", "output_key": 3}),
                          "output_key"),
    # Accepted as {"a": "1"}: str() made text of the number.
    "feedback-number": (_loop(feedback_mapping={"a": 1}), "feedback_mapping"),
    # Refused, but as KeyMapping's "key mapping has duplicate targets", naming no flow.
    "feedback-duplicate-targets": (_loop(feedback_mapping={"a": "x", "b": "x"}),
                                   "feedback_mapping"),
    # Refused, but without naming the kind.
    "max-rounds-float": (_loop(max_rounds=2.0), "max_rounds"),
    # Accepted as one round: True is an int.
    "max-rounds-true": (_loop(max_rounds=True), "max_rounds"),
    # Refused, but as "composite flow", without naming the kind.
    "children-empty": (_config("sequential", params={"children": []}), "children"),
    # Refused, but as "flow config must be a map", naming neither kind nor flow.
    "children-not-maps": (_config("sequential", params={"children": ["first"]}), "children"),
    # Refused, but as "composite flow", without naming the kind.
    "children-map": (_config("sequential", params={"children": {"name": "a"}}), "children"),
    # Refused, but without naming the kind.
    "critic-stop-on-list": (_loop(critic_stop_on=["verdict"]), "critic_stop_on"),
}


@pytest.mark.parametrize("config, param", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
def test_malformed_config_raises_one_error_naming_kind_flow_and_param(config, param):
    with pytest.raises(ConfigError) as caught:
        create_flow(config)
    message = str(caught.value)
    assert type(caught.value) is ConfigError
    assert message.startswith(f"{config['kind']} flow {config['name']!r}"), message
    assert repr(param) in message, message


def test_quoted_refusals_read_as_the_readme_shows():
    for config, message in (
            (_config("generator_critic", "loop", params={"max_round": 2}),
             "generator_critic flow 'loop' has unknown params: ['max_round']"),
            (_config("llm", "poet", params={"system_message": "s"}),
             "llm flow 'poet' lacks required params: ['query_message']"),
            (_config("code_testing", "judge", params={"memory_bytes": 1.5}),
             "code_testing flow 'judge': 'memory_bytes' must be an integer of at least 1, "
             "got 1.5")):
        with pytest.raises(ConfigError) as caught:
            create_flow(config)
        assert str(caught.value) == message


def test_optional_param_left_out_takes_its_default():
    flow = create_flow(_llm())
    assert (flow.human_message, flow.backend_name, flow.model, flow.stateless) == (
        None, "default", "default", False)


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

    def test_fixed_reply_ignores_isolated_instances(self):
        # Same config, two instances: runs never share conversation state.
        config = fixed_reply_config()
        first, second = create_flow(config), create_flow(config)
        run(first, package_input({"who": "a"}))
        assert snapshot_states(second) == {second.instance_id: {}}
