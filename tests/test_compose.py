import pytest

from nestflow.backends import ScriptedBackend
from nestflow.compose import KeyMapping, TerminationPredicate
from nestflow.core import (
    FlowConfig,
    FlowInstance,
    ROUNDS_USED_KEY,
    RunContext,
    create_flow,
    package_input,
    register_flow_kind,
    run,
)
from nestflow.errors import ConfigError, FlowError
from nestflow.trace import TraceSink


@register_flow_kind
class CounterProbeFlow(FlowInstance):
    """Test-only flow that counts its own invocations into the payload."""

    kind = "counter_probe"

    def _step(self, message, ctx):
        n = self.state.get("n", 0) + 1
        self.state.set("n", n)
        return {"count": str(n)}


@register_flow_kind
class AlwaysFailsProbeFlow(FlowInstance):
    kind = "always_fails_probe"

    def _step(self, message, ctx):
        raise FlowError("probe failure")


def llm_config(name="gen", human="{{feedback}}", **params):
    merged = {
        "system_message": "test system",
        "query_message": "solve {{topic}}",
        "human_message": human,
    }
    merged.update(params)
    return {"name": name, "kind": "llm", "params": merged}


def fixed(name, reply, output_key="reply"):
    return {"name": name, "kind": "fixed_reply",
            "params": {"reply": reply, "output_key": output_key}}


def start_counts(sink):
    counts = {}
    for event in sink.events:
        if event.kind == "flow_start":
            name = event.instance_id.split("#")[0]
            counts[name] = counts.get(name, 0) + 1
    return counts


class TestKeyMapping:
    def test_duplicate_targets_rejected(self):
        with pytest.raises(ConfigError, match="duplicate targets"):
            KeyMapping((("a", "x"), ("b", "x")))

    def test_from_dict_handles_empty(self):
        assert KeyMapping.from_dict(None).entries == ()
        assert KeyMapping.from_dict({}).entries == ()
        with pytest.raises(ConfigError):
            KeyMapping.from_dict(["a", "b"])

    def test_apply_skips_absent_sources(self):
        mapping = KeyMapping.from_dict({"reply": "feedback", "ghost": "x"})
        assert mapping.apply({"reply": "fix", "other": 1}) == {"feedback": "fix"}


class TestTerminationPredicate:
    def test_modes(self):
        contains = TerminationPredicate(key="completion", needle="done")
        assert contains.matches({"completion": "all done now"})
        assert not contains.matches({"completion": "in progress"})
        equals = TerminationPredicate(key="verdict", needle="AllPassed", mode="equals")
        assert equals.matches({"verdict": "AllPassed"})
        assert not equals.matches({"verdict": "AllPassed today"})

    def test_non_text_values_never_match(self):
        predicate = TerminationPredicate(key="verdict", needle="1")
        assert not predicate.matches({})
        assert not predicate.matches({"verdict": 1})

    def test_validation(self):
        with pytest.raises(ConfigError, match="mode"):
            TerminationPredicate(key="k", needle="n", mode="regex")
        with pytest.raises(ConfigError, match="unknown fields"):
            TerminationPredicate.from_dict({"key": "k", "needle": "n", "when": "x"})


class TestSequential:
    def test_threads_payload_through_children(self):
        flow = create_flow({
            "name": "pipeline", "kind": "sequential",
            "params": {"children": [
                fixed("first", "alpha", output_key="word"),
                {"name": "second", "kind": "transform",
                 "params": {"template": "<{{word}}>", "output_key": "wrapped"}},
            ]},
        })
        out = run(flow, package_input({"keep": True}))
        assert out.payload["word"] == "alpha"
        assert out.payload["wrapped"] == "<alpha>"
        assert out.payload["keep"] is True

    def test_single_child_is_payload_identical_to_child(self):
        child = fixed("only", "r")
        wrapped = create_flow({"name": "seq", "kind": "sequential",
                               "params": {"children": [child]}})
        bare = create_flow(child)
        payload = {"topic": "x"}
        assert run(wrapped, package_input(payload)).payload == \
               run(bare, package_input(payload)).payload

    def test_step_mappings_alias_keys(self):
        flow = create_flow({
            "name": "pipeline", "kind": "sequential",
            "params": {
                "children": [
                    fixed("first", "alpha", output_key="word"),
                    {"name": "second", "kind": "transform",
                     "params": {"template": "{{text}}", "output_key": "out"}},
                ],
                "step_mappings": [{}, {"word": "text"}],
            },
        })
        assert run(flow, package_input({})).payload["out"] == "alpha"

    def test_too_many_step_mappings(self):
        with pytest.raises(ConfigError, match="step_mappings"):
            create_flow({"name": "seq", "kind": "sequential",
                         "params": {"children": [fixed("a", "r")],
                                    "step_mappings": [{}, {}]}})

    def test_needs_children(self):
        with pytest.raises(ConfigError, match="children"):
            create_flow({"name": "seq", "kind": "sequential", "params": {}})

    def test_failure_annotated_with_step(self):
        flow = create_flow({
            "name": "pipeline", "kind": "sequential",
            "params": {"children": [fixed("ok", "r"),
                                    {"name": "bad", "kind": "always_fails_probe"}]},
        })
        with pytest.raises(FlowError) as exc_info:
            run(flow, package_input({}))
        assert exc_info.value.details == {"step": 1, "step_name": "bad"}


class TestCircular:
    def test_exit_predicate_stops_loop(self):
        flow = create_flow({
            "name": "loop", "kind": "circular",
            "params": {"children": [{"name": "tick", "kind": "counter_probe"}],
                       "max_rounds": 10,
                       "exit": {"key": "count", "needle": "3", "mode": "equals"}},
        })
        out = run(flow, package_input({}))
        assert out.payload[ROUNDS_USED_KEY] == 3
        assert out.payload["count"] == "3"

    def test_round_cap_without_exit(self):
        flow = create_flow({
            "name": "loop", "kind": "circular",
            "params": {"children": [{"name": "tick", "kind": "counter_probe"}],
                       "max_rounds": 4},
        })
        assert run(flow, package_input({})).payload[ROUNDS_USED_KEY] == 4

    def test_failure_annotated_with_round(self):
        flow = create_flow({
            "name": "loop", "kind": "circular",
            "params": {"children": [{"name": "bad", "kind": "always_fails_probe"}],
                       "max_rounds": 2},
        })
        with pytest.raises(FlowError) as exc_info:
            run(flow, package_input({}))
        assert list(exc_info.value.details.items()) == [
            ("round", 1), ("step", 0), ("step_name", "bad")]

    def test_invalid_max_rounds(self):
        with pytest.raises(ConfigError, match="max_rounds"):
            create_flow({"name": "loop", "kind": "circular",
                         "params": {"children": [fixed("a", "r")], "max_rounds": 0}})


def generator_critic(responses, *, max_rounds=5, critic=None, **params):
    backend = ScriptedBackend(responses=list(responses))
    config = {
        "name": "refine", "kind": "generator_critic",
        "input_keys": ["topic"],
        "params": {
            "children": [llm_config(), critic or fixed("critic", "try again",
                                                       output_key="reply")],
            "max_rounds": max_rounds,
            "feedback_mapping": {"reply": "feedback"},
            **params,
        },
    }
    sink = TraceSink()
    flow = create_flow(config)
    ctx = RunContext(trace=sink, backends=backend)
    out = run(flow, package_input({"topic": "sorting"}), ctx)
    return out, sink, backend


class TestGeneratorCritic:
    def test_default_needle_stops_after_generator(self):
        out, sink, _ = generator_critic(["draft", "better. Final answer."])
        assert out.payload[ROUNDS_USED_KEY] == 2
        assert start_counts(sink) == {"refine": 1, "gen": 2, "critic": 1}

    def test_round_cap_skips_last_critic(self):
        out, sink, _ = generator_critic(["a", "b", "c"], max_rounds=3)
        assert out.payload[ROUNDS_USED_KEY] == 3
        assert start_counts(sink) == {"refine": 1, "gen": 3, "critic": 2}

    def test_stop_on_none_disables_default(self):
        out, sink, _ = generator_critic(
            ["done. Final answer.", "x", "y"], max_rounds=3, stop_on=None)
        assert out.payload[ROUNDS_USED_KEY] == 3

    def test_feedback_mapping_feeds_next_round(self):
        _, _, backend = generator_critic(["draft", "final. Final answer."])
        follow_up = backend.requests[1]
        assert follow_up.turns[-1].content == "try again"
        assert len(follow_up.turns) == 4

    def test_critic_stop_adds_one_critic_call(self):
        out, sink, _ = generator_critic(
            ["a", "b"],
            critic=fixed("critic", "AllPassed", output_key="verdict"),
            critic_stop_on={"key": "verdict", "mode": "equals", "needle": "AllPassed"})
        assert out.payload[ROUNDS_USED_KEY] == 1
        assert start_counts(sink) == {"refine": 1, "gen": 1, "critic": 1}

    def test_output_is_last_generator_payload(self):
        out, _, _ = generator_critic(["a", "b", "c"], max_rounds=3)
        assert out.payload["completion"] == "c"
        # The critic's own key never leaks unless the feedback mapping
        # carried it into a later generator input.
        assert "reply" not in out.payload
        assert out.payload["feedback"] == "try again"

    def test_needs_exactly_two_children(self):
        with pytest.raises(ConfigError, match="exactly 2"):
            create_flow({"name": "gc", "kind": "generator_critic",
                         "params": {"children": [fixed("a", "r")]}})

    def test_generator_failure_annotated(self):
        config = {
            "name": "gc", "kind": "generator_critic",
            "params": {"children": [{"name": "bad", "kind": "always_fails_probe"},
                                    fixed("critic", "r")]},
        }
        with pytest.raises(FlowError) as exc_info:
            run(create_flow(config), package_input({}))
        assert exc_info.value.details == {"round": 1, "role": "generator"}

    def test_max_rounds_one_payload_equals_bare_generator(self):
        out, _, _ = generator_critic(["only draft"], max_rounds=1)
        backend = ScriptedBackend(responses=["only draft"])
        bare = create_flow(llm_config())
        bare_out = run(bare, package_input({"topic": "sorting"}),
                       RunContext(backends=backend))
        visible = {k: v for k, v in out.payload.items() if not k.startswith("_")}
        assert visible == bare_out.payload
