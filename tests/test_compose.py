import re

import pytest

from nestflow.backends import ScriptedBackend
from nestflow.compose import is_final_answer
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
class AlwaysFailsProbeFlow(FlowInstance):
    kind = "always_fails_probe"

    def _step(self, message, ctx):
        raise FlowError("probe failure")


@register_flow_kind
class NumberVerdictProbeFlow(FlowInstance):
    kind = "number_verdict_probe"

    def _step(self, message, ctx):
        return {"verdict": 1}


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
    """``feedback_mapping`` projects critic output keys onto the next generator
    input's keys."""

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "generator_critic flow 'refine': 'feedback_mapping' must be a map of text "
                'to text, no two keys to the same text, got {"a": "x", "b": "x"}')):
            generator_critic(["a"], feedback_mapping={"a": "x", "b": "x"})

    def test_empty_mapping_carries_nothing(self):
        for params in ({}, {"feedback_mapping": {}}):
            flow = create_flow({"name": "refine", "kind": "generator_critic", "params": {
                "children": [llm_config(human="again"), fixed("critic", "try again")],
                "max_rounds": 2, **params}})
            out = run(flow, package_input({"topic": "t"}),
                      RunContext(backends=ScriptedBackend(responses=["a", "b"])))
            assert out.payload == {"topic": "t", "completion": "b", ROUNDS_USED_KEY: 2}
        with pytest.raises(ConfigError, match="'feedback_mapping' must be a map"):
            generator_critic(["a"], feedback_mapping=["a", "b"])

    def test_apply_skips_absent_sources(self):
        out, _, _ = generator_critic(["a", "b"], max_rounds=2,
                                     feedback_mapping={"reply": "feedback", "ghost": "x"})
        assert out.payload["feedback"] == "try again" and "x" not in out.payload


class TestTerminationPredicate:
    """The loop's two stop rules: the generator's final answer, a text check,
    and ``critic_stop_on``, a map from critic keys to the exact text that ends
    the loop."""

    def test_modes(self):
        assert is_final_answer('I am done. "Final answer."')
        assert not is_final_answer("final answer")
        for verdict, rounds in (("AllPassed", 1), ("AllPassed today", 2)):
            out, _, _ = generator_critic(
                ["a", "b"], critic=fixed("critic", verdict, output_key="verdict"), max_rounds=2,
                critic_stop_on={"verdict": "AllPassed"}, feedback_mapping={"verdict": "feedback"})
            assert out.payload[ROUNDS_USED_KEY] == rounds, verdict

    def test_non_text_values_never_match(self):
        assert not is_final_answer(None)
        assert not is_final_answer(["Final answer."])
        out, _, _ = generator_critic(
            ["a", "b"], critic={"name": "critic", "kind": "number_verdict_probe"}, max_rounds=2,
            critic_stop_on={"verdict": "1"}, feedback_mapping={"verdict": "feedback"})
        assert out.payload[ROUNDS_USED_KEY] == 2

    def test_retired_form_is_refused(self):
        # Taken as a map of text, this form would stop only on critic keys named
        # key, mode or needle, so the loop would run all of its rounds.
        for stop_on in ({"key": "verdict", "mode": "equals", "needle": "AllPassed"},
                        {"key": "verdict", "needle": "AllPassed"}):
            with pytest.raises(ConfigError, match=re.escape(
                    "retired key/mode/needle form") + ".*" + re.escape('{"verdict": "AllPassed"}')):
                generator_critic(["a", "b", "c"], max_rounds=3,
                                 critic=fixed("critic", "AllPassed", output_key="verdict"),
                                 critic_stop_on=stop_on)

    def test_stop_keys_must_be_critic_outputs(self):
        critic = {**fixed("critic", "AllPassed", output_key="verdict"), "output_keys": ["verdict"]}
        with pytest.raises(ConfigError, match=re.escape(
                "critic_stop_on keys ['status'] that its critic 'critic' does not output "
                "(its output_keys are ['verdict'])")):
            generator_critic(["a", "b"], critic=critic, critic_stop_on={"status": "AllPassed"})
        out, _, _ = generator_critic(["a", "b"], critic=critic,
                                     critic_stop_on={"verdict": "AllPassed"})
        assert out.payload[ROUNDS_USED_KEY] == 1

    def test_validation(self):
        for stop_on in (["verdict"], "AllPassed", None, {"verdict": 1}, {1: "AllPassed"}):
            with pytest.raises(ConfigError, match=re.escape(
                    "generator_critic flow 'gc': 'critic_stop_on' must be a map of text to text")):
                create_flow({"name": "gc", "kind": "generator_critic",
                             "params": {"children": [llm_config(), fixed("critic", "r")],
                                        "critic_stop_on": stop_on}})


class TestSequential:
    def test_threads_payload_through_children(self):
        flow = create_flow({
            "name": "pipeline", "kind": "sequential",
            "params": {"children": [fixed("first", "alpha", output_key="word"),
                                    fixed("second", "beta", output_key="other")]},
        })
        sink = TraceSink()
        out = run(flow, package_input({"keep": True}), RunContext(trace=sink))
        second_in = [e.body["message"] for e in sink.events
                     if e.kind == "message_in" and e.instance_id.startswith("second#")]
        assert [m["payload"] for m in second_in] == [{"keep": True, "word": "alpha"}]
        assert out.payload == {"keep": True, "word": "alpha", "other": "beta"}
        assert out.parents[1] == next(e.body["message"]["id"] for e in sink.events
                                      if e.kind == "message_out"
                                      and e.instance_id.startswith("second#"))

    def test_single_child_is_payload_identical_to_child(self):
        child = fixed("only", "r")
        wrapped = create_flow({"name": "seq", "kind": "sequential",
                               "params": {"children": [child]}})
        bare = create_flow(child)
        payload = {"topic": "x"}
        assert run(wrapped, package_input(payload)).payload == \
               run(bare, package_input(payload)).payload

    def test_too_many_step_mappings(self):
        # No variant maps keys between steps, so step_mappings is no param.
        with pytest.raises(ConfigError, match=re.escape(
                "sequential flow 'seq' has unknown params: ['step_mappings']")):
            create_flow({"name": "seq", "kind": "sequential",
                         "params": {"children": [fixed("a", "r")],
                                    "step_mappings": [{}, {}]}})

    def test_needs_children(self):
        with pytest.raises(ConfigError, match="children"):
            create_flow({"name": "seq", "kind": "sequential", "params": {}})

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigError, match=re.escape(
                "sequential flow 'seq' has unknown params: ['step_mapping']")):
            create_flow({"name": "seq", "kind": "sequential",
                         "params": {"children": [fixed("a", "r")], "step_mapping": [{}]}})

    def test_failure_annotated_with_step(self):
        flow = create_flow({
            "name": "pipeline", "kind": "sequential",
            "params": {"children": [fixed("ok", "r"),
                                    {"name": "bad", "kind": "always_fails_probe"}]},
        })
        with pytest.raises(FlowError) as exc_info:
            run(flow, package_input({}))
        assert exc_info.value.details == {"step": 1, "step_name": "bad"}


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

    def test_feedback_mapping_feeds_next_round(self):
        _, _, backend = generator_critic(["draft", "final. Final answer."])
        follow_up = backend.requests[1]
        assert follow_up.turns[-1].content == "try again"
        assert len(follow_up.turns) == 4

    def test_critic_stop_adds_one_critic_call(self):
        out, sink, _ = generator_critic(
            ["a", "b"],
            critic=fixed("critic", "AllPassed", output_key="verdict"),
            critic_stop_on={"verdict": "AllPassed"})
        assert out.payload[ROUNDS_USED_KEY] == 1
        assert start_counts(sink) == {"refine": 1, "gen": 1, "critic": 1}

    def test_output_is_last_generator_payload(self):
        out, _, _ = generator_critic(["a", "b", "c"], max_rounds=3)
        assert out.payload["completion"] == "c"
        # The critic's own key never leaks unless the feedback mapping
        # carried it into a later generator input.
        assert "reply" not in out.payload
        assert out.payload["feedback"] == "try again"

    def test_unknown_params_rejected(self):
        # A misspelt max_rounds would otherwise run the default number of rounds;
        # stop_on is no param, since every loop stops on the final-answer needle.
        with pytest.raises(ConfigError, match=re.escape(
                "generator_critic flow 'gc' has unknown params: ['max_round', 'stop', 'stop_on']")):
            create_flow({"name": "gc", "kind": "generator_critic",
                         "params": {"children": [llm_config(), fixed("critic", "r")],
                                    "max_round": 2, "stop": None, "stop_on": None}})

    def test_invalid_max_rounds(self):
        for max_rounds in (0, -1, 2.0, "4"):
            with pytest.raises(ConfigError, match=re.escape(
                    "generator_critic flow 'gc': 'max_rounds' must be an integer of at least 1")):
                create_flow({"name": "gc", "kind": "generator_critic",
                             "params": {"children": [llm_config(), fixed("critic", "r")],
                                        "max_rounds": max_rounds}})

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
