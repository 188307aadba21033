import re

import pytest

from nestflow.backends import ScriptedBackend
from nestflow.compose import is_final_answer
from nestflow.core import RunContext, create_flow, package_input, run
from nestflow.errors import ConfigError, FlowError, MalformedCompletionError
from nestflow.llm import extract_code, extract_plan
from nestflow.trace import TraceSink


class TestExtractCode:
    def test_labeled_block(self):
        completion = "Here you go:\n```python\nprint(1)\n```\nDone."
        assert extract_code(completion) == "print(1)"

    def test_last_labeled_block_wins(self):
        completion = ("```python\nold = 1\n```\ntext\n"
                      "```python\nnew = 2\n```")
        assert extract_code(completion) == "new = 2"

    def test_unlabeled_fallback(self):
        completion = "```\nx = 3\n```"
        assert extract_code(completion) == "x = 3"

    def test_labeled_preferred_over_later_unlabeled(self):
        completion = "```python\na = 1\n```\n```\nb = 2\n```"
        assert extract_code(completion) == "a = 1"

    def test_respects_language_tag(self):
        with pytest.raises(MalformedCompletionError):
            extract_code("```cpp\nint x;\n```")
        assert extract_code("```cpp\nint x;\n```\n```\ny = 1\n```") == "y = 1"

    def test_multiline_source_kept_intact(self):
        completion = "```python\nfor i in range(3):\n    print(i)\n\n```"
        assert extract_code(completion) == "for i in range(3):\n    print(i)\n"

    def test_no_block_is_malformed(self):
        with pytest.raises(MalformedCompletionError, match="no fenced"):
            extract_code("just prose")


def test_detect_final_answer():
    """A code flow keeps its last program for a completion without a code
    block exactly when the loop's final-answer check holds for it."""
    for completion, final in (('I am done. "Final answer."', True), ("final answer", False)):
        assert is_final_answer(completion) is final
        ctx, _, _ = context(["```python\nprint(9)\n```", completion])
        flow = llm_flow(postprocess="code")
        run(flow, package_input({"task": "x"}), ctx)
        if final:
            assert run(flow, package_input({"task": "x", "note": "n"}), ctx).payload["code"] == \
                "print(9)"
        else:
            with pytest.raises(MalformedCompletionError):
                run(flow, package_input({"task": "x", "note": "n"}), ctx)


class TestExtractPlan:
    def test_after_header(self):
        completion = "preamble\n# Conceptual solution\nSort, then scan once."
        assert extract_plan(completion) == "Sort, then scan once."

    def test_empty_body_is_none(self):
        assert extract_plan("# Conceptual solution\n   \n") is None

    def test_missing_header_is_none(self):
        assert extract_plan("Sort, then scan once.") is None


def llm_flow(**params):
    merged = {
        "system_message": "system for {{task}}",
        "query_message": "first ask about {{task}}",
        "human_message": "follow-up: {{note}}",
    }
    merged.update(params)
    return create_flow({"name": "speaker", "kind": "llm",
                        "params": {k: v for k, v in merged.items() if v is not OMIT}})


OMIT = object()  # an llm_flow param left out of the config


def context(responses):
    backend = ScriptedBackend(responses=list(responses))
    sink = TraceSink()
    return RunContext(trace=sink, backends=backend), backend, sink


class TestLlmFlowConfig:
    def test_unknown_params_rejected(self):
        # output_key is no param: every variant reads the completion as "completion".
        with pytest.raises(ConfigError, match=re.escape(
                "llm flow 'speaker' has unknown params: ['mystery', 'output_key']")):
            llm_flow(mystery=1, output_key="text")

    def test_sampling_is_fixed(self):
        # temperature and max_tokens are no params: every request carries the
        # BackendRequest defaults, so fingerprints and cache keys never vary.
        with pytest.raises(ConfigError, match=re.escape(
                "llm flow 'speaker' has unknown params: ['max_tokens', 'temperature']")):
            llm_flow(temperature=0.7, max_tokens=100)
        ctx, backend, _ = context(["ok"])
        run(llm_flow(), package_input({"task": "sort"}), ctx)
        assert (backend.requests[0].temperature, backend.requests[0].max_tokens) == (0.0, 2048)

    def test_requires_system_and_query(self):
        with pytest.raises(ConfigError, match="system_message"):
            create_flow({"name": "x", "kind": "llm", "params": {}})

    def test_unknown_postprocess(self):
        with pytest.raises(ConfigError, match="postprocess"):
            llm_flow(postprocess="summarize")


class TestLlmFlowConversation:
    def test_first_delivery_sends_system_and_query(self):
        ctx, backend, _ = context(["reply one"])
        flow = llm_flow()
        out = run(flow, package_input({"task": "sort"}), ctx)
        assert out.payload["completion"] == "reply one"
        request = backend.requests[0]
        assert [t.role for t in request.turns] == ["system", "user"]
        assert request.turns[0].content == "system for sort"
        assert request.turns[1].content == "first ask about sort"

    def test_follow_up_extends_stored_conversation(self):
        ctx, backend, sink = context(["draft", "revised"])
        flow = llm_flow()
        run(flow, package_input({"task": "sort"}), ctx)
        run(flow, package_input({"task": "sort", "note": "shorter"}), ctx)
        follow_up = backend.requests[1]
        assert [t.role for t in follow_up.turns] == ["system", "user", "assistant", "user"]
        assert follow_up.turns[2].content == "draft"
        assert follow_up.turns[3].content == "follow-up: shorter"
        stored = flow.state.get("turns")
        assert [t["role"] for t in stored] == [
            "system", "user", "assistant", "user", "assistant"]
        # The trace holds the conversation as the requests and responses.
        assert [e.kind for e in sink.events if e.kind.startswith("backend")] == [
            "backend_call", "backend_response"] * 2

    def test_follow_up_without_human_template_fails(self):
        ctx, _, _ = context(["draft", "revised"])
        flow = llm_flow(human_message=OMIT)
        run(flow, package_input({"task": "sort"}), ctx)
        with pytest.raises(FlowError, match="human_message"):
            run(flow, package_input({"task": "sort"}), ctx)

    def test_stateless_flow_always_starts_fresh(self):
        ctx, backend, _ = context(["one", "two"])
        flow = llm_flow(stateless=True)
        run(flow, package_input({"task": "sort"}), ctx)
        run(flow, package_input({"task": "sort"}), ctx)
        assert all(len(r.turns) == 2 for r in backend.requests)
        assert flow.state.get("turns") is None

    def test_format_placeholders_pass_through_literally(self):
        ctx, backend, _ = context(["ok"])
        flow = llm_flow(query_message="reply as:\n```python\n{{code_placeholder}}\n```")
        run(flow, package_input({"task": "sort"}), ctx)
        assert "{{code_placeholder}}" in backend.requests[0].turns[1].content

    def test_payload_can_bind_format_placeholder(self):
        ctx, backend, _ = context(["ok"])
        flow = llm_flow(query_message="{{code_placeholder}}")
        run(flow, package_input({"task": "x", "code_placeholder": "bound"}), ctx)
        assert backend.requests[0].turns[1].content == "bound"


class TestLlmFlowPostprocess:
    def test_code_extraction(self):
        ctx, _, _ = context(["```python\nprint(9)\n```"])
        flow = llm_flow(postprocess="code")
        out = run(flow, package_input({"task": "x"}), ctx)
        assert out.payload["code"] == "print(9)"
        assert flow.state.get("last_code") == "print(9)"

    def test_final_answer_reuses_last_code(self):
        ctx, _, _ = context(["```python\nprint(9)\n```", 'Looks right. "Final answer."'])
        flow = llm_flow(postprocess="code")
        run(flow, package_input({"task": "x"}), ctx)
        out = run(flow, package_input({"task": "x", "note": "check"}), ctx)
        assert out.payload["code"] == "print(9)"

    def test_missing_code_without_prior_is_error(self):
        ctx, _, _ = context(["no code at all"])
        flow = llm_flow(postprocess="code")
        with pytest.raises(MalformedCompletionError):
            run(flow, package_input({"task": "x"}), ctx)

    def test_plan_extraction_and_fallback(self):
        ctx, _, _ = context(["# Conceptual solution\nUse a stack.",
                             "Just do it carefully."])
        flow = llm_flow(postprocess="plan", stateless=True)
        out = run(flow, package_input({"task": "x"}), ctx)
        assert out.payload["plan"] == "Use a stack."
        out = run(flow, package_input({"task": "x"}), ctx)
        assert out.payload["plan"] == "Just do it carefully."

    def test_plan_final_answer_reuses_last_plan(self):
        ctx, _, _ = context(["# Conceptual solution\nUse a stack.",
                             'It stands. "Final answer."'])
        flow = llm_flow(postprocess="plan")
        run(flow, package_input({"task": "x"}), ctx)
        out = run(flow, package_input({"task": "x", "note": "confirm"}), ctx)
        assert out.payload["plan"] == "Use a stack."
