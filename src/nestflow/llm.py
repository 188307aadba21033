"""LLM-backed atomic flow and completion postprocessing.

The flow renders prompt templates from the input payload, holds the
conversation in its local state, and emits the completion (plus an
extracted program or plan when configured) into the output payload.
"""
from __future__ import annotations

import re

from ._util import BOOLEAN, TEXT
from .backends import BackendRequest, ChatTurn, render_template
from .compose import is_final_answer
from .core import FlowConfig, FlowInstance, Message, RunContext, register_flow_kind
from .errors import FlowError, MalformedCompletionError

# Reply-format placeholders that must reach the model verbatim. When the
# input payload does not bind them, they render as their own literal text.
FORMAT_PLACEHOLDERS = {
    "code_placeholder": "{{code_placeholder}}",
    "python_code": "{{python_code}}",
    "plan_placeholder": "{{plan_placeholder}}",
}

PLAN_HEADER = "# Conceptual solution"

_FENCE = re.compile(r"```([^\s`]*)[ \t]*\n(.*?)```", re.DOTALL)


def extract_code(completion: str) -> str:
    """Pull the final Python program out of a completion.

    Prefers the last fenced block labeled ``python``, then the last
    unlabeled fenced block. No block at all is a malformed completion.
    """
    blocks = [(m.group(1), m.group(2)) for m in _FENCE.finditer(completion)]
    labeled = [src for tag, src in blocks if tag == "python"]
    unlabeled = [src for tag, src in blocks if not tag]
    pool = labeled or unlabeled
    if not pool:
        raise MalformedCompletionError("completion contains no fenced python code block")
    source = pool[-1]
    if source.endswith("\n"):
        source = source[:-1]
    return source


def extract_plan(completion: str) -> str | None:
    """Return the text after the conceptual-solution header, if present."""
    if PLAN_HEADER in completion:
        after = completion.split(PLAN_HEADER, 1)[1].strip()
        return after or None
    return None


@register_flow_kind
class LlmFlow(FlowInstance):
    """Atomic flow around one chat-completion conversation.

    First delivery sends the rendered system and query messages; later
    deliveries append the rendered human message to the stored
    conversation. A stateless flow starts a fresh conversation every
    time (used for critics whose prompts are self-contained).
    """

    kind = "llm"
    accepted_params = {
        **dict.fromkeys(("system_message", "query_message", "human_message", "backend", "model"),
                        TEXT),
        "postprocess": ('"code" or "plan"', lambda v: v in ("code", "plan")),
        "stateless": BOOLEAN,
    }
    required_params = ("system_message", "query_message")

    def __init__(self, config: FlowConfig):
        super().__init__(config)
        params = config.params
        self.system_message = params["system_message"]
        self.query_message = params["query_message"]
        self.human_message = params.get("human_message")
        self.backend_name = params.get("backend", "default")
        self.model = params.get("model", "default")
        self.postprocess = params.get("postprocess")
        self.stateless = params.get("stateless", False)

    def _render_turns(self, variables: dict) -> list[ChatTurn]:
        stored = None if self.stateless else self.state.get("turns")
        if stored:
            if self.human_message is None:
                raise FlowError("flow received a follow-up message but has no human_message template",
                                instance_id=self.instance_id)
            turns = [ChatTurn(t["role"], t["content"]) for t in stored]
            turns.append(ChatTurn("user", render_template(self.human_message, variables)))
        else:
            turns = [
                ChatTurn("system", render_template(self.system_message, variables)),
                ChatTurn("user", render_template(self.query_message, variables)),
            ]
        return turns

    def _step(self, message: Message, ctx: RunContext) -> dict:
        variables = dict(message.payload)
        for name, literal in FORMAT_PLACEHOLDERS.items():
            variables.setdefault(name, literal)
        turns = self._render_turns(variables)
        request = BackendRequest(model=self.model, turns=tuple(turns))
        completion = ctx.complete(self.instance_id, self.backend_name, request)
        if not self.stateless:
            record = [{"role": t.role, "content": t.content} for t in turns]
            record.append({"role": "assistant", "content": completion})
            self.state.set("turns", record)
        updates = {"completion": completion}
        if self.postprocess == "code":
            updates["code"] = self._postprocess_code(completion)
        elif self.postprocess == "plan":
            updates["plan"] = self._postprocess_plan(completion)
        return updates

    def _postprocess_code(self, completion: str) -> str:
        try:
            code = extract_code(completion)
        except MalformedCompletionError:
            previous = self.state.get("last_code")
            if is_final_answer(completion) and previous is not None:
                return previous
            raise
        self.state.set("last_code", code)
        return code

    def _postprocess_plan(self, completion: str) -> str:
        plan = extract_plan(completion)
        if plan is None:
            previous = self.state.get("last_plan")
            if is_final_answer(completion) and previous is not None:
                return previous
            plan = completion.strip()
        self.state.set("last_plan", plan)
        return plan
