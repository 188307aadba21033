"""LLM-backed atomic flow and completion postprocessing.

The flow renders prompt templates from the input payload, holds the
conversation in its local state, and emits the completion (plus an
extracted program or plan when configured) into the output payload.
"""
from __future__ import annotations

import logging
import re

from .backends import BackendRequest, ChatTurn, render_template
from .compose import FINAL_ANSWER_NEEDLE
from .core import FlowConfig, FlowInstance, Message, RunContext, register_flow_kind
from .errors import ConfigError, FlowError, MalformedCompletionError

logger = logging.getLogger(__name__)

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


def detect_final_answer(completion: str) -> bool:
    return FINAL_ANSWER_NEEDLE in completion


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

    def __init__(self, config: FlowConfig):
        super().__init__(config)
        params = dict(config.params)
        self.system_message = params.pop("system_message", None)
        self.query_message = params.pop("query_message", None)
        self.human_message = params.pop("human_message", None)
        self.backend_name = params.pop("backend", "default")
        self.model = params.pop("model", "default")
        self.temperature = float(params.pop("temperature", 0.0))
        self.max_tokens = int(params.pop("max_tokens", 2048))
        self.output_key = params.pop("output_key", "completion")
        self.postprocess = params.pop("postprocess", None)
        self.stateless = bool(params.pop("stateless", False))
        if params:
            raise ConfigError(f"llm flow {config.name!r} has unknown params: {sorted(params)}")
        if not isinstance(self.system_message, str) or not isinstance(self.query_message, str):
            raise ConfigError(f"llm flow {config.name!r} needs system_message and query_message")
        if self.postprocess not in (None, "code", "plan"):
            raise ConfigError(f"llm flow {config.name!r} has unknown postprocess {self.postprocess!r}")

    def _render_turns(self, variables: dict) -> list[ChatTurn]:
        stored = None if self.stateless else self.state.get("turns")
        if stored:
            if not isinstance(self.human_message, str):
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
        request = BackendRequest(model=self.model, turns=tuple(turns),
                                 temperature=self.temperature, max_tokens=self.max_tokens)
        completion = ctx.complete(self.instance_id, self.backend_name, request)
        if not self.stateless:
            record = [{"role": t.role, "content": t.content} for t in turns]
            record.append({"role": "assistant", "content": completion})
            self.state.set("turns", record)
            ctx.trace.emit("state_update", self.instance_id, {"key": "turns", "value": record})
        updates = {self.output_key: completion}
        if self.postprocess == "code":
            updates["code"] = self._postprocess_code(completion, ctx)
        elif self.postprocess == "plan":
            updates["plan"] = self._postprocess_plan(completion, ctx)
        return updates

    def _postprocess_code(self, completion: str, ctx: RunContext) -> str:
        try:
            code = extract_code(completion)
        except MalformedCompletionError:
            previous = self.state.get("last_code")
            if detect_final_answer(completion) and previous is not None:
                return previous
            raise
        self.state.set("last_code", code)
        ctx.trace.emit("state_update", self.instance_id, {"key": "last_code", "value": code})
        return code

    def _postprocess_plan(self, completion: str, ctx: RunContext) -> str:
        plan = extract_plan(completion)
        if plan is None:
            previous = self.state.get("last_plan")
            if detect_final_answer(completion) and previous is not None:
                return previous
            plan = completion.strip()
        self.state.set("last_plan", plan)
        ctx.trace.emit("state_update", self.instance_id, {"key": "last_plan", "value": plan})
        return plan
