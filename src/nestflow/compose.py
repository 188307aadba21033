"""Composite flow kinds: sequential and generator-critic.

Composites own their children. A sequential flow threads a running
payload through its children: each child receives it and its output is
overlaid back, so later steps see everything earlier steps produced. A
generator-critic loop carries the critic's feedback into the next
generator input with a key mapping.
"""
from __future__ import annotations

from ._util import POSITIVE_INTEGER, TEXT_MAP
from .core import (
    CHILDREN,
    FlowConfig,
    FlowInstance,
    Message,
    ROUNDS_USED_KEY,
    RunContext,
    register_flow_kind,
    run,
)
from .errors import ConfigError, FlowError

DEFAULT_MAX_ROUNDS = 4
FINAL_ANSWER_NEEDLE = "Final answer."


def is_final_answer(completion) -> bool:
    """Whether a generator's completion says it is done: text holding
    ``FINAL_ANSWER_NEEDLE``. Anything that is not text never is."""
    return isinstance(completion, str) and FINAL_ANSWER_NEEDLE in completion


# Critic output keys projected onto the next generator input's keys.
FEEDBACK_MAPPING = ("a map of text to text, no two keys to the same text",
                    lambda v: TEXT_MAP[1](v) and len(set(v.values())) == len(v))


def _deliver(owner: FlowInstance, child: FlowInstance, payload: dict, parents: tuple[str, ...],
             ctx: RunContext, **annotations) -> Message:
    """Send ``payload`` from ``owner`` to ``child`` as a new message with the
    given parents; returns the child's output. A child's ``FlowError`` is
    raised with ``annotations`` added, in order, where it has none of its own."""
    message = ctx.new_message(payload, created_by=owner.instance_id, parents=parents)
    try:
        return run(child, message, ctx)
    except FlowError as exc:
        raise exc.annotate(**annotations)


@register_flow_kind
class SequentialFlow(FlowInstance):
    """Run children once each, in order, threading the running payload."""

    kind = "sequential"
    accepted_params = {"children": CHILDREN}
    required_params = ("children",)

    def _step(self, message: Message, ctx: RunContext):
        """Returns the running payload and, as an extra parent, the id of the
        last child's output."""
        running, parents = message.payload, (message.id,)
        for index, child in enumerate(self.children):
            # A flow's output payload is its input payload with its updates overlaid.
            child_out = _deliver(self, child, running, parents, ctx,
                                 step=index, step_name=child.config.name)
            running, parents = child_out.payload, (child_out.id,)
        return running, parents


@register_flow_kind
class GeneratorCriticFlow(FlowInstance):
    """Alternate a generator and a critic until termination.

    Round r: the generator runs on the composite input overlaid with the
    previous round's feedback; if its ``completion`` is a final answer
    (see ``is_final_answer``) or the round cap is reached, the loop ends and
    the critic is skipped. Otherwise the critic runs on the generator's
    output; if a key of the critic output holds the exact text that
    ``critic_stop_on`` maps it to, the loop ends, else the feedback mapping
    projects critic keys into the next generator input. A critic that
    declares ``output_keys`` must declare every ``critic_stop_on`` key.

    Output: the last generator output annotated with ``_rounds_used``.
    Under final-answer or round-cap termination the critic runs exactly
    rounds_used - 1 times; a critic_stop_on exit adds one more.
    """

    kind = "generator_critic"
    accepted_params = {"children": CHILDREN, "max_rounds": POSITIVE_INTEGER,
                       "critic_stop_on": TEXT_MAP, "feedback_mapping": FEEDBACK_MAPPING}
    required_params = ("children",)

    def __init__(self, config: FlowConfig):
        super().__init__(config)
        self.max_rounds = config.params.get("max_rounds", DEFAULT_MAX_ROUNDS)
        self.critic_stop_on = config.params.get("critic_stop_on", {})
        self.feedback_mapping = config.params.get("feedback_mapping", {})
        where = f"{self.kind} flow {config.name!r}"
        if len(self.children) != 2:
            raise ConfigError(f"{where} needs exactly 2 children, got {len(self.children)}")
        stop_keys, critic = set(self.critic_stop_on), self.critic.config
        if {"key", "needle"} <= stop_keys <= {"key", "mode", "needle"}:
            raise ConfigError(f"{where} has critic_stop_on in the retired key/mode/needle form, "
                              f"{self.critic_stop_on!r}; it maps each critic output key to the "
                              f'text that ends the loop, as in {{"verdict": "AllPassed"}}')
        undeclared = sorted(stop_keys - set(critic.output_keys)) if critic.output_keys else []
        if undeclared:
            raise ConfigError(f"{where} has critic_stop_on keys {undeclared} that its critic "
                              f"{critic.name!r} does not output (its output_keys are "
                              f"{list(critic.output_keys)})")

    @property
    def generator(self) -> FlowInstance:
        return self.children[0]

    @property
    def critic(self) -> FlowInstance:
        return self.children[1]

    def _step(self, message: Message, ctx: RunContext):
        feedback: dict = {}
        parents: tuple[str, ...] = (message.id,)
        for round_no in range(1, self.max_rounds + 1):
            gen_out = _deliver(self, self.generator, {**message.payload, **feedback}, parents, ctx,
                               round=round_no, role="generator")
            if is_final_answer(gen_out.payload.get("completion")) or round_no == self.max_rounds:
                break
            critic_out = _deliver(self, self.critic, gen_out.payload, (gen_out.id,), ctx,
                                  round=round_no, role="critic")
            if any(critic_out.payload.get(k) == v for k, v in self.critic_stop_on.items()):
                break
            feedback = {target: critic_out.payload[source]
                        for source, target in self.feedback_mapping.items()
                        if source in critic_out.payload}
            parents = (critic_out.id,)
        return {**gen_out.payload, ROUNDS_USED_KEY: round_no}, (gen_out.id,)
