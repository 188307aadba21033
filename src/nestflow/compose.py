"""Composite flow kinds: sequential and generator-critic.

Composites own their children. A sequential flow threads a running
payload through its children: each child receives it and its output is
overlaid back, so later steps see everything earlier steps produced. A
generator-critic loop carries the critic's feedback into the next
generator input with a key mapping.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FlowConfig,
    FlowInstance,
    Message,
    ROUNDS_USED_KEY,
    RunContext,
    create_flow,
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


@dataclass(frozen=True)
class KeyMapping:
    """Ordered (source, target) key pairs; targets must be unique."""

    entries: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        targets = [t for _, t in self.entries]
        if len(set(targets)) != len(targets):
            raise ConfigError(f"key mapping has duplicate targets: {targets}")

    @classmethod
    def from_dict(cls, doc: dict | None) -> "KeyMapping":
        if not doc:
            return cls()
        if not isinstance(doc, dict):
            raise ConfigError(f"key mapping must be a map, got {type(doc).__name__}")
        return cls(tuple((str(s), str(t)) for s, t in doc.items()))

    def apply(self, payload: dict) -> dict:
        """Project mapped keys out of a payload; absent sources are skipped."""
        return {target: payload[source] for source, target in self.entries if source in payload}


def _child_configs(config: FlowConfig, *, exactly: int | None = None) -> list[FlowConfig]:
    raw = config.params.get("children")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"composite flow {config.name!r} needs params.children")
    if exactly is not None and len(raw) != exactly:
        raise ConfigError(f"flow {config.name!r} needs exactly {exactly} children, got {len(raw)}")
    return [FlowConfig.from_dict(c) for c in raw]


def _max_rounds(config: FlowConfig) -> int:
    value = config.params.get("max_rounds", DEFAULT_MAX_ROUNDS)
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"flow {config.name!r} needs integer max_rounds >= 1, got {value!r}")
    return value


def _critic_stop_on(config: FlowConfig, critic: FlowConfig) -> dict:
    value = config.params.get("critic_stop_on", {})
    if not isinstance(value, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in value.items()):
        raise ConfigError(f"flow {config.name!r} needs critic_stop_on to map payload keys "
                          f"to text, got {value!r}")
    if {"key", "needle"} <= set(value) <= {"key", "mode", "needle"}:
        raise ConfigError(f"flow {config.name!r} has critic_stop_on in the retired "
                          f"key/mode/needle form, {value!r}; it maps each critic output key to "
                          f'the text that ends the loop, as in {{"verdict": "AllPassed"}}')
    undeclared = sorted(set(value) - set(critic.output_keys)) if critic.output_keys else []
    if undeclared:
        raise ConfigError(f"flow {config.name!r} has critic_stop_on keys {undeclared} that its "
                          f"critic {critic.name!r} does not output (its output_keys are "
                          f"{list(critic.output_keys)})")
    return value


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
    accepted_params = ("children",)

    def __init__(self, config: FlowConfig):
        super().__init__(config, [create_flow(c) for c in _child_configs(config)])

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
    accepted_params = ("children", "max_rounds", "critic_stop_on", "feedback_mapping")

    def __init__(self, config: FlowConfig):
        generator_cfg, critic_cfg = _child_configs(config, exactly=2)
        children = [create_flow(generator_cfg), create_flow(critic_cfg)]
        super().__init__(config, children)
        self.max_rounds = _max_rounds(config)
        self.critic_stop_on = _critic_stop_on(config, critic_cfg)
        self.feedback_mapping = KeyMapping.from_dict(config.params.get("feedback_mapping"))

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
            feedback = self.feedback_mapping.apply(critic_out.payload)
            parents = (critic_out.id,)
        return {**gen_out.payload, ROUNDS_USED_KEY: round_no}, (gen_out.id,)
