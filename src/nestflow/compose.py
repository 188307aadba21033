"""Composite flow kinds: sequential, circular, generator-critic.

Composites own their children and translate payloads between them with
key mappings. A running payload threads through the topology: each child
receives the running payload (with mapped keys overlaid) and its output
is overlaid back, so later steps see everything earlier steps produced.
"""
from __future__ import annotations

import logging
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

logger = logging.getLogger(__name__)

MODES = ("contains", "equals")
DEFAULT_MAX_ROUNDS = 4
FINAL_ANSWER_NEEDLE = "Final answer."


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


@dataclass(frozen=True)
class TerminationPredicate:
    """Text check on one payload key: contains or equals a needle."""

    key: str
    needle: str
    mode: str = "contains"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"termination mode must be one of {MODES}, got {self.mode!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "TerminationPredicate":
        if not isinstance(doc, dict):
            raise ConfigError(f"termination predicate must be a map, got {type(doc).__name__}")
        unknown = set(doc) - {"key", "needle", "mode"}
        if unknown:
            raise ConfigError(f"termination predicate has unknown fields: {sorted(unknown)}")
        return cls(key=doc["key"], needle=doc["needle"], mode=doc.get("mode", "contains"))

    def matches(self, payload: dict) -> bool:
        value = payload.get(self.key)
        if not isinstance(value, str):
            return False
        return self.needle in value if self.mode == "contains" else value == self.needle


def _child_configs(config: FlowConfig, *, exactly: int | None = None) -> list[FlowConfig]:
    raw = config.params.get("children")
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"composite flow {config.name!r} needs params.children")
    if exactly is not None and len(raw) != exactly:
        raise ConfigError(f"flow {config.name!r} needs exactly {exactly} children, got {len(raw)}")
    return [c if isinstance(c, FlowConfig) else FlowConfig.from_dict(c) for c in raw]


def _step_mappings(config: FlowConfig, count: int) -> list[KeyMapping]:
    raw = config.params.get("step_mappings", [])
    if len(raw) > count:
        raise ConfigError(f"flow {config.name!r} has more step_mappings than children")
    mappings = [KeyMapping.from_dict(m) for m in raw]
    mappings.extend(KeyMapping() for _ in range(count - len(mappings)))
    return mappings


def _max_rounds(config: FlowConfig) -> int:
    value = config.params.get("max_rounds", DEFAULT_MAX_ROUNDS)
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"flow {config.name!r} needs integer max_rounds >= 1, got {value!r}")
    return value


@register_flow_kind
class SequentialFlow(FlowInstance):
    """Run children once each, in order, threading the running payload."""

    kind = "sequential"

    def __init__(self, config: FlowConfig):
        children = [create_flow(c) for c in _child_configs(config)]
        super().__init__(config, children)
        self.mappings = _step_mappings(config, len(children))

    def _round(self, running: dict, parents: tuple[str, ...], ctx: RunContext, **context):
        """Run every child once; returns the running payload and, as the new
        parents, the id of the last child's output.

        ``context`` (the round number, for circular flows) goes first into
        the annotations of a child's error, ahead of the step.
        """
        for index, (child, mapping) in enumerate(zip(self.children, self.mappings)):
            child_in = ctx.new_message({**running, **mapping.apply(running)},
                                       created_by=self.instance_id, parents=parents)
            try:
                child_out = run(child, child_in, ctx)
            except FlowError as exc:
                raise exc.annotate(**context, step=index, step_name=child.config.name)
            running = {**child_in.payload, **child_out.payload}
            parents = (child_out.id,)
        return running, parents

    def _step(self, message: Message, ctx: RunContext):
        return self._round(dict(message.payload), (message.id,), ctx)


@register_flow_kind
class CircularFlow(SequentialFlow):
    """Repeat the child sequence up to max_rounds, with an optional exit check.

    The exit predicate is evaluated on the running payload after each
    full round; the output is the final running payload annotated with
    the number of rounds executed.
    """

    kind = "circular"

    def __init__(self, config: FlowConfig):
        super().__init__(config)
        self.max_rounds = _max_rounds(config)
        exit_doc = config.params.get("exit")
        self.exit_predicate = TerminationPredicate.from_dict(exit_doc) if exit_doc else None

    def _step(self, message: Message, ctx: RunContext):
        running, parents = dict(message.payload), (message.id,)
        for round_no in range(1, self.max_rounds + 1):
            running, parents = self._round(running, parents, ctx, round=round_no)
            if self.exit_predicate and self.exit_predicate.matches(running):
                break
        return {**running, ROUNDS_USED_KEY: round_no}, parents


@register_flow_kind
class GeneratorCriticFlow(FlowInstance):
    """Alternate a generator and a critic until termination.

    Round r: the generator runs on the composite input overlaid with the
    previous round's feedback; if its output satisfies ``stop_on`` (or the
    round cap is reached) the loop ends and the critic is skipped.
    Otherwise the critic runs on the generator's output; if the critic
    output satisfies ``critic_stop_on`` the loop ends, else the feedback
    mapping projects critic keys into the next generator input.

    Output: the last generator output annotated with ``_rounds_used``.
    Under stop_on or round-cap termination the critic runs exactly
    rounds_used - 1 times; a critic_stop_on exit adds one more.
    """

    kind = "generator_critic"

    def __init__(self, config: FlowConfig):
        generator_cfg, critic_cfg = _child_configs(config, exactly=2)
        children = [create_flow(generator_cfg), create_flow(critic_cfg)]
        super().__init__(config, children)
        self.max_rounds = _max_rounds(config)
        params = config.params
        if "stop_on" in params and params["stop_on"] is None:
            self.stop_on = None
        elif "stop_on" in params:
            self.stop_on = TerminationPredicate.from_dict(params["stop_on"])
        else:
            self.stop_on = TerminationPredicate(key="completion", needle=FINAL_ANSWER_NEEDLE)
        critic_doc = params.get("critic_stop_on")
        self.critic_stop_on = TerminationPredicate.from_dict(critic_doc) if critic_doc else None
        self.feedback_mapping = KeyMapping.from_dict(params.get("feedback_mapping"))

    @property
    def generator(self) -> FlowInstance:
        return self.children[0]

    @property
    def critic(self) -> FlowInstance:
        return self.children[1]

    def _step(self, message: Message, ctx: RunContext):
        base = message.payload
        feedback: dict = {}
        parents: tuple[str, ...] = (message.id,)
        last_output: Message | None = None
        rounds = 0
        for round_no in range(1, self.max_rounds + 1):
            gen_in = ctx.new_message({**base, **feedback},
                                     created_by=self.instance_id, parents=parents)
            try:
                gen_out = run(self.generator, gen_in, ctx)
            except FlowError as exc:
                raise exc.annotate(round=round_no, role="generator")
            rounds = round_no
            last_output = gen_out
            parents = (gen_out.id,)
            if self.stop_on and self.stop_on.matches(gen_out.payload):
                break
            if round_no == self.max_rounds:
                break
            critic_in = ctx.new_message(dict(gen_out.payload),
                                        created_by=self.instance_id, parents=(gen_out.id,))
            try:
                critic_out = run(self.critic, critic_in, ctx)
            except FlowError as exc:
                raise exc.annotate(round=round_no, role="critic")
            parents = (critic_out.id,)
            if self.critic_stop_on and self.critic_stop_on.matches(critic_out.payload):
                break
            feedback = self.feedback_mapping.apply(critic_out.payload)
        updates = {**last_output.payload, ROUNDS_USED_KEY: rounds}
        return updates, (last_output.id,)
