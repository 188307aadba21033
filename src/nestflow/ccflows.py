"""Competitive-coding flow suite.

Builds the named flow variants out of the generic runtime pieces. A
variant name is either a code part alone ("Code_Debug") or a plan part
and a code part joined by a dash ("Plan_Reflection-Code"). Every code
part is a generator-critic loop (the baseline simply caps it at one
round); plan parts either loop the same way or read a human-authored
plan.
"""
from __future__ import annotations

import difflib
import sys
from dataclasses import dataclass

from . import templates as T
from ._util import BOOLEAN
from .core import FlowConfig, FlowInstance, Message, RunContext, register_flow_kind
from .dataset import Problem
from .errors import ConfigError, DatasetError, FlowError
from .sandbox import DEFAULT_MEMORY_BYTES, DEFAULT_WALL_TIME

PLAN_PARTS = ("Plan", "Plan_Reflection", "Plan_Collaboration", "Plan_Oracle")
CODE_PARTS = ("Code", "Code_Reflection", "Code_Collaboration", "Code_Debug", "Code_Debug_Collab")

# The evaluation suite: every sub-flow choice exercised at least once.
DEFAULT_VARIANTS = (
    "Code",
    "Code_Reflection",
    "Code_Collaboration",
    "Code_Debug",
    "Code_Debug_Collab",
    "Plan-Code",
    "Plan_Reflection-Code",
    "Plan_Collaboration-Code",
    "Plan_Oracle-Code",
)

PROBLEM_KEYS = (
    "problem_description",
    "input_description",
    "output_description",
    "io_examples_and_explanation",
)


@dataclass(frozen=True)
class FlowVariant:
    """Parsed variant name: optional plan part plus a code part."""

    code_part: str
    plan_part: str | None = None

    @property
    def display_name(self) -> str:
        return f"{self.plan_part}-{self.code_part}" if self.plan_part else self.code_part


def _unknown_part(part: str, options: tuple[str, ...], role: str) -> ConfigError:
    hint = difflib.get_close_matches(part, options, n=1)
    suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
    return ConfigError(f"unknown {role} part {part!r} (valid: {', '.join(options)}){suggestion}")


def parse_variant(name: str) -> FlowVariant:
    """Parse a variant name, suggesting near misses on typos."""
    plan_part: str | None = None
    code_part = name
    if "-" in name:
        plan_part, code_part = name.split("-", 1)
        if plan_part not in PLAN_PARTS:
            raise _unknown_part(plan_part, PLAN_PARTS, "plan")
    if code_part not in CODE_PARTS:
        raise _unknown_part(code_part, CODE_PARTS, "code")
    return FlowVariant(code_part=code_part, plan_part=plan_part)


@dataclass(frozen=True)
class VariantSettings:
    """Knobs shared by all variants: backend and model, loop and sandbox limits."""

    backend: str = "default"
    model: str = "default"
    max_rounds: int = 4
    wall_time: float = DEFAULT_WALL_TIME
    memory_bytes: int = DEFAULT_MEMORY_BYTES
    interactive_plan: bool = False


def _llm_params(settings: VariantSettings, system: str, query: str, **extra) -> dict:
    return {"system_message": system, "query_message": query, "backend": settings.backend,
            "model": settings.model, **extra}


def _code_generator(settings: VariantSettings, human: str, with_plan: bool) -> dict:
    query = T.CODE_QUERY + (T.PLAN_SECTION if with_plan else "")
    input_keys = list(PROBLEM_KEYS) + (["plan"] if with_plan else [])
    return {
        "name": "code_generator",
        "kind": "llm",
        "input_keys": input_keys,
        "output_keys": ["completion", "code"],
        "params": _llm_params(settings, T.CODE_SYSTEM, query, human_message=human,
                              postprocess="code"),
    }


def _sandbox_critic(settings: VariantSettings) -> dict:
    return {
        "name": "public_test_runner",
        "kind": "code_testing",
        "input_keys": ["code", "public_tests"],
        "output_keys": ["verdict", "testing_results_summary"],
        "params": {"wall_time": settings.wall_time, "memory_bytes": settings.memory_bytes},
    }


def _fixed_critic(name: str, reply: str) -> dict:
    return {"name": name, "kind": "fixed_reply", "params": {"reply": reply, "output_key": "reply"}}


def _llm_critic(settings: VariantSettings, name: str, input_keys: list[str],
                system: str, query: str) -> dict:
    return {
        "name": name,
        "kind": "llm",
        "input_keys": input_keys,
        "output_keys": ["completion"],
        "params": _llm_params(settings, system, query, stateless=True),
    }


def _reflection_params(part: str, settings: VariantSettings) -> dict:
    # The baseline is the reflection loop capped at one round, where the
    # critic never runs and so needs no feedback mapping.
    if part in ("Code", "Plan"):
        return {"max_rounds": 1}
    return {"max_rounds": settings.max_rounds, "feedback_mapping": {"reply": "query"}}


def _loop(name: str, input_keys: list[str], output_keys: list[str], params: dict,
          generator: dict, critic: dict) -> FlowConfig:
    return FlowConfig.from_dict({
        "name": name,
        "kind": "generator_critic",
        "input_keys": input_keys,
        "output_keys": output_keys,
        "params": {**params, "children": [generator, critic]},
    })


def _code_part_config(variant: FlowVariant, settings: VariantSettings) -> FlowConfig:
    part = variant.code_part
    with_plan = variant.plan_part is not None
    base_inputs = list(PROBLEM_KEYS) + (["plan"] if with_plan else [])
    params: dict = {"max_rounds": settings.max_rounds}

    if part in ("Code", "Code_Reflection"):
        generator = _code_generator(settings, T.CODE_HUMAN, with_plan)
        critic = _fixed_critic("code_critic", T.REFLECTION_FIXED_REPLY)
        params = _reflection_params(part, settings)
    elif part == "Code_Collaboration":
        generator = _code_generator(settings, T.COLLAB_HUMAN, with_plan)
        critic = _llm_critic(settings, "code_critic", list(PROBLEM_KEYS) + ["code"],
                             T.CRITIC_SYSTEM, T.CRITIC_QUERY)
        params["feedback_mapping"] = {"completion": "code_feedback"}
    elif part == "Code_Debug":
        generator = _code_generator(settings, T.DEBUG_HUMAN, with_plan)
        critic = {**_sandbox_critic(settings), "name": "code_critic"}
        params["feedback_mapping"] = {"testing_results_summary": "testing_results_summary"}
    elif part == "Code_Debug_Collab":
        generator = _code_generator(settings, T.COLLAB_HUMAN, with_plan)
        analyst = _llm_critic(settings, "debug_critic",
                              list(PROBLEM_KEYS) + ["code", "testing_results_summary"],
                              T.DEBUG_COLLAB_CRITIC_SYSTEM, T.DEBUG_COLLAB_CRITIC_QUERY)
        critic = {
            "name": "code_critic",
            "kind": "sequential",
            "input_keys": ["code", "public_tests"],
            "output_keys": ["verdict", "completion"],
            "params": {"children": [_sandbox_critic(settings), analyst]},
        }
        params["feedback_mapping"] = {"completion": "code_feedback"}
    else:  # pragma: no cover - parse_variant guards this
        raise _unknown_part(part, CODE_PARTS, "code")
    if part.startswith("Code_Debug"):
        params["critic_stop_on"] = {"verdict": "AllPassed"}
        base_inputs.append("public_tests")
    return _loop(part, base_inputs, ["completion", "code"], params, generator, critic)


def _plan_generator(settings: VariantSettings, human: str) -> dict:
    return {
        "name": "plan_generator",
        "kind": "llm",
        "input_keys": list(PROBLEM_KEYS),
        "output_keys": ["completion", "plan"],
        "params": _llm_params(settings, T.PLAN_SYSTEM, T.PLAN_QUERY, human_message=human,
                              postprocess="plan"),
    }


def _plan_part_config(variant: FlowVariant, settings: VariantSettings) -> FlowConfig:
    part = variant.plan_part
    if part == "Plan_Oracle":
        return FlowConfig.from_dict({
            "name": part,
            "kind": "human_plan",
            "input_keys": list(PROBLEM_KEYS) if settings.interactive_plan else
                          list(PROBLEM_KEYS) + ["human_plan"],
            "output_keys": ["plan"],
            "params": {"interactive": settings.interactive_plan},
        })
    if part in ("Plan", "Plan_Reflection"):
        generator = _plan_generator(settings, T.PLAN_HUMAN)
        critic = _fixed_critic("plan_critic", T.PLAN_REFLECTION_FIXED_REPLY)
        params = _reflection_params(part, settings)
    elif part == "Plan_Collaboration":
        generator = _plan_generator(settings, T.PLAN_COLLAB_HUMAN)
        critic = _llm_critic(settings, "plan_critic", list(PROBLEM_KEYS) + ["plan"],
                             T.PLAN_CRITIC_SYSTEM, T.PLAN_CRITIC_QUERY)
        params = {"max_rounds": settings.max_rounds,
                  "feedback_mapping": {"completion": "plan_feedback"}}
    else:  # pragma: no cover - parse_variant guards this
        raise _unknown_part(part, PLAN_PARTS, "plan")
    return _loop(part, list(PROBLEM_KEYS), ["plan"], params, generator, critic)


def build_variant(variant: FlowVariant | str,
                  settings: VariantSettings = VariantSettings()) -> FlowConfig:
    """Build the full flow config for a variant name."""
    if isinstance(variant, str):
        variant = parse_variant(variant)
    code_cfg = _code_part_config(variant, settings)
    if variant.plan_part is None:
        return code_cfg
    plan_cfg = _plan_part_config(variant, settings)
    input_keys = list(dict.fromkeys(list(plan_cfg.input_keys) + [
        k for k in code_cfg.input_keys if k != "plan"]))
    return FlowConfig.from_dict({
        "name": variant.display_name,
        "kind": "sequential",
        "input_keys": input_keys,
        "output_keys": ["plan", "completion", "code"],
        "params": {"children": [plan_cfg.to_dict(), code_cfg.to_dict()]},
    })


def build_prompt_vars(problem: Problem) -> dict:
    """Collapse a problem into the four prompt variables the templates use."""
    if not problem.public_examples:
        raise DatasetError(f"problem {problem.id} has no public examples to show in prompts")
    lines = ["# Example test cases"]
    for index, example in enumerate(problem.public_examples, start=1):
        lines.append(f"## Example {index}")
        lines.append("Input:")
        lines.append("```")
        lines.append(example.input.rstrip("\n"))
        lines.append("```")
        lines.append("Output:")
        lines.append("```")
        lines.append(example.expected_output.rstrip("\n"))
        lines.append("```")
    if problem.explanation:
        lines.append("# Explanation")
        lines.append(problem.explanation)
    return {
        "problem_description": problem.problem_description,
        "input_description": problem.input_description,
        "output_description": problem.output_description,
        "io_examples_and_explanation": "\n".join(lines),
    }


def problem_payload(problem: Problem) -> dict:
    """Input payload for running any variant on a problem."""
    payload = build_prompt_vars(problem)
    payload["public_tests"] = [
        {"input": t.input, "expected_output": t.expected_output}
        for t in problem.public_examples
    ]
    if problem.human_plan is not None:
        payload["human_plan"] = problem.human_plan
    return payload


def oracle_plan(prompt_vars: dict, reader=None, writer=None) -> str:
    """Collect a human-authored plan interactively.

    Shows the problem, then reads lines until a line equal to "EOF" or
    the end of the stream.
    """
    reader = reader if reader is not None else sys.stdin
    writer = writer if writer is not None else sys.stdout
    writer.write("# Problem statement\n")
    writer.write(prompt_vars.get("problem_description", "") + "\n\n")
    writer.write(prompt_vars.get("io_examples_and_explanation", "") + "\n\n")
    writer.write("Enter the conceptual solution, then a line containing only EOF:\n")
    writer.flush()
    lines: list[str] = []
    for line in reader:
        if line.rstrip("\n") == "EOF":
            break
        lines.append(line.rstrip("\n"))
    plan = "\n".join(lines).strip()
    if not plan:
        raise FlowError("interactive plan entry produced an empty plan")
    return plan


@register_flow_kind
class HumanPlanFlow(FlowInstance):
    """Plan source that bypasses the model: dataset plan or interactive entry."""

    kind = "human_plan"
    accepted_params = {"interactive": BOOLEAN}

    def _step(self, message: Message, ctx: RunContext) -> dict:
        if self.config.params.get("interactive", False):
            plan = oracle_plan(message.payload)
        else:
            plan = message.payload.get("human_plan")
            if not isinstance(plan, str) or not plan.strip():
                raise FlowError("payload key 'human_plan' must carry the human-authored plan",
                                instance_id=self.instance_id)
        return {"plan": plan}
