import datetime as dt
import io
import json
import re
from pathlib import Path

import pytest

from nestflow.ccflows import (
    CODE_PARTS,
    DEFAULT_VARIANTS,
    PLAN_PARTS,
    PROBLEM_KEYS,
    FlowVariant,
    VariantSettings,
    build_prompt_vars,
    build_variant,
    oracle_plan,
    parse_variant,
    problem_payload,
)
from nestflow import cli
from nestflow._util import canonical_bytes, canonical_json, sha256_hex
from nestflow.core import FlowConfig, create_flow, package_input, run
from nestflow.dataset import Problem
from nestflow.errors import ConfigError, DatasetError, FlowError
from nestflow.sandbox import TestCase as IOCase


def small_problem(**overrides):
    fields = dict(
        id="cf-demo-1",
        source="codeforces",
        difficulty=800,
        release_date=dt.date(2021, 1, 1),
        problem_description="Print the doubled number.",
        input_description="One integer n.",
        output_description="The integer 2n.",
        public_examples=(IOCase("3\n", "6\n"), IOCase("5\n", "10\n")),
        hidden_tests=(IOCase("7\n", "14\n"),),
    )
    fields.update(overrides)
    return Problem(**fields)


def children(config):
    return config.params["children"]


def parts(config):
    """A plan variant's two parts, read back from their plain-data configs."""
    return [FlowConfig.from_dict(child) for child in children(config)]


class TestParseVariant:
    def test_all_grammar_combinations_round_trip(self):
        names = list(CODE_PARTS)
        names += [f"{plan}-{code}" for plan in PLAN_PARTS for code in CODE_PARTS]
        assert len(names) == 25
        for name in names:
            assert parse_variant(name).display_name == name

    def test_default_suite_is_valid(self):
        for name in DEFAULT_VARIANTS:
            parse_variant(name)
        assert len(DEFAULT_VARIANTS) == 9

    def test_unknown_code_part_suggests_near_miss(self):
        with pytest.raises(ConfigError, match="did you mean 'Code'"):
            parse_variant("Cod")
        with pytest.raises(ConfigError, match="unknown code part 'Kode'"):
            parse_variant("Plan-Kode")

    def test_unknown_plan_part(self):
        with pytest.raises(ConfigError, match="unknown plan part 'Pln'"):
            parse_variant("Pln-Code")
        with pytest.raises(ConfigError, match="did you mean 'Plan'"):
            parse_variant("Pln-Code")

    def test_parts_split_on_first_dash(self):
        variant = parse_variant("Plan_Reflection-Code_Debug")
        assert variant.plan_part == "Plan_Reflection"
        assert variant.code_part == "Code_Debug"


ALL_VARIANTS = list(CODE_PARTS) + [f"{plan}-{code}" for plan in PLAN_PARTS for code in CODE_PARTS]
ROOT = Path(__file__).resolve().parents[1]


def cli_default_settings():
    """What ``nestflow eval`` builds with every option at its default and the
    bundled profiles file's default profile."""
    defaults = {param.name: param.default for param in cli.cmd_eval.params}
    _, _, model = cli.load_backend_profile(ROOT / "fixtures" / "profiles.yaml",
                                           defaults["backend_profile"])
    return cli._variant_settings(model, defaults["wall_time"], defaults["memory_mb"],
                                 defaults["max_rounds"])


class TestVariantConfigDigests:
    """The sha256 of each of the 25 variants' canonical config is pinned, so a
    change to a prompt, a param or a default shows here first."""

    GOLDEN = json.loads((ROOT / "tests" / "variant_config_digests.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("label, settings", [("VariantSettings()", VariantSettings()),
                                                 ("cli defaults", None)])
    def test_configs_equal_their_pinned_digests(self, label, settings):
        settings = settings or cli_default_settings()
        digests = {name: sha256_hex(canonical_bytes(build_variant(name, settings).to_dict()))
                   for name in ALL_VARIANTS}
        assert len(digests) == 25
        assert digests == self.GOLDEN[label]


class TestBuildVariant:
    def test_bare_code_caps_at_one_round(self):
        config = build_variant("Code")
        assert config.kind == "generator_critic"
        assert config.params["max_rounds"] == 1
        names = [c["name"] for c in children(config)]
        assert names == ["code_generator", "code_critic"]
        assert tuple(config.input_keys) == PROBLEM_KEYS
        assert tuple(config.output_keys) == ("completion", "code")

    def test_reflection_feeds_reply_back(self):
        config = build_variant("Code_Reflection", VariantSettings(max_rounds=3))
        assert config.params["max_rounds"] == 3
        assert config.params["feedback_mapping"] == {"reply": "query"}
        assert children(config)[1]["kind"] == "fixed_reply"

    def test_collaboration_uses_stateless_llm_critic(self):
        config = build_variant("Code_Collaboration")
        critic = children(config)[1]
        assert critic["kind"] == "llm"
        assert critic["params"]["stateless"] is True
        assert config.params["feedback_mapping"] == {"completion": "code_feedback"}

    def test_no_stateless_llm_flow_carries_a_follow_up_template(self):
        # A stateless llm flow starts a fresh conversation on every message,
        # so a human_message would never be sent.
        def flows(config):
            config = config if isinstance(config, FlowConfig) else FlowConfig.from_dict(config)
            yield config
            for child in config.params.get("children", []):
                yield from flows(child)

        names = list(CODE_PARTS) + [f"{plan}-{code}" for plan in PLAN_PARTS for code in CODE_PARTS]
        stateless = [(name, flow) for name in names for flow in flows(build_variant(name))
                     if flow.kind == "llm" and flow.params.get("stateless")]
        assert len(names) == 25 and stateless
        assert [(name, flow.name) for name, flow in stateless
                if "human_message" in flow.params] == []

    def test_debug_grounds_critic_in_public_tests(self):
        config = build_variant("Code_Debug")
        critic = children(config)[1]
        assert critic["kind"] == "code_testing"
        assert critic["name"] == "code_critic"
        assert "public_tests" in config.input_keys
        assert config.params["critic_stop_on"] == {"verdict": "AllPassed"}
        assert config.params["feedback_mapping"] == {
            "testing_results_summary": "testing_results_summary"}

    def test_debug_collab_chains_runner_and_analyst(self):
        config = build_variant("Code_Debug_Collab")
        critic = children(config)[1]
        assert critic["kind"] == "sequential"
        stages = critic["params"]["children"]
        assert [s["name"] for s in stages] == ["public_test_runner", "debug_critic"]
        assert stages[0]["kind"] == "code_testing"
        assert stages[1]["params"]["stateless"] is True

    def test_plan_code_sequences_two_loops(self):
        config = build_variant("Plan-Code")
        assert config.kind == "sequential"
        plan_cfg, code_cfg = parts(config)
        assert plan_cfg.params["max_rounds"] == 1
        assert [c["name"] for c in children(plan_cfg)] == ["plan_generator", "plan_critic"]
        assert "plan" in code_cfg.input_keys
        assert "plan" not in config.input_keys
        assert tuple(config.output_keys) == ("plan", "completion", "code")

    def test_plan_reflection_loops_plan_generator(self):
        config = build_variant("Plan_Reflection-Code", VariantSettings(max_rounds=2))
        plan_cfg = parts(config)[0]
        assert plan_cfg.params["max_rounds"] == 2
        assert plan_cfg.params["feedback_mapping"] == {"reply": "query"}

    def test_plan_oracle_reads_dataset_plan(self):
        config = build_variant("Plan_Oracle-Code")
        plan_cfg = parts(config)[0]
        assert plan_cfg.kind == "human_plan"
        assert plan_cfg.params["interactive"] is False
        assert "human_plan" in plan_cfg.input_keys
        assert "human_plan" in config.input_keys

    def test_plan_oracle_interactive_drops_dataset_key(self):
        config = build_variant("Plan_Oracle-Code", VariantSettings(interactive_plan=True))
        plan_cfg = parts(config)[0]
        assert plan_cfg.params["interactive"] is True
        assert "human_plan" not in plan_cfg.input_keys

    def test_every_variant_config_is_plain_data(self):
        names = list(CODE_PARTS) + [f"{plan}-{code}" for plan in PLAN_PARTS for code in CODE_PARTS]
        for name in names:
            config = build_variant(name).to_dict()
            assert FlowConfig.from_dict(json.loads(canonical_json(config))).to_dict() == config, name
        assert len(names) == 25

    def test_settings_reach_children(self):
        settings = VariantSettings(backend="b", model="m-7", max_rounds=2, wall_time=3.5,
                                   memory_bytes=1 << 20)
        config = build_variant("Code_Debug", settings)
        generator, critic = children(config)
        assert config.params["max_rounds"] == 2
        assert {k: generator["params"][k] for k in ("backend", "model")} == {
            "backend": "b", "model": "m-7"}
        assert critic["params"] == {"wall_time": 3.5, "memory_bytes": 1 << 20}
        # Sampling and the report's title are constants, set by no variant.
        assert not {"temperature", "max_tokens"} & set(generator["params"])

    def test_accepts_parsed_variant(self):
        config = build_variant(FlowVariant(code_part="Code"))
        assert config.name == "Code"

    @pytest.mark.parametrize("name", DEFAULT_VARIANTS)
    def test_every_variant_is_constructible(self, name):
        flow = create_flow(build_variant(name))
        assert flow.config.name == name


class TestPromptVars:
    def test_examples_rendered_as_fenced_blocks(self):
        vars_ = build_prompt_vars(small_problem())
        section = vars_["io_examples_and_explanation"]
        assert section.startswith("# Example test cases\n## Example 1\n")
        assert "Input:\n```\n3\n```\nOutput:\n```\n6\n```" in section
        assert "## Example 2" in section
        assert "# Explanation" not in section

    def test_explanation_appended(self):
        vars_ = build_prompt_vars(small_problem(explanation="Doubling is linear."))
        assert vars_["io_examples_and_explanation"].endswith(
            "# Explanation\nDoubling is linear.")

    def test_problem_without_examples_rejected(self):
        with pytest.raises(DatasetError, match="no public examples"):
            build_prompt_vars(small_problem(public_examples=()))

    def test_payload_includes_public_tests(self):
        payload = problem_payload(small_problem())
        assert payload["public_tests"] == [
            {"input": "3\n", "expected_output": "6\n"},
            {"input": "5\n", "expected_output": "10\n"},
        ]
        assert set(PROBLEM_KEYS) <= set(payload)
        assert "human_plan" not in payload

    def test_payload_carries_human_plan_when_present(self):
        payload = problem_payload(small_problem(human_plan="Multiply by two."))
        assert payload["human_plan"] == "Multiply by two."


class TestOraclePlan:
    def prompt_vars(self):
        return build_prompt_vars(small_problem())

    def test_reads_until_eof_line(self):
        reader = io.StringIO("step one\nstep two\nEOF\nignored\n")
        writer = io.StringIO()
        plan = oracle_plan(self.prompt_vars(), reader=reader, writer=writer)
        assert plan == "step one\nstep two"
        shown = writer.getvalue()
        assert "Print the doubled number." in shown
        assert "line containing only EOF" in shown

    def test_stream_end_also_terminates(self):
        reader = io.StringIO("only step\n")
        plan = oracle_plan(self.prompt_vars(), reader=reader, writer=io.StringIO())
        assert plan == "only step"

    def test_empty_plan_rejected(self):
        with pytest.raises(FlowError, match="empty plan"):
            oracle_plan(self.prompt_vars(), reader=io.StringIO("EOF\n"),
                        writer=io.StringIO())


class TestHumanPlanFlow:
    def config(self, **params):
        return {"name": "oracle", "kind": "human_plan",
                "input_keys": ["human_plan"], "output_keys": ["plan"],
                "params": params}

    def test_dataset_plan_passthrough(self):
        out = run(create_flow(self.config()),
                  package_input({"human_plan": "Use a hash map."}))
        assert out.payload["plan"] == "Use a hash map."

    def test_blank_plan_rejected(self):
        with pytest.raises(FlowError, match="human-authored plan"):
            run(create_flow(self.config()), package_input({"human_plan": "   "}))

    def test_custom_plan_key(self):
        # Every variant reads the plan from "human_plan", so the key is no param.
        with pytest.raises(ConfigError, match=re.escape(
                "human_plan flow 'oracle' has unknown params: ['plan_key']")):
            create_flow(self.config(plan_key="notes"))

    def test_unknown_params_rejected(self):
        with pytest.raises(ConfigError, match="unknown params"):
            create_flow(self.config(plan_source="dataset"))

    def test_interactive_mode_prompts_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("read input\ndouble it\nEOF\n"))
        flow = create_flow({"name": "oracle", "kind": "human_plan",
                            "input_keys": [], "output_keys": ["plan"],
                            "params": {"interactive": True}})
        out = run(flow, package_input(build_prompt_vars(small_problem())))
        assert out.payload["plan"] == "read input\ndouble it"
        assert "Enter the conceptual solution" in capsys.readouterr().out
