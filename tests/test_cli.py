import functools
import json
import shutil
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from nestflow.backends import (
    BackendRequest,
    ChatTurn,
    RemoteBackend,
    ResponseCache,
    ScriptedBackend,
    cached_complete,
)
from nestflow.cli import load_backend_profile, main
from nestflow.errors import ConfigError

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
PROFILES = FIXTURES / "profiles.yaml"
PROBLEMS = FIXTURES / "problems"


@pytest.fixture
def runner():
    return CliRunner()


def write_profiles(tmp_path, profiles):
    path = tmp_path / "profiles.yaml"
    path.write_text(yaml.safe_dump({"profiles": profiles}), encoding="utf-8")
    return path


def missing_key_profiles(tmp_path, monkeypatch):
    monkeypatch.delenv("MISSING_KEY", raising=False)
    return write_profiles(tmp_path, {
        "api": {"kind": "remote", "endpoint": "https://localhost/v1",
                "api_key_env": "MISSING_KEY"}})


class TestLoadBackendProfile:
    def test_scripted_rules_profile(self):
        backend, cache, model = load_backend_profile(PROFILES, "scripted")
        assert isinstance(backend, ScriptedBackend)
        assert cache is None
        assert model == "scripted"

    def test_scripted_responses_profile(self, tmp_path):
        path = write_profiles(tmp_path, {
            "canned": {"kind": "scripted", "responses": ["hello"]}})
        backend, cache, model = load_backend_profile(path, "canned")
        assert isinstance(backend, ScriptedBackend)
        assert model == "default"

    def test_remote_profile(self, tmp_path):
        path = write_profiles(tmp_path, {
            "api": {"kind": "remote", "model": "m", "endpoint": "https://x/v1",
                    "api_key_env": "X_KEY", "cache_dir": "cache"}})
        backend, cache, model = load_backend_profile(path, "api")
        assert isinstance(backend, RemoteBackend)
        assert cache is not None and model == "m"

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read profiles file"):
            load_backend_profile(tmp_path / "none.yaml", "scripted")
        with pytest.raises(ConfigError, match="no profile 'missing'"):
            load_backend_profile(PROFILES, "missing")
        path = write_profiles(tmp_path, {"odd": {"kind": "telepathic"}})
        with pytest.raises(ConfigError, match="unknown kind 'telepathic'"):
            load_backend_profile(path, "odd")
        path = write_profiles(tmp_path, {"bare": {"kind": "scripted"}})
        with pytest.raises(ConfigError, match="needs rules_file or responses"):
            load_backend_profile(path, "bare")
        path = write_profiles(tmp_path, {"half": {"kind": "remote",
                                                  "api_key_env": "K"}})
        with pytest.raises(ConfigError, match="needs 'endpoint'"):
            load_backend_profile(path, "half")


class TestCmdRun:
    def run_args(self, problem, variant, **extra):
        args = ["run", "--problem", str(PROBLEMS / f"{problem}.yaml"),
                "--variant", variant, "--profiles", str(PROFILES),
                "--wall-time", "2.0"]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args

    def test_solved_problem_exits_zero(self, runner):
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code"))
        assert result.exit_code == 0, result.output
        assert "problem: cf-echo-101" in result.output
        assert "rounds_used: 1" in result.output
        assert "program:" in result.output
        assert "solved: true" in result.output

    def test_unsolved_problem_exits_one(self, runner):
        result = runner.invoke(main, self.run_args("cf-pairsum-202", "Code"))
        assert result.exit_code == 1, result.output
        assert "solved: false" in result.output

    def test_out_dir_writes_trace(self, runner, tmp_path):
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code",
                                                   out=tmp_path / "one"))
        assert result.exit_code == 0, result.output
        assert (tmp_path / "one" / "cf-echo-101" / "Code" / "trace.log").exists()
        assert "program:" in result.output

    def test_out_dir_replays(self, runner, tmp_path):
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code", out=tmp_path / "one"))
        assert result.exit_code == 0, result.output
        result = replay(runner, tmp_path / "one", "Code")
        assert result.exit_code == 0, result.output
        assert "replay identical:" in result.output

    def test_missing_interpreter_is_environment_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code"))
        assert result.exit_code == 3, result.output
        assert "error: failed to spawn interpreter" in result.stderr

    def test_unknown_variant_is_usage_error(self, runner):
        result = runner.invoke(main, self.run_args("cf-echo-101", "Cod"))
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert "did you mean 'Code'" in result.stderr

    @pytest.mark.parametrize("limit", [["--wall-time", "-1"], ["--wall-time", "0"],
                                       ["--memory", "-5"], ["--memory", "0"]])
    def test_limit_that_is_not_positive_is_usage_error(self, runner, tmp_path, limit):
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code", out=tmp_path / "one")
                               + limit)
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "one").exists()

    def test_missing_problem_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["run", "--problem", "no-such.yaml",
                                      "--variant", "Code"])
        assert result.exit_code == 2

    def test_missing_credential_is_environment_error(self, runner, tmp_path,
                                                     monkeypatch):
        profiles = missing_key_profiles(tmp_path, monkeypatch)
        for extra in ([], ["--out", str(tmp_path / "run")]):
            result = runner.invoke(main, ["run", "--problem",
                                          str(PROBLEMS / "cf-echo-101.yaml"),
                                          "--variant", "Code",
                                          "--profiles", str(profiles),
                                          "--backend-profile", "api", *extra])
            assert result.exit_code == 3, extra
            assert "error:" in result.stderr

    def test_interactive_plan_reads_stdin(self, runner, tmp_path):
        profiles = write_profiles(tmp_path, {
            "canned": {"kind": "scripted",
                       "responses": ["```python\nprint(int(input()))\n```"]}})
        result = runner.invoke(
            main,
            ["run", "--problem", str(PROBLEMS / "cf-echo-101.yaml"),
             "--variant", "Plan_Oracle-Code", "--profiles", str(profiles),
             "--backend-profile", "canned", "--interactive-plan",
             "--wall-time", "2.0"],
            input="echo the number back\nEOF\n")
        assert result.exit_code == 0, result.output
        assert "Enter the conceptual solution" in result.output
        assert "solved: true" in result.output


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("eval")
    runner = CliRunner()
    result = runner.invoke(main, [
        "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
        "--variants", "Code,Code_Reflection", "--profiles", str(PROFILES),
        "--out", str(out_dir), "--wall-time", "2.0"])
    assert result.exit_code == 0, result.output
    return out_dir, result


class TestCmdEval:
    def test_grid_summary_and_reports(self, eval_dir):
        out_dir, result = eval_dir
        assert "2 records (2 new runs)" in result.output
        assert (out_dir / "records.jsonl").as_posix() in result.output
        assert "Flow" in result.output
        for name in ("records.jsonl", "run_meta.json", "results_table.txt",
                     "results_table.csv", "temporal_series.csv"):
            assert (out_dir / name).exists()

    def test_records_are_jsonl(self, eval_dir):
        out_dir, _ = eval_dir
        lines = (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert {json.loads(line)["variant"] for line in lines} == {
            "Code", "Code_Reflection"}

    def test_resume_runs_nothing(self, runner, eval_dir):
        out_dir, _ = eval_dir
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--variants", "Code,Code_Reflection", "--profiles", str(PROFILES),
            "--out", str(out_dir), "--wall-time", "2.0"])
        assert result.exit_code == 0, result.output
        assert "2 records (0 new runs)" in result.output

    def test_bad_cutoff_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--profiles", str(PROFILES), "--out", str(tmp_path),
            "--cutoff", "whenever"])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_missing_credential_is_environment_error(self, runner, tmp_path, monkeypatch):
        profiles = missing_key_profiles(tmp_path, monkeypatch)
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--variants", "Code,Code_Reflection", "--profiles", str(profiles),
            "--backend-profile", "api", "--out", str(tmp_path / "run")])
        assert result.exit_code == 3
        assert "error:" in result.stderr
        assert not (tmp_path / "run" / "records.jsonl").exists()
        assert not list((tmp_path / "run").rglob("trace.log"))

    def test_backend_failure_is_environment_error(self, runner, tmp_path, monkeypatch,
                                                  unavailable_session):
        monkeypatch.setattr("nestflow.cli.RemoteBackend", functools.partial(
            RemoteBackend, session=unavailable_session, sleep=lambda _: None))
        profiles = write_profiles(tmp_path, {
            "api": {"kind": "remote", "endpoint": "https://localhost/v1",
                    "api_key_env": "STUB_API_KEY", "max_attempts": 3}})
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--variants", "Code", "--profiles", str(profiles),
            "--backend-profile", "api", "--out", str(tmp_path / "run")])
        assert result.exit_code == 3, result.output
        assert "error: backend failed after 3 attempts: HTTP 503" in result.stderr
        assert unavailable_session.posts == 3
        assert not (tmp_path / "run" / "records.jsonl").exists()
        assert not list((tmp_path / "run").rglob("trace.log"))

    def test_unknown_variant_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--variants", "Code,Nope", "--profiles", str(PROFILES),
            "--out", str(tmp_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("limit", [["--wall-time", "-1"], ["--wall-time", "0"],
                                       ["--memory", "-5"], ["--memory", "0"]])
    def test_limit_that_is_not_positive_is_usage_error(self, runner, tmp_path, limit):
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--variants", "Code",
            "--profiles", str(PROFILES), "--out", str(tmp_path / "run"), *limit])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "run").exists()

    def test_resume_with_other_settings_is_usage_error(self, runner, tmp_path):
        def eval_rounds(rounds: int, *extra: str):
            return runner.invoke(main, [
                "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
                "--variants", "Code_Debug", "--profiles", str(PROFILES),
                "--out", str(tmp_path), "--wall-time", "2.0", "--max-rounds", str(rounds),
                *extra])

        assert eval_rounds(4).exit_code == 0
        records = (tmp_path / "records.jsonl").read_bytes()
        result = eval_rounds(1)
        assert result.exit_code == 2, result.output
        assert "variant_settings.max_rounds: 4 -> 1" in result.stderr
        assert (tmp_path / "records.jsonl").read_bytes() == records
        assert json.loads((tmp_path / "run_meta.json").read_text())["variant_settings"][
            "max_rounds"] == 4
        result = eval_rounds(1, "--no-resume")
        assert result.exit_code == 0, result.output
        assert "1 records (1 new runs)" in result.output


class TestCmdReport:
    def test_regenerates_table(self, runner, eval_dir):
        out_dir, _ = eval_dir
        before = (out_dir / "results_table.txt").read_bytes()
        result = runner.invoke(main, ["report", "--run-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        assert "Flow" in result.output
        assert (out_dir / "results_table.txt").read_bytes() == before

    def test_incomplete_dir_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["report", "--run-dir", str(tmp_path)])
        assert result.exit_code == 2
        assert "run directory is incomplete" in result.stderr

    def test_corrupt_records_are_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(eval_dir[0], run_dir)
        path = run_dir / "records.jsonl"
        path.write_text("{torn\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert "run directory is corrupt" in result.stderr


def replay(runner, run_dir, variant, problem_id="cf-echo-101"):
    return runner.invoke(main, ["replay", "--run-dir", str(run_dir),
                                "--problem-id", problem_id, "--variant", variant])


class TestCmdReplay:
    def eval_echo(self, runner, profiles, profile, out_dir, variants):
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--variants", variants, "--profiles", str(profiles),
            "--backend-profile", profile, "--out", str(out_dir), "--wall-time", "2.0"])
        assert result.exit_code == 0, result.output

    def test_identical_replay_exits_zero(self, runner, eval_dir):
        out_dir, _ = eval_dir
        result = replay(runner, out_dir, "Code_Reflection")
        assert result.exit_code == 0, result.output
        assert "replay identical:" in result.output

    def test_missing_trace_is_usage_error(self, runner, eval_dir):
        out_dir, _ = eval_dir
        result = replay(runner, out_dir, "Code_Debug")
        assert result.exit_code == 2
        assert "no trace at" in result.stderr

    def copy_run(self, eval_dir, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(eval_dir[0], run_dir)
        return run_dir

    def set_variant_settings(self, run_dir, **extra):
        path = run_dir / "run_meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["variant_settings"].update(extra)
        path.write_text(json.dumps(meta), encoding="utf-8")

    def test_missing_run_meta_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        (run_dir / "run_meta.json").unlink()
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "run_meta.json" in result.stderr

    def test_unsupported_trace_format_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code" / "trace.log"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(['{"trace_format":99}'] + lines[1:]) + "\n", encoding="utf-8")
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "unsupported format version 99" in result.stderr

    def test_trace_without_input_message_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code" / "trace.log"
        path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n",
                        encoding="utf-8")
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "has no input message" in result.stderr

    def test_unknown_variant_setting_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        self.set_variant_settings(run_dir, sandbox="docker")
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "unknown variant settings: ['sandbox']" in result.stderr

    def test_meta_with_python_language_tag_replays(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        self.set_variant_settings(run_dir, language_tag="python")
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 0, result.output
        assert "replay identical:" in result.output
        self.set_variant_settings(run_dir, language_tag="cpp")
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "unknown variant settings: ['language_tag']" in result.stderr

    def test_cache_served_pairs_replay_identical(self, runner, tmp_path):
        profiles = write_profiles(tmp_path, {"cached": {
            "kind": "scripted", "model": "scripted", "cache_dir": "cache",
            "rules_file": str(FIXTURES / "scripted_responses.yaml")}})
        for out in ("cold", "warm"):
            self.eval_echo(runner, profiles, "cached", tmp_path / out, "Code,Code_Collaboration")
        for variant in ("Code", "Code_Collaboration"):
            trace = (tmp_path / "warm" / "cf-echo-101" / variant / "trace.log").read_text()
            assert '"cached":true' in trace
            result = replay(runner, tmp_path / "warm", variant)
            assert result.exit_code == 0, result.output
            assert "replay identical:" in result.output

    def test_failed_run_replays_identical(self, runner, tmp_path):
        profiles = write_profiles(tmp_path, {"refuse": {
            "kind": "scripted", "responses": ["I refuse to write any code."]}})
        self.eval_echo(runner, profiles, "refuse", tmp_path / "run", "Code")
        result = replay(runner, tmp_path / "run", "Code")
        assert result.exit_code == 0, result.output
        assert "replayed run failed: completion contains no fenced python code block" \
            in result.output
        assert "replay identical:" in result.output

    def test_altered_response_diverges(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code_Reflection" / "trace.log"
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event.get("kind") == "backend_response":
                event["body"]["response"] += "\n(altered)"
                lines[i] = json.dumps(event)
                break
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = replay(runner, run_dir, "Code_Reflection")
        assert result.exit_code == 1, result.output
        assert "replay diverged" in result.output


class TestCmdCache:
    def test_stats_and_clear(self, runner, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ResponseCache(cache_dir)
        request = BackendRequest(model="m", turns=[ChatTurn("user", "hi")])
        cached_complete(ScriptedBackend(responses=["yo"]), request, cache)

        result = runner.invoke(main, ["cache", "stats", "--cache-dir", str(cache_dir)])
        assert result.exit_code == 0
        assert "entries: 1" in result.output

        result = runner.invoke(main, ["cache", "clear", "--cache-dir", str(cache_dir)])
        assert result.exit_code == 0
        assert "removed: 1" in result.output

        result = runner.invoke(main, ["cache", "stats", "--cache-dir", str(cache_dir)])
        assert "entries: 0" in result.output
        assert "bytes: 0" in result.output
