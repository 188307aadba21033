import errno
import functools
import io
import json
import os
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from nestflow._util import canonical_json
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
from nestflow.trace import read_trace

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
PROFILES = FIXTURES / "profiles.yaml"
PROBLEMS = FIXTURES / "problems"


@pytest.fixture
def runner():
    return CliRunner()


def snapshot(directory):
    """Each file under ``directory`` with its bytes and modification time."""
    return {path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in directory.rglob("*") if path.is_file()}


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

    def test_loading_a_cached_profile_makes_no_directory(self, tmp_path):
        shutil.copy(PROFILES, tmp_path / "profiles.yaml")
        _, cache, _ = load_backend_profile(tmp_path / "profiles.yaml", "remote")
        assert cache.directory == tmp_path / "response_cache"
        assert not cache.directory.exists()

    def test_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read profiles file"):
            load_backend_profile(tmp_path / "none.yaml", "scripted")
        with pytest.raises(ConfigError, match="no profile 'missing'"):
            load_backend_profile(PROFILES, "missing")
        path = write_profiles(tmp_path, {1: {"kind": "scripted"}, "a": {"kind": "scripted"}})
        with pytest.raises(ConfigError, match=r"available: \['1', 'a'\]"):
            load_backend_profile(path, "missing")
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

    def test_problem_not_utf8_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "cf-echo-101.yaml"
        path.write_bytes(b"\xff" + (PROBLEMS / "cf-echo-101.yaml").read_bytes())
        args = self.run_args("cf-echo-101", "Code")
        args[args.index("--problem") + 1] = str(path)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {path}: not UTF-8 at byte 0" in result.stderr

    def test_unknown_variant_is_usage_error(self, runner):
        result = runner.invoke(main, self.run_args("cf-echo-101", "Cod"))
        assert result.exit_code == 2
        assert "error:" in result.stderr
        assert "did you mean 'Code'" in result.stderr

    @pytest.mark.parametrize("limit", [["--wall-time", "-1"], ["--wall-time", "0"],
                                       ["--memory", "-5"], ["--memory", "0"],
                                       ["--max-rounds", "-3"], ["--max-rounds", "0"]])
    def test_limit_that_is_not_positive_is_usage_error(self, runner, tmp_path, limit):
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code", out=tmp_path / "one")
                               + limit)
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "one").exists()

    def test_out_dir_with_other_settings_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(eval_dir[0], run_dir)
        table = (run_dir / "results_table.txt").read_text(encoding="utf-8")
        files = snapshot(run_dir)
        result = runner.invoke(main, ["run", "--problem", str(PROBLEMS / "cf-echo-101.yaml"),
                                      "--variant", "Plan-Code", "--profiles", str(PROFILES),
                                      "--out", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert 'variants: ["Code", "Code_Reflection"] -> ["Plan-Code"]' in result.stderr
        assert "variant_settings.wall_time: 2.0 -> 10.0" in result.stderr
        assert snapshot(run_dir) == files
        result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        assert result.output == table

    @pytest.mark.parametrize("text", ["{torn", "[]"])
    def test_out_dir_with_corrupt_run_meta_is_usage_error(self, runner, tmp_path, text):
        (tmp_path / "one").mkdir()
        (tmp_path / "one" / "run_meta.json").write_text(text, encoding="utf-8")
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code", out=tmp_path / "one"))
        assert result.exit_code == 2, result.output
        assert f"cannot read {tmp_path / 'one' / 'run_meta.json'}" in result.stderr
        assert (tmp_path / "one" / "run_meta.json").read_text(encoding="utf-8") == text

    def test_out_dir_keeps_the_problems_it_holds(self, runner, tmp_path):
        for problem in ("cf-echo-101", "cf-pairsum-202"):
            runner.invoke(main, self.run_args(problem, "Code", out=tmp_path / "one"))
        meta = json.loads((tmp_path / "one" / "run_meta.json").read_text(encoding="utf-8"))
        assert sorted(meta["problems"]) == ["cf-echo-101", "cf-pairsum-202"]

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

    def test_run_meta_write_cut_short_keeps_the_old_file(self, runner, eval_dir, tmp_path,
                                                         monkeypatch):
        """A ``run_meta.json`` write that fails part-way, as on a full disk,
        leaves the old file whole: eval then resumes and report regenerates."""
        run_dir = tmp_path / "run"
        shutil.copytree(eval_dir[0], run_dir)
        meta = (run_dir / "run_meta.json").read_bytes()
        table = (run_dir / "results_table.txt").read_bytes()
        args = ["eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
                "--variants", "Code,Code_Reflection", "--profiles", str(PROFILES),
                "--out", str(run_dir), "--wall-time", "2.0"]

        class TornFile:
            """Writes half of what it is given, then fails."""
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return TornFile(fh) if "w" in mode else fh

        with monkeypatch.context() as patch:
            patch.setattr(io, "open", torn_open)
            result = runner.invoke(main, args)
        assert result.exit_code != 0
        assert (run_dir / "run_meta.json").read_bytes() == meta
        assert not list(run_dir.glob("*.tmp"))
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "2 records (0 new runs)" in result.output
        result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        assert (run_dir / "results_table.txt").read_bytes() == table

    @pytest.mark.parametrize("variants, message", [
        ("Code,Code", "error: variant 'Code' is listed more than once"),
        (",", "error: the variant list is empty"),
    ], ids=["repeated", "empty"])
    def test_repeated_or_empty_variants_are_usage_error(self, runner, tmp_path, variants,
                                                         message):
        out_dir = tmp_path / "run"
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--variants", variants,
            "--profiles", str(PROFILES), "--out", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert message in result.stderr
        assert not out_dir.exists()

    def test_bad_cutoff_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--profiles", str(PROFILES), "--out", str(tmp_path),
            "--cutoff", "whenever"])
        assert result.exit_code == 2
        assert "error:" in result.stderr

    # Each case writes its files under tmp_path and returns (dataset, profiles,
    # expected error). Each malformed file leaves a flow collection open, which
    # the parser finds at the end of the stream: line 3, column 1.
    def _malformed_problem(tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("id: bad\nsource: [codeforces\n", encoding="utf-8")
        return path, PROFILES, f"{path}: invalid YAML at line 3, column 1:"

    def _malformed_profiles(tmp_path):
        path = tmp_path / "profiles.yaml"
        path.write_text("profiles:\n  scripted: {kind: scripted\n", encoding="utf-8")
        return PROBLEMS / "cf-echo-101.yaml", path, f"{path}: invalid YAML at line 3, column 1:"

    def _malformed_rules(tmp_path):
        rules = tmp_path / "rules.yaml"
        rules.write_text("rules:\n- response: [unclosed\n", encoding="utf-8")
        profiles = write_profiles(tmp_path, {"scripted": {"kind": "scripted",
                                                          "rules_file": "rules.yaml"}})
        return PROBLEMS / "cf-echo-101.yaml", profiles, f"{rules}: invalid YAML at line 3, column 1:"

    def _missing_rules(tmp_path):
        profiles = write_profiles(tmp_path, {"scripted": {"kind": "scripted",
                                                          "rules_file": "absent.yaml"}})
        return (PROBLEMS / "cf-echo-101.yaml", profiles,
                f"cannot read rules file {tmp_path / 'absent.yaml'}:")

    def _problem_not_utf8(tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes((PROBLEMS / "cf-echo-101.yaml").read_bytes() + b"# caf\xe9\n")
        offset = (PROBLEMS / "cf-echo-101.yaml").stat().st_size + len(b"# caf")
        return path, PROFILES, f"{path}: not UTF-8 at byte {offset}"

    def _rules_not_a_map(tmp_path):
        rules = tmp_path / "rules.yaml"
        rules.write_text("other: 1\n", encoding="utf-8")
        profiles = write_profiles(tmp_path, {"scripted": {"kind": "scripted",
                                                          "rules_file": "rules.yaml"}})
        return (PROBLEMS / "cf-echo-101.yaml", profiles,
                f"rules file {rules} must be a map holding a 'rules' list")

    def _rule_without_response(tmp_path):
        rules = tmp_path / "rules.yaml"
        rules.write_text("rules:\n- response: fine\n- contains: [x]\n", encoding="utf-8")
        profiles = write_profiles(tmp_path, {"scripted": {"kind": "scripted",
                                                          "rules_file": "rules.yaml"}})
        return (PROBLEMS / "cf-echo-101.yaml", profiles,
                f"rules file {rules}: rule 1 needs a text 'response'")

    def _rule_with_bad_contains(tmp_path):
        rules = tmp_path / "rules.yaml"
        rules.write_text("rules:\n- response: hi\n  contains: 5\n", encoding="utf-8")
        profiles = write_profiles(tmp_path, {"scripted": {"kind": "scripted",
                                                          "rules_file": "rules.yaml"}})
        return (PROBLEMS / "cf-echo-101.yaml", profiles,
                f"rules file {rules}: rule 0 needs 'contains' to be a list of text")

    def _profiles_a_list(tmp_path):
        path = tmp_path / "profiles.yaml"
        path.write_text("- a\n- b\n", encoding="utf-8")
        return (PROBLEMS / "cf-echo-101.yaml", path,
                f"profiles file {path} must be a map holding a 'profiles' map")

    def _profile_not_a_map(tmp_path):
        path = write_profiles(tmp_path, {"scripted": ["kind", "scripted"]})
        return (PROBLEMS / "cf-echo-101.yaml", path,
                f"profile 'scripted' in {path} must be a map")

    @pytest.mark.parametrize("case", [_malformed_problem, _malformed_profiles,
                                      _malformed_rules, _missing_rules, _problem_not_utf8,
                                      _rules_not_a_map, _rule_without_response,
                                      _rule_with_bad_contains, _profiles_a_list,
                                      _profile_not_a_map],
                             ids=["problem", "profiles", "rules", "missing-rules",
                                  "problem-not-utf8", "rules-not-a-map", "rule-without-response",
                                  "rule-with-bad-contains", "profiles-a-list",
                                  "profile-not-a-map"])
    def test_malformed_or_missing_yaml_is_usage_error(self, runner, tmp_path, case):
        dataset, profiles, expected = case(tmp_path)
        result = runner.invoke(main, [
            "eval", "--dataset", str(dataset), "--variants", "Code",
            "--profiles", str(profiles), "--out", str(tmp_path / "run")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {expected}" in result.stderr

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

    # The seed may be 0; every other option here must be positive.
    @pytest.mark.parametrize("limit", [["--wall-time", "-1"], ["--wall-time", "0"],
                                       ["--memory", "-5"], ["--memory", "0"],
                                       ["--max-rounds", "-3"], ["--max-rounds", "0"],
                                       ["--workers", "-4"], ["--workers", "0"],
                                       ["--seed", "-1"]])
    def test_limit_that_is_not_positive_is_usage_error(self, runner, tmp_path, limit):
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--variants", "Code",
            "--profiles", str(PROFILES), "--out", str(tmp_path / "run"), *limit])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "run").exists()

    def test_resume_on_fewer_problems_keeps_their_records(self, runner, tmp_path):
        dataset = tmp_path / "problems"
        dataset.mkdir()
        for name in ("cf-echo-101", "cf-pairsum-202"):
            shutil.copy(PROBLEMS / f"{name}.yaml", dataset)

        def eval_on(path):
            return runner.invoke(main, [
                "eval", "--dataset", str(path), "--variants", "Code", "--profiles",
                str(PROFILES), "--out", str(tmp_path / "run"), "--wall-time", "2.0"])

        result = eval_on(dataset)
        assert result.exit_code == 0, result.output
        table = (tmp_path / "run" / "results_table.txt").read_text(encoding="utf-8")
        result = eval_on(dataset / "cf-echo-101.yaml")
        assert result.exit_code == 0, result.output
        assert "2 records (0 new runs)" in result.output
        result = runner.invoke(main, ["report", "--run-dir", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        assert result.output == table

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

    def test_run_meta_not_a_map_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(eval_dir[0], run_dir)
        (run_dir / "run_meta.json").write_text("[]", encoding="utf-8")
        result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert "does not hold a JSON object" in result.stderr
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "does not hold a JSON object" in result.stderr

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

    @staticmethod
    def _parent_gone(events):
        index = next(i for i, e in enumerate(events) if i > 1 and e.get("enc") == "delta")
        events[index]["body"]["message"]["parents"][0] = "m999999"
        return index

    # Format 2 has no "append" or "ref" encoding: such a line is refused like
    # any other unknown encoding.
    @staticmethod
    def _append_to_unknown_key(events):
        index = next(i for i, e in enumerate(events) if e.get("enc") == "conv")
        events[index].update(enc="append", body={"key": "nothing", "value": [1]})
        return index

    @staticmethod
    def _unknown_reference(events):
        index = next(i for i, e in enumerate(events) if i > 1 and e["kind"] == "message_in")
        events[index].update(enc="ref", body={"id": "m999999"})
        return index

    @staticmethod
    def _turns_beyond_conversation(events):
        index = next(i for i, e in enumerate(events) if e.get("enc") == "call")
        events[index]["body"]["request"]["keep"] = 99
        return index

    @pytest.mark.parametrize("damage", [_parent_gone, _append_to_unknown_key,
                                        _unknown_reference, _turns_beyond_conversation],
                             ids=["delta-parent-gone", "append-to-unknown-key",
                                  "unknown-reference", "keep-too-many"])
    def test_damaged_trace_is_usage_error(self, runner, eval_dir, tmp_path, damage):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code_Reflection" / "trace.log"
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        index = damage.__func__(events)
        path.write_text("\n".join([header] + [json.dumps(e) for e in events]) + "\n",
                        encoding="utf-8")
        result = replay(runner, run_dir, "Code_Reflection")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"trace file {path}, line {index + 2}: " in result.stderr

    @pytest.mark.parametrize("trace_format, key", [(2, "fingerprint"), (1, "fingerprint"),
                                                   (1, "payload"), (1, "created_by")])
    def test_trace_without_a_replayed_key_is_usage_error(self, runner, eval_dir, tmp_path,
                                                         trace_format, key):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code" / "trace.log"
        if trace_format == 1:
            header, events = '{"trace_format":1}', [asdict(event) for event in read_trace(path)]
        else:
            header, *lines = path.read_text(encoding="utf-8").splitlines()
            events = [json.loads(line) for line in lines]
        for event in events:
            if key == "fingerprint" and event["kind"] == "backend_response":
                del event["body"][key]
            elif key != "fingerprint" and event["kind"] == "message_in":
                del event["body"]["message"][key]
        path.write_text("\n".join([header] + [json.dumps(e) for e in events]) + "\n",
                        encoding="utf-8")
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"trace at {path} cannot be replayed: missing key '{key}'" in result.stderr

    def test_torn_last_line_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code_Reflection" / "trace.log"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:-30], encoding="utf-8")
        result = replay(runner, run_dir, "Code_Reflection")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"trace file {path}, line {text.count(chr(10))}: " in result.stderr

    def test_format_1_trace_replays_identical(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code_Reflection" / "trace.log"
        events = read_trace(path)
        lines = [canonical_json(asdict(event)) for event in events]
        path.write_text("\n".join(['{"trace_format":1}'] + lines) + "\n", encoding="utf-8")
        assert read_trace(path) == events
        result = replay(runner, run_dir, "Code_Reflection")
        assert result.exit_code == 0, result.output
        assert f"replay identical: {len(events)} events" in result.output

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

    @pytest.mark.parametrize("command", ["stats", "clear"])
    def test_missing_directory_is_usage_error(self, runner, tmp_path, command):
        path = tmp_path / "cahce"
        result = runner.invoke(main, ["cache", command, "--cache-dir", str(path)])
        assert result.exit_code == 2, result.output
        assert f"'{path}' does not exist" in result.stderr
        assert "entries:" not in result.output
        assert not path.exists()

    @pytest.mark.parametrize("command", ["stats", "clear"])
    def test_file_is_usage_error(self, runner, tmp_path, command):
        path = tmp_path / "cache"
        path.write_text("not a cache", encoding="utf-8")
        result = runner.invoke(main, ["cache", command, "--cache-dir", str(path)])
        assert result.exit_code == 2, result.output
        assert f"'{path}' is a file" in result.stderr
        assert path.read_text(encoding="utf-8") == "not a cache"
