import errno
import functools
import gzip
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from nestflow import evalharness, sandbox
from nestflow._pcg import Draws
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
from nestflow.evalharness import DEFAULT_RESAMPLES, write_report
from nestflow.trace import read_trace

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
PROFILES = FIXTURES / "profiles.yaml"
PROBLEMS = FIXTURES / "problems"
# Two cf-echo-101 pairs as format 2 wrote them, before format 3.
FORMAT_2_RUN = Path(__file__).resolve().parent / "format_2_run"
# Two cf-pairsum-202 pairs of a nine-variant run as format 3 wrote them, in
# plain trace.log files, before traces were written whole and compressed.
FORMAT_3_RUN = Path(__file__).resolve().parent / "format_3_run"


@pytest.fixture
def runner():
    return CliRunner()


def snapshot(directory):
    """Each file under ``directory`` with its bytes and modification time."""
    return {path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in directory.rglob("*") if path.is_file()}


def full_disk(monkeypatch, modes="wa"):
    """Make every file opened in one of ``modes`` fail as on a full disk."""
    real_open = io.open

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        if any(m in mode for m in modes):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", open_on_full_disk)


# What run and eval print when the judge cannot make its scratch directory.
FULL_SCRATCH = ("error: judge cannot set up its scratch directory: [Errno 28] "
                "No space left on device: '/tmp/nestflow-sandbox-x'\n")


def full_scratch(monkeypatch, tmp_path):
    """Make the judge's scratch directory fail as on a full ``/tmp``, with an
    empty verdict memo and runner pool, so that the next judgement starts a
    runner and needs one."""
    wrapper = tmp_path / "full_scratch_runner.py"
    wrapper.write_text(
        "import errno, os, runpy, tempfile\n"
        "def mkdtemp(*args, **kwargs):\n"
        "    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), '/tmp/nestflow-sandbox-x')\n"
        "tempfile.mkdtemp = mkdtemp\n"
        f"runpy.run_path({sandbox._RUNNER_SCRIPT!r}, run_name='__main__')\n")
    monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
    monkeypatch.setattr(sandbox, "_IDLE", [])
    monkeypatch.setattr(sandbox, "_RUNNER_SCRIPT", str(wrapper))


def trace_lines(path):
    """The lines of a trace file, compressed or not."""
    data = path.read_bytes()
    return (gzip.decompress(data) if path.suffix == ".gz" else data).decode("utf-8").splitlines()


def write_trace_lines(path, lines):
    """Write a trace file whole, compressed when its name ends in .gz."""
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(gzip.compress(data) if path.suffix == ".gz" else data)


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

    @pytest.mark.parametrize("field, value", [
        ("max_attempts", "lots"), ("max_attempts", 0), ("max_attempts", True),
        ("backoff_base", "0.5"), ("backoff_base", 0), ("request_timeout", -1.0),
        ("cache_dir", 5), ("model", ["m"]), ("responses", "abc"), ("responses", ["a", 1])])
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_mistyped_field_is_usage_error(self, runner, tmp_path, command, field, value):
        profile = {"kind": "remote", "endpoint": "https://x/v1", "api_key_env": "X_KEY"}
        if field == "responses":
            profile = {"kind": "scripted"}
        path = write_profiles(tmp_path, {"odd": {**profile, field: value}})
        args = (["run", "--problem", str(PROBLEMS / "cf-echo-101.yaml"), "--variant", "Code"]
                if command == "run" else
                ["eval", "--dataset", str(PROBLEMS), "--out", str(tmp_path / "run")])
        result = runner.invoke(main, args + ["--profiles", str(path), "--backend-profile", "odd"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: profile 'odd' in {path}: {field!r} must be " in result.stderr
        assert not (tmp_path / "run").exists()


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
        assert (tmp_path / "one" / "cf-echo-101" / "Code" / "trace.log.gz").exists()
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

    def test_unwritable_out_dir_is_environment_error(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "one"
        full_disk(monkeypatch)
        result = runner.invoke(main, self.run_args("cf-echo-101", "Code", out=out))
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (f"error: cannot write run directory {out}: "
                                 "[Errno 28] No space left on device\n")

    def test_full_scratch_directory_is_environment_error(self, runner, tmp_path, monkeypatch):
        full_scratch(monkeypatch, tmp_path)
        for extra in ({}, {"out": tmp_path / "one"}):
            result = runner.invoke(main, self.run_args("cf-echo-101", "Code", **extra))
            assert result.exit_code == 3, result.output
            assert isinstance(result.exception, SystemExit)
            assert result.stderr == FULL_SCRATCH
        assert not list(tmp_path.rglob("trace.log*"))

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


# Lines of records.jsonl that are not records: torn JSON, and whole JSON
# values that are not an object holding every required field.
CORRUPT_RECORD_LINES = ["{torn", "[1, 2]", '"x"', '{"a": 1}']


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

    @pytest.mark.parametrize("line", CORRUPT_RECORD_LINES)
    def test_corrupt_records_are_usage_error(self, runner, eval_dir, tmp_path, line):
        run_dir = tmp_path / "run"
        shutil.copytree(eval_dir[0], run_dir)
        path = run_dir / "records.jsonl"
        records = path.read_text(encoding="utf-8")
        path.write_text(line + "\n" + records, encoding="utf-8")
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--variants", "Code,Code_Reflection", "--profiles", str(PROFILES),
            "--out", str(run_dir), "--wall-time", "2.0"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert path.read_text(encoding="utf-8") == line + "\n" + records

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

    @pytest.mark.parametrize("modes", ["wa", "a"], ids=["every-write", "records"])
    def test_unwritable_run_dir_is_environment_error(self, runner, tmp_path, monkeypatch,
                                                     modes):
        run_dir = tmp_path / "run"
        full_disk(monkeypatch, modes)
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--variants", "Code",
            "--profiles", str(PROFILES), "--out", str(run_dir), "--wall-time", "2.0"])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (f"error: cannot write run directory {run_dir}: "
                                 "[Errno 28] No space left on device\n")
        assert not (run_dir / "records.jsonl").exists()

    def test_full_scratch_directory_is_environment_error(self, runner, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        full_scratch(monkeypatch, tmp_path)
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--variants", "Code",
            "--profiles", str(PROFILES), "--out", str(run_dir), "--wall-time", "2.0"])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == FULL_SCRATCH
        assert not (run_dir / "records.jsonl").exists()
        assert not list(run_dir.rglob("trace.log*"))

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
        assert not list((tmp_path / "run").rglob("trace.log*"))

    def test_backend_failure_is_environment_error(self, runner, tmp_path, monkeypatch,
                                                  unavailable_post):
        monkeypatch.setattr("nestflow.cli.RemoteBackend", functools.partial(
            RemoteBackend, post=unavailable_post, sleep=lambda _: None))
        profiles = write_profiles(tmp_path, {
            "api": {"kind": "remote", "endpoint": "https://localhost/v1",
                    "api_key_env": "STUB_API_KEY", "max_attempts": 3}})
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"),
            "--variants", "Code", "--profiles", str(profiles),
            "--backend-profile", "api", "--out", str(tmp_path / "run")])
        assert result.exit_code == 3, result.output
        assert "error: backend failed after 3 attempts: HTTP 503" in result.stderr
        assert unavailable_post.posts == 3
        assert not (tmp_path / "run" / "records.jsonl").exists()
        assert not list((tmp_path / "run").rglob("trace.log*"))

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


    @pytest.mark.parametrize("signum, code", [(signal.SIGTERM, 143), (signal.SIGINT, 130)],
                             ids=["SIGTERM", "SIGINT"])
    def test_interrupt_leaves_no_scratch_directory_and_resumes(self, runner, tmp_path, signum,
                                                               code):
        dataset = tmp_path / "problems"
        dataset.mkdir()
        for name in ("cf-echo-101", "lc-countdown-505"):  # the second one's program loops
            shutil.copy(PROBLEMS / f"{name}.yaml", dataset)
        args = ["eval", "--dataset", str(dataset), "--variants", "Code",
                "--profiles", str(PROFILES), "--wall-time", "1.0"]
        whole = runner.invoke(main, [*args, "--out", str(tmp_path / "whole")])
        assert whole.exit_code == 0, whole.output
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        src = str(Path(sandbox.__file__).resolve().parents[1])
        env = {**os.environ, "TMPDIR": str(scratch),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        evaluating = subprocess.Popen(
            [sys.executable, "-m", "nestflow.cli", *args, "--out", str(tmp_path / "cut")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        def judging_the_loop() -> bool:
            for path in scratch.glob("nestflow-sandbox-*/solution.py"):
                try:
                    if "while True" in path.read_text():
                        return True
                except FileNotFoundError:  # a judgement that just ended
                    pass
            return False

        deadline = time.monotonic() + 30
        while not judging_the_loop():
            assert time.monotonic() < deadline, "the looping program was never judged"
            time.sleep(0.05)
        evaluating.send_signal(signum)
        _, stderr = evaluating.communicate(timeout=60)
        assert evaluating.returncode == code, stderr
        assert stderr.endswith(f"error: interrupted by {signal.Signals(signum).name}\n")
        assert list(scratch.iterdir()) == []
        resumed = runner.invoke(main, [*args, "--out", str(tmp_path / "cut")])
        assert resumed.exit_code == 0, resumed.output
        for name in ("results_table.txt", "results_table.csv", "temporal_series.csv"):
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


GRID_ARGS = ["eval", "--dataset", str(PROBLEMS), "--profiles", str(PROFILES),
             "--workers", "2", "--wall-time", "1.0"]
REPORT_FILES = ("results_table.txt", "results_table.csv", "temporal_series.csv")
# Modules that no command may load: numpy and requests are no runtime
# dependencies, and OpenSSL comes with _hashlib or ssl.
UNLOADED = ("numpy", "numpy.random", "_hashlib", "requests", "ssl")
# Runs ``nestflow <args>`` and then writes which of UNLOADED it loaded to the
# file named by the first argument.
LOAD_CHECK = f"""\
import json, sys
from nestflow.cli import main
out = sys.argv.pop(1)
try:
    main.main(args=sys.argv[1:], prog_name="nestflow")
finally:
    with open(out, "w", encoding="utf-8") as fh:
        json.dump([name for name in {UNLOADED!r} if name in sys.modules], fh)
"""


def cli_env(tmpdir: Path) -> dict:
    src = str(Path(sandbox.__file__).resolve().parents[1])
    return {**os.environ, "TMPDIR": str(tmpdir),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def loaded_by(tmpdir: Path, *args: str) -> list[str]:
    """Run ``nestflow <args>`` in a fresh interpreter: the UNLOADED modules it loaded."""
    out = tmpdir / "loaded.json"
    done = subprocess.run([sys.executable, "-c", LOAD_CHECK, str(out), *args],
                          env=cli_env(tmpdir), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def runners_with(tmpdir: Path) -> list[int]:
    """The processes whose environment holds ``TMPDIR=<tmpdir>``."""
    entry = f"TMPDIR={tmpdir}".encode()
    pids = []
    for proc in Path("/proc").iterdir():
        try:
            if proc.name.isdigit() and entry in (proc / "environ").read_bytes().split(b"\0"):
                pids.append(int(proc.name))
        except OSError:  # gone, or not ours to read
            pass
    return pids


@pytest.fixture(scope="module")
def grid_process(tmp_path_factory):
    """The fixture grid evaluated, then reported, each by a command of its own:
    the run directory and the modules each command loaded."""
    root = tmp_path_factory.mktemp("grid-process")
    (root / "tmp").mkdir()
    run_dir = root / "run"
    loaded_by_eval = loaded_by(root / "tmp", *GRID_ARGS, "--out", str(run_dir))
    reports = {name: (run_dir / name).read_bytes() for name in REPORT_FILES}
    loaded_by_report = loaded_by(root / "tmp", "report", "--run-dir", str(run_dir))
    assert {name: (run_dir / name).read_bytes() for name in REPORT_FILES} == reports
    return run_dir, loaded_by_eval, loaded_by_report


class TestFixtureGridProcess:
    def test_eval_loads_no_numpy_nor_openssl(self, grid_process):
        assert grid_process[1] == []

    def test_report_loads_no_numpy_nor_openssl(self, grid_process):
        assert grid_process[2] == []

    def test_report_draws_each_size_once(self, grid_process, tmp_path, monkeypatch):
        """The table and every variant's windows share one draw per sample
        size, made only for sizes that have a sample of mixed outcomes."""
        run_dir = shutil.copytree(grid_process[0], tmp_path / "run")
        asked = []

        class CountedDraws(Draws):
            def integers(self, n, count):
                asked.append((n, count))
                return super().integers(n, count)

        monkeypatch.setattr(evalharness, "Draws", CountedDraws)
        write_report(run_dir)
        assert asked == [(2, 2 * DEFAULT_RESAMPLES)]
        for name in REPORT_FILES:
            assert (run_dir / name).read_bytes() == (grid_process[0] / name).read_bytes()

    def test_sigkill_then_resume(self, grid_process, tmp_path):
        """eval killed once its records file holds 27 of 54 lines."""
        sigkill_then_resume(grid_process[0], tmp_path, ["-m", "nestflow.cli"], 27)


def sigkill_then_resume(reference: Path, tmp_path: Path, command: list[str], lines: int) -> None:
    """Run ``python <command> eval`` on the fixture grid until its records file
    holds ``lines`` lines, then SIGKILL it if it still runs. No runner may
    outlive it, no scratch directory may be left after one wall time, and the
    resumed run must write ``reference``'s report files and replay all 54 pairs."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    run_dir = tmp_path / "run"
    args = [*GRID_ARGS, "--out", str(run_dir)]
    evaluating = subprocess.Popen([sys.executable, *command, *args], env=cli_env(scratch),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    records = run_dir / "records.jsonl"
    deadline = time.monotonic() + 120
    while True:
        ended = evaluating.poll() is not None  # before the count, which is then final
        if records.exists() and records.read_bytes().count(b"\n") >= lines:
            break
        assert not ended, f"eval ended before it wrote {lines} records"
        assert time.monotonic() < deadline, f"eval wrote fewer than {lines} records in 120 s"
        time.sleep(0.01)
    evaluating.kill()
    assert evaluating.wait(timeout=60) == -signal.SIGKILL
    deadline = time.monotonic() + 1.0  # one wall time
    while True:
        left = runners_with(scratch), sorted(p.name for p in scratch.glob("nestflow-sandbox-*"))
        if left == ([], []) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert left == ([], [])
    nestflow = [sys.executable, "-m", "nestflow.cli"]
    resumed = subprocess.run([*nestflow, *args], env=cli_env(scratch), capture_output=True,
                             text=True, timeout=300)
    assert resumed.returncode == 0, resumed.stderr
    for name in REPORT_FILES:
        assert (run_dir / name).read_bytes() == (reference / name).read_bytes(), name
    replayed = subprocess.run([*nestflow, "replay", "--run-dir", str(run_dir)],
                              env=cli_env(scratch), capture_output=True, text=True, timeout=300)
    assert replayed.returncode == 0, replayed.stdout + replayed.stderr
    assert replayed.stdout.splitlines()[-1] == "replay identical: 54 of 54 pairs"


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

    @pytest.mark.parametrize("field, value", [
        ("resamples", "x"), ("seed", "a"), ("problems", []), ("problems", {"cf-echo-101": "x"}),
        ("variants", "Code"), ("variant_settings", []),
        ("variant_settings.backend", 1), ("variant_settings.model", None),
        ("variant_settings.max_rounds", 4.0), ("variant_settings.wall_time", "x"),
        ("variant_settings.memory_bytes", "256"), ("variant_settings.interactive_plan", 0)])
    def test_mistyped_run_meta_field_is_usage_error(self, runner, tmp_path, field, value):
        """``field`` is a top-level field, or ``variant_settings.<setting>``."""
        run_dir = shutil.copytree(FORMAT_2_RUN, tmp_path / "run")
        meta = json.loads((run_dir / "run_meta.json").read_text(encoding="utf-8"))
        section, _, key = field.rpartition(".")
        (meta[section] if section else meta)[key] = value
        (run_dir / "run_meta.json").write_text(json.dumps(meta), encoding="utf-8")
        files = snapshot(run_dir)
        resume = ["eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--profiles",
                  str(PROFILES), "--wall-time", "1.0", "--out", str(run_dir)]
        for result in (runner.invoke(main, ["report", "--run-dir", str(run_dir)]),
                       runner.invoke(main, resume),
                       replay(runner, run_dir, "Code_Debug_Collab")):
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert "run directory is corrupt: cannot read " in result.stderr
            named = f"{section}: {key!r}" if section else repr(key)
            assert f"run_meta.json: {named} must be " in result.stderr
        assert snapshot(run_dir) == files

    @pytest.mark.parametrize("field, value", [
        ("problem_id", 101), ("variant", None), ("release_date", 20210510), ("trace_ref", []),
        ("solved", "false"), ("rounds_used", 1.0), ("wall_time", "0.003"), ("verdict", 0),
        ("error", False)])
    def test_mistyped_record_field_is_usage_error(self, runner, tmp_path, field, value):
        run_dir = shutil.copytree(FORMAT_2_RUN, tmp_path / "run")
        path = run_dir / "records.jsonl"
        first, second = path.read_text(encoding="utf-8").splitlines()
        mistyped = json.dumps({**json.loads(first), field: value})
        path.write_text(f"{mistyped}\n{second}\n", encoding="utf-8")
        files = snapshot(run_dir)
        resume = ["eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--profiles",
                  str(PROFILES), "--wall-time", "1.0", "--out", str(run_dir)]
        for result in (runner.invoke(main, ["report", "--run-dir", str(run_dir)]),
                       runner.invoke(main, resume),
                       runner.invoke(main, ["replay", "--run-dir", str(run_dir)])):
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert "error: run directory is corrupt: a record: " in result.stderr
            assert f"{field!r} must be " in result.stderr
        assert snapshot(run_dir) == files
        # The same line, last and without its newline, was torn: it is dropped.
        path.write_text(f"{second}\n{mistyped}", encoding="utf-8")
        result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output

    def test_corrupt_records_are_usage_error(self, runner, eval_dir, tmp_path):
        for index, line in enumerate(CORRUPT_RECORD_LINES):
            run_dir = tmp_path / str(index)
            shutil.copytree(eval_dir[0], run_dir)
            path = run_dir / "records.jsonl"
            path.write_text(line + "\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
            result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
            assert result.exit_code == 2, (line, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "error: run directory is corrupt" in result.stderr, line


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
        path = run_dir / "cf-echo-101" / "Code" / "trace.log.gz"
        write_trace_lines(path, ['{"trace_format":99}'] + trace_lines(path)[1:])
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "unsupported format version 99" in result.stderr

    @staticmethod
    def _parent_gone(events):
        index = next(i for i, e in enumerate(events) if i > 1 and e.get("enc") == "delta")
        events[index]["body"]["message"]["parents"][-1] = "m999999"
        return index

    # Format 3 has no "append" or "ref" encoding: such a line is refused like
    # any other unknown encoding.
    @staticmethod
    def _append_to_unknown_key(events):
        index = next(i for i, e in enumerate(events) if e["kind"] == "flow_end")
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

    @staticmethod
    def _response_without_call(events):
        index = next(i for i, e in enumerate(events) if e.get("enc") == "resp")
        events[index]["instance_id"] = "nobody#0"
        return index

    @pytest.mark.parametrize("damage", [_parent_gone, _append_to_unknown_key,
                                        _unknown_reference, _turns_beyond_conversation,
                                        _response_without_call],
                             ids=["delta-parent-gone", "append-to-unknown-key",
                                  "unknown-reference", "keep-too-many",
                                  "response-without-call"])
    def test_damaged_trace_is_usage_error(self, runner, tmp_path, damage):
        run_dir = shutil.copytree(FORMAT_3_RUN, tmp_path / "run")
        path = run_dir / "cf-pairsum-202" / "Code_Debug" / "trace.log"
        header, *lines = trace_lines(path)
        events = [json.loads(line) for line in lines]
        index = damage.__func__(events)
        write_trace_lines(path, [header] + [json.dumps(e) for e in events])
        result = replay(runner, run_dir, "Code_Debug", "cf-pairsum-202")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"trace file {path}, line {index + 2}: " in result.stderr

    @pytest.mark.parametrize("trace_format, key", [(4, "fingerprint"), (3, "fingerprint"),
                                                   (2, "fingerprint"), (1, "fingerprint"),
                                                   (1, "payload"), (1, "created_by")])
    def test_trace_without_a_replayed_key_is_usage_error(self, runner, eval_dir, tmp_path,
                                                         trace_format, key):
        problem_id = "cf-echo-101"
        if trace_format == 3:
            run_dir, problem_id, variant = (shutil.copytree(FORMAT_3_RUN, tmp_path / "run"),
                                            "cf-pairsum-202", "Code_Debug")
        elif trace_format == 2:
            run_dir, variant = shutil.copytree(FORMAT_2_RUN, tmp_path / "run"), "Code_Debug_Collab"
        else:
            run_dir, variant = self.copy_run(eval_dir, tmp_path), "Code"
        path = run_dir / problem_id / variant / ("trace.log.gz" if trace_format == 4
                                                 else "trace.log")
        if trace_format == 1:
            compressed = path.with_suffix(".log.gz")
            events = [asdict(event) for event in read_trace(compressed)]
            header = '{"trace_format":1}'
            compressed.unlink()
        else:
            header, *lines = trace_lines(path)
            events = [json.loads(line) for line in lines]
        for event in events:
            if key == "fingerprint" and event["kind"] == "backend_response":
                event.pop("enc", None)  # else format 3 takes the call's fingerprint
                event["body"].pop(key, None)
            elif key != "fingerprint" and event["kind"] == "message_in":
                del event["body"]["message"][key]
        write_trace_lines(path, [header] + [json.dumps(e) for e in events])
        result = replay(runner, run_dir, variant, problem_id)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"trace at {path} cannot be replayed: missing key '{key}'" in result.stderr

    def test_torn_last_line_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code_Reflection" / "trace.log.gz"
        text = "\n".join(trace_lines(path)) + "\n"
        path.write_bytes(gzip.compress(text[:-30].encode("utf-8")))
        result = replay(runner, run_dir, "Code_Reflection")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"trace file {path}, line {text.count(chr(10))}: " in result.stderr

    @staticmethod
    def _cut_short(data):
        # As a killed eval leaves it: no final block and no trailer.
        return data[:len(data) // 2]

    @staticmethod
    def _not_gzip(data):
        return data[:2] + b"not a gzip stream"

    @staticmethod
    def _invalid_block(data):
        # The first deflate block's type set to 3, which no block has.
        return data[:10] + bytes([data[10] | 0b110]) + data[11:]

    @staticmethod
    def _not_utf8(data):
        return gzip.compress(b"\xff\xfe" + gzip.decompress(data))

    @pytest.mark.parametrize("damage, detail", [
        (_cut_short, " is not a whole gzip stream: Error -5 while decompressing data"),
        (_not_gzip, " is not a whole gzip stream: "),
        (_invalid_block, " is not a whole gzip stream: Error -3 while decompressing data"),
        (_not_utf8, ": not UTF-8 at byte 0")], ids=["cut-short", "not-gzip", "invalid-block",
                                                      "not-utf8"])
    def test_unreadable_trace_names_its_file(self, runner, eval_dir, tmp_path, damage, detail):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code" / "trace.log.gz"
        path.write_bytes(damage.__func__(path.read_bytes()))
        for result in (replay(runner, run_dir, "Code"),
                       runner.invoke(main, ["replay", "--run-dir", str(run_dir)])):
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert f"trace file {path}{detail}" in result.stderr

    def test_format_1_trace_replays_identical(self, runner, eval_dir, tmp_path):
        # In a plain trace.log, as before traces were compressed.
        run_dir = self.copy_run(eval_dir, tmp_path)
        compressed = run_dir / "cf-echo-101" / "Code_Reflection" / "trace.log.gz"
        events = read_trace(compressed)
        compressed.unlink()
        path = compressed.with_suffix("")
        lines = [canonical_json(asdict(event)) for event in events]
        path.write_text("\n".join(['{"trace_format":1}'] + lines) + "\n", encoding="utf-8")
        assert read_trace(path) == events
        result = replay(runner, run_dir, "Code_Reflection")
        assert result.exit_code == 0, result.output
        assert f"replay identical: {len(events)} events" in result.output

    @pytest.mark.parametrize("variant", ["Code_Debug_Collab", "Plan_Collaboration-Code"])
    def test_format_2_trace_replays_identical(self, runner, tmp_path, variant):
        run_dir = shutil.copytree(FORMAT_2_RUN, tmp_path / "run")
        lines = (run_dir / "cf-echo-101" / variant / "trace.log").read_text(encoding="utf-8")
        events = [json.loads(line) for line in lines.splitlines()]
        assert events[0]["trace_format"] == 2
        result = replay(runner, run_dir, variant)
        assert result.exit_code == 0, result.output
        # Format 2's state_update lines repeat what the other events hold.
        kept = [e for e in events[1:] if e["kind"] != "state_update"]
        assert f"replay identical: {len(kept)} events" in result.output

    def test_format_2_run_resumes_under_its_settings(self, runner, tmp_path):
        # Its run_meta.json records temperature, max_tokens and issue_title at
        # the values that are constants now.
        run_dir = shutil.copytree(FORMAT_2_RUN, tmp_path / "run")
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--profiles", str(PROFILES),
            "--wall-time", "1.0", "--out", str(run_dir)])
        assert result.exit_code == 0, result.output
        assert "9 records (7 new runs)" in result.output

    def test_retired_setting_with_another_value_is_usage_error(self, runner, tmp_path):
        run_dir = shutil.copytree(FORMAT_2_RUN, tmp_path / "run")
        self.set_variant_settings(run_dir, temperature=0.7)
        files = snapshot(run_dir)
        result = replay(runner, run_dir, "Code_Debug_Collab")
        assert result.exit_code == 2, result.output
        assert "unknown variant settings: ['temperature']" in result.stderr
        result = runner.invoke(main, [
            "eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--profiles", str(PROFILES),
            "--wall-time", "1.0", "--out", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith("variant_settings.temperature: 0.7 -> null\n")
        assert snapshot(run_dir) == files

    def test_format_2_encodings_are_covered(self):
        encodings = {json.loads(line).get("enc")
                     for path in FORMAT_2_RUN.glob("cf-echo-101/*/trace.log")
                     for line in path.read_text(encoding="utf-8").splitlines()[1:]}
        assert encodings == {None, "message", "delta", "call", "conv"}

    @pytest.mark.parametrize("variant", ["Code_Debug", "Plan_Reflection-Code"])
    def test_format_3_trace_replays_identical(self, runner, tmp_path, variant):
        run_dir = shutil.copytree(FORMAT_3_RUN, tmp_path / "run")
        lines = (run_dir / "cf-pairsum-202" / variant / "trace.log").read_text(encoding="utf-8")
        events = [json.loads(line) for line in lines.splitlines()]
        assert events[0]["trace_format"] == 3
        result = replay(runner, run_dir, variant, "cf-pairsum-202")
        assert result.exit_code == 0, result.output
        assert f"replay identical: {len(events) - 1} events" in result.output

    def test_format_3_encodings_are_covered(self):
        for path in FORMAT_3_RUN.glob("cf-pairsum-202/*/trace.log"):
            assert json.loads(path.read_text(encoding="utf-8").splitlines()[0])["trace_format"] == 3
        encodings = {json.loads(line).get("enc")
                     for path in FORMAT_3_RUN.glob("cf-pairsum-202/*/trace.log")
                     for line in path.read_text(encoding="utf-8").splitlines()[1:]}
        assert encodings == {None, "message", "delta", "call", "resp"}
        assert any('"del":' in path.read_text(encoding="utf-8")
                   for path in FORMAT_3_RUN.glob("cf-pairsum-202/*/trace.log"))

    def test_resumed_format_3_run_reports_and_replays(self, runner, tmp_path):
        # Its two plain trace.log pairs stay; the seven it runs are compressed.
        run_dir = shutil.copytree(FORMAT_3_RUN, tmp_path / "run")
        args = ["eval", "--dataset", str(PROBLEMS / "cf-pairsum-202.yaml"),
                "--profiles", str(PROFILES), "--wall-time", "1.0", "--out"]
        result = runner.invoke(main, args + [str(run_dir)])
        assert result.exit_code == 0, result.output
        assert "9 records (7 new runs)" in result.output
        assert len(list(run_dir.glob("*/*/trace.log"))) == 2
        assert len(list(run_dir.glob("*/*/trace.log.gz"))) == 7
        fresh = tmp_path / "fresh"
        assert runner.invoke(main, args + [str(fresh)]).exit_code == 0
        for name in ("results_table.txt", "results_table.csv", "temporal_series.csv"):
            assert (run_dir / name).read_bytes() == (fresh / name).read_bytes(), name
        result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        assert result.output == "replay identical: 9 of 9 pairs\n"

    def test_cache_failures_replay_identical(self, runner, tmp_path):
        (tmp_path / "cache").write_text("a regular file, not a directory\n", encoding="utf-8")
        profiles = write_profiles(tmp_path, {"broken": {
            "kind": "scripted", "model": "scripted", "cache_dir": "cache",
            "rules_file": str(FIXTURES / "scripted_responses.yaml")}})
        self.eval_echo(runner, profiles, "broken", tmp_path / "run", "Code")
        events = read_trace(tmp_path / "run" / "cf-echo-101" / "Code" / "trace.log.gz")
        assert "warning" in [e.kind for e in events]
        result = replay(runner, tmp_path / "run", "Code")
        assert result.exit_code == 0, result.output
        assert "replay identical:" in result.output

    def test_trace_without_input_message_is_usage_error(self, runner, eval_dir, tmp_path):
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code" / "trace.log.gz"
        write_trace_lines(path, trace_lines(path)[:1])
        result = replay(runner, run_dir, "Code")
        assert result.exit_code == 2, result.output
        assert "has no input message" in result.stderr

    def test_unknown_variant_setting_is_usage_error(self, runner, eval_dir, tmp_path):
        # language_tag="python" is in run directories from when the judge had a
        # language setting.
        for name, value in (("sandbox", "docker"), ("language_tag", "python")):
            run_dir = self.copy_run(eval_dir, tmp_path / name)
            self.set_variant_settings(run_dir, **{name: value})
            result = replay(runner, run_dir, "Code")
            assert result.exit_code == 2, result.output
            assert f"unknown variant settings: ['{name}']" in result.stderr

    def test_cache_served_pairs_replay_identical(self, runner, tmp_path):
        profiles = write_profiles(tmp_path, {"cached": {
            "kind": "scripted", "model": "scripted", "cache_dir": "cache",
            "rules_file": str(FIXTURES / "scripted_responses.yaml")}})
        for out in ("cold", "warm"):
            self.eval_echo(runner, profiles, "cached", tmp_path / out, "Code,Code_Collaboration")
        for variant in ("Code", "Code_Collaboration"):
            trace = trace_lines(tmp_path / "warm" / "cf-echo-101" / variant / "trace.log.gz")
            assert any('"cached":true' in line for line in trace)
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

    def altered(self, eval_dir, tmp_path):
        """A copy of the run whose Code_Reflection trace has one altered response."""
        run_dir = self.copy_run(eval_dir, tmp_path)
        path = run_dir / "cf-echo-101" / "Code_Reflection" / "trace.log.gz"
        lines = trace_lines(path)
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event.get("kind") == "backend_response":
                event["body"]["response"] += "\n(altered)"
                lines[i] = json.dumps(event)
                break
        write_trace_lines(path, lines)
        return run_dir

    def test_altered_response_diverges(self, runner, eval_dir, tmp_path):
        result = replay(runner, self.altered(eval_dir, tmp_path), "Code_Reflection")
        assert result.exit_code == 1, result.output
        assert "replay diverged" in result.output

    def test_every_pair_replays(self, runner, eval_dir, tmp_path):
        result = runner.invoke(main, ["replay", "--run-dir", str(eval_dir[0])])
        assert result.exit_code == 0, result.output
        assert result.output == "replay identical: 2 of 2 pairs\n"
        result = runner.invoke(main, ["replay", "--run-dir", str(self.altered(eval_dir, tmp_path))])
        assert result.exit_code == 1, result.output
        first, last = result.output.splitlines()
        assert first.startswith("cf-echo-101 Code_Reflection: replay diverged at event ")
        assert last == "replay identical: 1 of 2 pairs"

    @pytest.mark.parametrize("option", ["--problem-id", "--variant"])
    def test_half_a_pair_is_usage_error(self, runner, eval_dir, option):
        result = runner.invoke(main, ["replay", "--run-dir", str(eval_dir[0]), option, "Code"])
        assert result.exit_code == 2, result.output
        assert "--problem-id and --variant go together" in result.stderr

    @pytest.mark.parametrize("damage, message", [
        (lambda run_dir: (run_dir / "records.jsonl").write_text("[1]\n", encoding="utf-8"),
         "run directory is corrupt: a record must be a JSON object"),
        (lambda run_dir: (run_dir / "records.jsonl").unlink(), "no records to replay in "),
        (lambda run_dir: (run_dir / "cf-echo-101" / "Code" / "trace.log.gz").unlink(),
         "no trace at "),
    ], ids=["corrupt-records", "no-records", "missing-trace"])
    def test_every_pair_replay_of_unreadable_dir_is_usage_error(self, runner, eval_dir, tmp_path,
                                                                 damage, message):
        run_dir = self.copy_run(eval_dir, tmp_path)
        damage(run_dir)
        result = runner.invoke(main, ["replay", "--run-dir", str(run_dir)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr


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

    def test_clear_tries_every_entry(self, runner, tmp_path):
        cache_dir = tmp_path / "cache"
        (cache_dir / "0000.resp").mkdir(parents=True)  # a directory: unlink fails
        ResponseCache(cache_dir).put("ffff", "reply")
        result = runner.invoke(main, ["cache", "clear", "--cache-dir", str(cache_dir)])
        assert result.exit_code == 3, result.output
        assert (f"error: cannot write cache directory {cache_dir}: removed 1 of 2 entries; "
                f"the first that failed: [Errno 21] Is a directory: '{cache_dir / '0000.resp'}'"
                ) in result.stderr
        assert sorted(p.name for p in cache_dir.iterdir()) == ["0000.resp"]

    def test_stats_counts_an_entry_that_is_a_dangling_symlink(self, runner, tmp_path):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "0123.resp").symlink_to(tmp_path / "nowhere")
        result = runner.invoke(main, ["cache", "stats", "--cache-dir", str(tmp_path / "cache")])
        assert result.exit_code == 0, result.output
        assert "entries: 1" in result.output

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


# One row per (command, fault): a function of a temporary directory and the
# module's eval run directory that makes the fault and returns the command's
# arguments, its exit code and what its one error line must hold. Faults are
# made with directories and dangling symlinks, not permissions, since the
# tests may run as root.
def _problem_file_is_a_directory(tmp_path, run_dir, out=False):
    problem = tmp_path / "cf-echo-101.yaml"
    problem.mkdir()
    return (["run", "--problem", str(problem), "--variant", "Code", "--profiles", str(PROFILES),
             *(["--out", str(tmp_path / "out")] if out else [])],
            2, f"error: cannot read problem file {problem}: [Errno 21] Is a directory")


def _dataset_holds_a_dangling_symlink(tmp_path, run_dir):
    dataset = tmp_path / "problems"
    dataset.mkdir()
    shutil.copy(PROBLEMS / "cf-echo-101.yaml", dataset)
    (dataset / "gone.yaml").symlink_to(tmp_path / "nowhere.yaml")
    return (["eval", "--dataset", str(dataset), "--variants", "Code", "--profiles", str(PROFILES),
             "--out", str(tmp_path / "out")],
            2, f"error: cannot read problem file {dataset / 'gone.yaml'}: [Errno 2]")


def _records_file_is_a_directory(tmp_path, run_dir, command):
    run_dir = shutil.copytree(run_dir, tmp_path / "run")
    (run_dir / "records.jsonl").unlink()
    (run_dir / "records.jsonl").mkdir()
    args = {"report": ["report", "--run-dir", str(run_dir)],
            "replay": ["replay", "--run-dir", str(run_dir)],
            "eval": ["eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--variants",
                     "Code,Code_Reflection", "--profiles", str(PROFILES), "--out", str(run_dir),
                     "--wall-time", "2.0"]}[command]
    return (args, 2, f"error: run directory is corrupt: cannot read {run_dir / 'records.jsonl'}: "
                     "[Errno 21] Is a directory")


def _report_file_is_a_directory(tmp_path, run_dir):
    run_dir = shutil.copytree(run_dir, tmp_path / "run")
    (run_dir / "results_table.csv").unlink()
    (run_dir / "results_table.csv").mkdir()
    return (["report", "--run-dir", str(run_dir)],
            3, f"error: cannot write run directory {run_dir}: [Errno 21] Is a directory")


def _cache_entry_is_a_directory(tmp_path, run_dir):
    (tmp_path / "cache" / "0123.resp").mkdir(parents=True)
    return (["cache", "clear", "--cache-dir", str(tmp_path / "cache")],
            3, f"error: cannot write cache directory {tmp_path / 'cache'}: removed 0 of 1 entries; "
               "the first that failed: [Errno 21] Is a directory")


def _run_out_holds_other_settings(tmp_path, run_dir):
    """``run --out`` into a run directory recorded with other variants: the
    hint names what ``run`` can do, since it has no --no-resume."""
    run_dir = shutil.copytree(run_dir, tmp_path / "run")
    return (["run", "--problem", str(PROBLEMS / "cf-echo-101.yaml"), "--variant", "Code_Debug",
             "--profiles", str(PROFILES), "--out", str(run_dir), "--wall-time", "2.0"],
            2, f"error: cannot resume {run_dir} with other settings (run with another --out "
               'starts over): variants: ["Code", "Code_Reflection"] -> ["Code_Debug"]')


def _bad_cutoff(tmp_path, run_dir):
    return (["eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--profiles", str(PROFILES),
             "--out", str(tmp_path / "out"), "--cutoff", "whenever"],
            2, "error: --cutoff must be a date as YYYY-MM-DD, got 'whenever'")


def _garbled_chat_reply(tmp_path, run_dir):
    """Every reply is HTTP 200 with a body that is not a chat completion."""
    profiles = write_profiles(tmp_path, {
        "api": {"kind": "remote", "endpoint": "https://localhost/v1",
                "api_key_env": "STUB_API_KEY", "max_attempts": 2}})
    return (["eval", "--dataset", str(PROBLEMS / "cf-echo-101.yaml"), "--variants", "Code",
             "--profiles", str(profiles), "--backend-profile", "api", "--out", str(tmp_path / "out")],
            3, "error: backend failed after 2 attempts: HTTP 200 is not a chat completion: "
               "'unavailable'")


@pytest.mark.parametrize("fault", [
    _problem_file_is_a_directory,
    functools.partial(_problem_file_is_a_directory, out=True),
    _dataset_holds_a_dangling_symlink,
    functools.partial(_records_file_is_a_directory, command="report"),
    functools.partial(_records_file_is_a_directory, command="replay"),
    functools.partial(_records_file_is_a_directory, command="eval"),
    _report_file_is_a_directory,
    _cache_entry_is_a_directory,
    _run_out_holds_other_settings,
    _bad_cutoff,
    _garbled_chat_reply,
], ids=["run-problem-unreadable", "run-out-problem-unreadable", "eval-problem-unreadable",
        "report-records-unreadable", "replay-records-unreadable", "eval-resume-records-unreadable",
        "report-file-unwritable", "cache-clear-entry-undeletable", "run-out-other-settings",
        "eval-bad-cutoff", "eval-garbled-chat-reply"])
def test_fault_exits_with_its_code_and_one_error_line(runner, eval_dir, tmp_path, monkeypatch,
                                                      unavailable_post, fault):
    """Read faults of inputs exit 2 naming the file or option, write faults
    and environment errors exit 3, each with one ``error:`` line on stderr
    and no traceback."""
    unavailable_post.status = 200
    monkeypatch.setattr("nestflow.cli.RemoteBackend", functools.partial(
        RemoteBackend, post=unavailable_post, sleep=lambda _: None))
    args, code, message = fault(tmp_path, eval_dir[0])
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == code, result.output
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(message), result.stderr
    assert "Traceback" not in result.output
    if code == 2:  # refused before anything was written
        assert not (tmp_path / "out").exists()
