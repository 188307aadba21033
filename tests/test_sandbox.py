import builtins
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestflow import sandbox
from nestflow.core import create_flow, package_input, run
from nestflow.errors import FlowError, SandboxEnvironmentError
from nestflow.sandbox import (
    DEFAULT_ISSUE_TITLE,
    ExecutionLimits,
    Failure,
    Verdict,
    compare_output,
    format_report,
    run_tests,
)
from nestflow.sandbox import TestCase as IOCase
from nestflow.sandbox import TestReport as IOReport

FAST = ExecutionLimits(wall_time=2.0)


class TestCompareOutput:
    def test_trailing_newline_ignored(self):
        assert compare_output("YES\n", "YES")

    def test_line_endings_and_trailing_blanks_normalized(self):
        assert compare_output("1 2\n3\n", "1 2 \n3\n\n")

    def test_different_text_differs(self):
        assert not compare_output("YES", "NO")

    def test_interior_whitespace_matters(self):
        assert not compare_output("1 2", "12")
        assert not compare_output("a\nb", "a b")

    @given(st.text(alphabet="ab \n", max_size=30))
    def test_reflexive_and_blank_padding_invariant(self, text):
        assert compare_output(text, text)
        assert compare_output(text, text + "\n\n")


class TestRunTests:
    def test_all_passed(self):
        report = run_tests("print(int(input()) * 2)",
                           [IOCase("3\n", "6\n"), IOCase("5\n", "10\n")], limits=FAST)
        assert report.verdict == Verdict.ALL_PASSED
        assert report.failures == []
        assert "All of the executed tests passed." in report.summary

    def test_compilation_error_reported_before_tests(self):
        report = run_tests("def broken(:\n    pass", [IOCase("1\n", "1\n")], limits=FAST)
        assert report.verdict == Verdict.COMPILATION_ERROR
        assert report.failures[0].index == 0
        assert "SyntaxError" in report.failures[0].actual

    def test_wrong_answers_accumulate(self):
        report = run_tests(
            "print(int(input()) * 2)",
            [IOCase("1\n", "2\n"), IOCase("2\n", "5\n"), IOCase("3\n", "7\n")],
            limits=FAST)
        assert report.verdict == Verdict.WRONG_ANSWER
        assert [f.index for f in report.failures] == [2, 3]
        assert report.failures[0].expected == "5"
        assert report.failures[0].actual == "4"

    def test_runtime_error_stops_at_first_failure(self):
        program = (
            "n = int(input())\n"
            "if n == 0:\n"
            "    raise SystemExit('boom')\n"
            "print(n)\n"
        )
        report = run_tests(program,
                           [IOCase("1\n", "1\n"), IOCase("0\n", "0\n"),
                            IOCase("2\n", "2\n")], limits=FAST)
        assert report.verdict == Verdict.RUNTIME_ERROR
        assert [f.index for f in report.failures] == [2]
        assert "boom" in report.failures[0].actual

    def test_traceback_is_stable_across_runs(self):
        program = "n = int(input())\nprint(1 // n)\n"
        # A distinct trailing comment per run keeps the memo from answering.
        first, second = (run_tests(program + f"# run {i}\n", [IOCase("0\n", "0\n")],
                                   limits=FAST)
                         for i in range(2))
        assert first.verdict == Verdict.RUNTIME_ERROR
        assert 'File "solution.py", line 2' in first.summary
        assert first.summary.encode() == second.summary.encode()

    def test_timeout_stops_at_first_slow_test(self):
        program = (
            "import time\n"
            "n = int(input())\n"
            "if n == 2:\n"
            "    time.sleep(10)\n"
            "print(n)\n"
        )
        report = run_tests(program,
                           [IOCase("1\n", "1\n"), IOCase("2\n", "2\n"),
                            IOCase("3\n", "3\n")],
                           limits=ExecutionLimits(wall_time=0.5))
        assert report.verdict == Verdict.TIMEOUT
        assert [f.index for f in report.failures] == [2]
        assert "timed out" in report.summary

    def test_memory_limit_turns_into_runtime_error(self):
        report = run_tests("data = bytearray(1024 ** 3)\nprint('ok')\n",
                           [IOCase("", "ok\n")],
                           limits=ExecutionLimits(wall_time=5.0))
        assert report.verdict == Verdict.RUNTIME_ERROR
        assert "MemoryError" in report.failures[0].actual

    def test_missing_interpreter_is_environment_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
        with pytest.raises(SandboxEnvironmentError, match="failed to spawn interpreter"):
            run_tests("print(1)", [IOCase("", "1\n")], limits=FAST)

    def test_verdict_all_passed_iff_no_failures(self):
        passing = run_tests("print(input())", [IOCase("a\n", "a\n")], limits=FAST)
        failing = run_tests("print('x')", [IOCase("a\n", "a\n")], limits=FAST)
        assert (passing.verdict == Verdict.ALL_PASSED) == (passing.failures == [])
        assert (failing.verdict == Verdict.ALL_PASSED) == (failing.failures == [])


# Programs the syntax check must judge as the interpreter's own
# `python -m py_compile` does, message included.
COMPILE_CASES = {
    "valid": "print(1)\n",
    "unterminated_string": 'x = "abc\n',
    "indentation_error": "x = 1\n    y = 2\n",
    "return_outside_function": "x = 1\nreturn x\n",
    "bad_coding_line": "# -*- coding: no-such-codec -*-\nprint(1)\n",
    "null_byte": "print(1)\x00\n",
    "nested_brackets": "[" * 100_000 + "\n",
    "unary_minus": "x = " + "-" * 100_000 + "1\n",
    "not_chain": "x = " + "not " * 50_000 + "True\n",
    "plus_chain": "x = " + "+".join(["1"] * 200_000) + "\n",
    "nested_ifs": "".join("    " * depth + "if x:\n" for depth in range(100))
                  + "    " * 100 + "pass\n",
}


def spawn_compile(program: str) -> tuple[Verdict, str | None]:
    """The oracle: what a `python -m py_compile` process says about a program."""
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, "solution.py").write_text(program, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "py_compile", "solution.py"],
                              cwd=scratch, capture_output=True, timeout=60)
    if done.returncode == 0:
        return Verdict.ALL_PASSED, None
    return Verdict.COMPILATION_ERROR, done.stderr.decode(errors="replace").strip()


def judge_compile(program: str) -> tuple[Verdict, str | None]:
    report = run_tests(program, [], limits=FAST)
    return report.verdict, report.failures[0].actual if report.failures else None


class TestCompileCheck:
    @pytest.mark.parametrize("name", sorted(COMPILE_CASES))
    def test_matches_py_compile_process(self, name):
        program = COMPILE_CASES[name]
        expected = spawn_compile(program)
        assert judge_compile(program) == expected
        # A trailing comment after the error line changes no message, and
        # makes each thread's judgement its own memo key.
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(judge_compile, [program + f"# {i}\n" for i in range(2)])) \
                == [expected] * 2

    def test_compile_warnings_stay_quiet(self, capfd, monkeypatch):
        warns = 'x = 1 is 1\nassert (1, "m")\nprint("ok")\n'
        compiled = []

        def slow_compile(*args, **kwargs):
            compiled.append(args[1])
            time.sleep(0.002)  # lets other judging threads run mid-compile
            return builtins.compile(*args, **kwargs)

        monkeypatch.setattr(sandbox, "compile", slow_compile, raising=False)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            with ThreadPoolExecutor(max_workers=2) as pool:
                reports = list(pool.map(lambda program: run_tests(
                    program, [IOCase("", "ok\n")], limits=FAST),
                    [warns + f"# {i}\n" for i in range(2)]))
            # Interleaved catch_warnings blocks would leave a filter behind.
            with ThreadPoolExecutor(max_workers=8) as pool:
                checked = set(pool.map(judge_compile,
                                       [warns + f"# {i}\n" for i in range(2, 66)]))
            assert len(compiled) == 66  # each program compiled, none served by the memo
            assert warnings.filters == filters
            # Unlike the py_compile process, the report leaves the warning out.
            verdict, message = judge_compile("x = 1 is 1\nreturn x\n")
        assert [r.verdict for r in reports] == [Verdict.ALL_PASSED] * 2
        assert checked == {(Verdict.ALL_PASSED, None)}
        assert verdict == Verdict.COMPILATION_ERROR
        assert message.startswith('File "solution.py", line 2\n')
        assert shown == []
        assert capfd.readouterr().err == ""

    def test_scratch_holds_only_the_program(self, monkeypatch):
        left = []

        class Recording(tempfile.TemporaryDirectory):
            def cleanup(self):
                left.append(sorted(os.listdir(self.name)))
                super().cleanup()

        monkeypatch.setattr(sandbox.tempfile, "TemporaryDirectory", Recording)
        monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
        run_tests("print(input())\n", [IOCase("a\n", "a\n")], limits=FAST)
        run_tests("def broken(:\n", [], limits=FAST)
        assert left == [["solution.py"], ["solution.py"]]


class Work:
    """What run_tests started, one log entry per spawn or compile.

    A spawn waits ``delay`` seconds first, then raises ``error`` if set.
    """

    def __init__(self):
        self.log = []
        self.delay = 0.0
        self.error = None


@pytest.fixture
def work(monkeypatch):
    """An empty memo, with every interpreter spawn and compile counted."""
    monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
    work = Work()
    spawn = subprocess.run

    def counted_run(*args, **kwargs):
        work.log.append("spawn")
        time.sleep(work.delay)
        if work.error is not None:
            raise work.error
        return spawn(*args, **kwargs)

    def counted_compile(*args, **kwargs):
        work.log.append("compile")
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(sandbox.subprocess, "run", counted_run)
    monkeypatch.setattr(sandbox, "compile", counted_compile, raising=False)
    return work


MEMO_TESTS = [IOCase("1\n", "2\n"), IOCase("2\n", "3\n")]
MEMO_LIMITS = ExecutionLimits(wall_time=0.5)
VERDICT_PROGRAMS = {
    Verdict.ALL_PASSED: "print(int(input()) + 1)\n",
    Verdict.COMPILATION_ERROR: "def broken(:\n",
    Verdict.TIMEOUT: "import time\ntime.sleep(10)\n",
    Verdict.RUNTIME_ERROR: "raise SystemExit('memo')\n",
    Verdict.WRONG_ANSWER: "print(0)\n",
}


def judge_together(callers: int, call):
    """Run ``call`` from several threads released at once; returns what each got."""
    start = threading.Barrier(callers)

    def one(_):
        start.wait(timeout=10)
        try:
            return call()
        except SandboxEnvironmentError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=callers) as pool:
        return list(pool.map(one, range(callers), timeout=60))


class TestVerdictMemo:
    @pytest.mark.parametrize("verdict", list(VERDICT_PROGRAMS), ids=lambda v: v.value)
    def test_repeat_call_starts_nothing(self, work, verdict):
        first = run_tests(VERDICT_PROGRAMS[verdict], MEMO_TESTS, limits=MEMO_LIMITS)
        assert first.verdict == verdict
        started = list(work.log)
        assert started
        second = run_tests(VERDICT_PROGRAMS[verdict], MEMO_TESTS, limits=MEMO_LIMITS)
        assert work.log == started
        assert second == first

    def test_any_change_to_the_key_misses(self, work, monkeypatch):
        program = VERDICT_PROGRAMS[Verdict.ALL_PASSED]
        run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS)
        folder, name = os.path.split(sys.executable)
        changes = {
            "program": (program + "# changed\n", MEMO_TESTS, MEMO_LIMITS),
            "input": (program, [MEMO_TESTS[0], IOCase("3\n", "3\n")], MEMO_LIMITS),
            "expected output": (program, [MEMO_TESTS[0], IOCase("2\n", "4\n")], MEMO_LIMITS),
            "test order": (program, MEMO_TESTS[::-1], MEMO_LIMITS),
            "fewer tests": (program, MEMO_TESTS[:1], MEMO_LIMITS),
            "wall time": (program, MEMO_TESTS, ExecutionLimits(wall_time=0.75)),
            "memory": (program, MEMO_TESTS,
                       ExecutionLimits(wall_time=0.5, memory_bytes=512 * 1024 * 1024)),
        }
        for what, (changed, tests, limits) in changes.items():
            before = len(work.log)
            run_tests(changed, tests, limits=limits)
            assert len(work.log) > before, what
        for attribute, value in (("executable", os.path.join(folder, ".", name)),
                                 ("version", sys.version + " (other build)")):
            with monkeypatch.context() as patch:
                patch.setattr(sys, attribute, value)
                before = len(work.log)
                assert run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS).verdict \
                    == Verdict.ALL_PASSED
                assert len(work.log) > before, attribute
        before = len(work.log)
        run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS)
        assert len(work.log) == before

    def test_concurrent_callers_share_one_judgement(self, work):
        work.delay = 0.3  # the first caller is still judging when the others ask
        reports = judge_together(4, lambda: run_tests(
            VERDICT_PROGRAMS[Verdict.ALL_PASSED], MEMO_TESTS[:1], limits=MEMO_LIMITS))
        assert work.log == ["compile", "spawn"]
        assert [r.verdict for r in reports] == [Verdict.ALL_PASSED] * 4
        assert all(r == reports[0] for r in reports)

    def test_environment_error_reaches_every_caller_and_is_not_kept(self, work):
        work.delay, work.error = 0.3, OSError("no interpreter here")
        call = lambda: run_tests(VERDICT_PROGRAMS[Verdict.ALL_PASSED], MEMO_TESTS[:1],
                                 limits=MEMO_LIMITS)
        errors = judge_together(4, call)
        assert all(isinstance(e, SandboxEnvironmentError) for e in errors), errors
        assert work.log == ["compile", "spawn"]
        work.delay, work.error = 0.0, None
        assert call().verdict == Verdict.ALL_PASSED
        assert work.log == ["compile", "spawn"] * 2

    def test_changing_a_report_leaves_the_memo_alone(self, work):
        program = VERDICT_PROGRAMS[Verdict.WRONG_ANSWER]
        first = run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS)
        kept, summary = list(first.failures), first.summary
        assert len(kept) == 2
        first.failures.clear()
        first.verdict, first.summary = Verdict.ALL_PASSED, ""
        second = run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS)
        assert (second.verdict, second.failures, second.summary) \
            == (Verdict.WRONG_ANSWER, kept, summary)
        second.failures.append(Failure(9, "", "", ""))
        assert run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS).failures == kept
        passed = VERDICT_PROGRAMS[Verdict.ALL_PASSED]
        run_tests(passed, MEMO_TESTS, limits=MEMO_LIMITS).failures.append(kept[0])
        assert run_tests(passed, MEMO_TESTS, limits=MEMO_LIMITS).failures == []
        assert work.log.count("spawn") == 4

    def test_large_report_reaches_every_caller_and_is_not_kept(self, work):
        program = f"print('x' * {sandbox.MEMO_REPORT_CHARS})\n"
        work.delay = 0.3
        reports = judge_together(4, lambda: run_tests(program, MEMO_TESTS[:1],
                                                      limits=MEMO_LIMITS))
        assert work.log == ["compile", "spawn"]
        assert all(r == reports[0] for r in reports)
        assert reports[0].verdict == Verdict.WRONG_ANSWER
        assert len(reports[0].failures[0].actual) == sandbox.MEMO_REPORT_CHARS
        assert not sandbox._MEMO
        work.delay = 0.0
        assert run_tests(program, MEMO_TESTS[:1], limits=MEMO_LIMITS) == reports[0]
        assert work.log == ["compile", "spawn"] * 2

    def test_oldest_entry_is_evicted_first(self, work, monkeypatch):
        monkeypatch.setattr(sandbox, "MEMO_ENTRIES", 2)
        programs = [f"x = {i}\n" for i in range(3)]
        for program in programs:
            run_tests(program, [], limits=FAST)
        run_tests(programs[2], [], limits=FAST)
        run_tests(programs[1], [], limits=FAST)
        assert work.log == ["compile"] * 3
        run_tests(programs[0], [], limits=FAST)
        assert work.log == ["compile"] * 4
        assert len(sandbox._MEMO) == 2

    def test_threads_racing_on_few_keys_judge_each_once(self, work, monkeypatch):
        counted = sandbox.compile

        def slow_compile(*args, **kwargs):
            time.sleep(0.001)
            return counted(*args, **kwargs)

        monkeypatch.setattr(sandbox, "compile", slow_compile)
        programs = [f"y = {k}\n" for k in range(4)] * 16
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                verdicts = list(pool.map(
                    lambda program: run_tests(program, [], limits=FAST).verdict,
                    programs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert verdicts == [Verdict.ALL_PASSED] * 64
        assert work.log == ["compile"] * 4


class TestFormatReport:
    def test_issue_title_substituted_everywhere(self):
        report = IOReport(Verdict.ALL_PASSED)
        text = format_report(report, issue_title="# Custom heading")
        assert text == "# Custom heading\nAll of the executed tests passed."
        assert format_report(report).startswith(DEFAULT_ISSUE_TITLE + "\n")

    def test_single_failure_uses_singular_template(self):
        report = IOReport(Verdict.WRONG_ANSWER,
                            [Failure(1, "3\n", "6", "4")])
        text = format_report(report)
        assert "It fails the following test:" in text
        assert "## [Failed test] Input\n```\n3\n```" in text
        assert "[Failed test 1]" not in text

    def test_multi_failure_blocks_numbered(self):
        report = IOReport(Verdict.WRONG_ANSWER,
                            [Failure(1, "1\n", "2", "0"),
                             Failure(2, "5\n", "10", "0")])
        text = format_report(report)
        assert "It fails on the following tests." in text
        assert "### [Failed test 1] Input" in text
        assert "### [Failed test 2] Generated output" in text

    def test_fenced_values_lose_trailing_newlines(self):
        report = IOReport(Verdict.WRONG_ANSWER,
                            [Failure(1, "3\n\n", "6\n", "4\n")])
        text = format_report(report)
        assert "```\n3\n```" in text
        assert "```\n4\n```" in text

    def test_runtime_template_includes_stderr(self):
        report = IOReport(Verdict.RUNTIME_ERROR,
                            [Failure(1, "4\n", "8", "ZeroDivisionError: division by zero")])
        text = format_report(report)
        assert "resulted in a runtime error" in text
        assert text.endswith("ZeroDivisionError: division by zero")


class TestCodeTestingFlow:
    def flow(self, **params):
        merged = {"wall_time": 2.0}
        merged.update(params)
        return create_flow({"name": "judge", "kind": "code_testing",
                            "input_keys": ["code", "public_tests"],
                            "output_keys": ["verdict", "testing_results_summary"],
                            "params": merged})

    def test_emits_verdict_and_summary(self):
        out = run(self.flow(), package_input({
            "code": "print(int(input()) + 1)",
            "public_tests": [{"input": "1\n", "expected_output": "2\n"}],
        }))
        assert out.payload["verdict"] == "AllPassed"
        assert "All of the executed tests passed." in out.payload["testing_results_summary"]

    def test_custom_issue_title_reaches_summary(self):
        out = run(self.flow(issue_title="# Judge notes"), package_input({
            "code": "print('wrong')",
            "public_tests": [{"input": "1\n", "expected_output": "2\n"}],
        }))
        assert out.payload["verdict"] == "WrongAnswer"
        assert out.payload["testing_results_summary"].startswith("# Judge notes\n")

    def test_malformed_tests_rejected(self):
        with pytest.raises(FlowError, match="list of tests"):
            run(self.flow(), package_input({"code": "pass", "public_tests": "nope"}))
        with pytest.raises(FlowError, match="input"):
            run(self.flow(), package_input({"code": "pass",
                                            "public_tests": [{"expected_output": "1"}]}))
