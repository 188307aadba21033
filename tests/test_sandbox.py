import ast
import functools
import os
import re
import resource
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
from nestflow.backends import ScriptedBackend
from nestflow.ccflows import VariantSettings
from nestflow.core import create_flow, package_input, run
from nestflow.errors import ConfigError, FlowError, SandboxEnvironmentError
from nestflow.evalharness import EvalSettings, evaluate_grid
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
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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

    @pytest.mark.parametrize("target", ["sys.stdout", "open('big.txt', 'w')"])
    def test_output_past_the_memory_cap_is_runtime_error(self, target):
        # Twice the cap, 64 KB at a time: the write that crosses it fails.
        program = f"import sys\nout = {target}\nfor _ in range(2048):\n    out.write('x' * 65536)\n"
        report = run_tests(program, [IOCase("", "")],
                           limits=ExecutionLimits(wall_time=10.0, memory_bytes=64 * 1024 * 1024))
        assert report.verdict == Verdict.RUNTIME_ERROR
        assert "OSError: [Errno 27] File too large" in report.failures[0].actual

    def test_large_output_leaves_the_next_test_its_memory(self):
        program = ("n = int(input())\nif n == 1:\n    print('x' * 40_000_000)\n"
                   "else:\n    data = bytearray(30_000_000)\n    print('ok')\n")
        tests = [IOCase("2\n", "ok\n"), IOCase("1\n", ""), IOCase("2\n", "ok\n")]
        report = run_tests(program, tests,
                           limits=ExecutionLimits(wall_time=10.0, memory_bytes=96 * 1024 * 1024))
        assert (report.verdict, [f.index for f in report.failures]) == (Verdict.WRONG_ANSWER, [2])

    @pytest.mark.parametrize("limits", [{"wall_time": 0}, {"wall_time": -1.0},
                                        {"wall_time": float("nan")}, {"memory_bytes": 0},
                                        {"memory_bytes": -5 * 1024 * 1024}])
    def test_limits_that_are_not_positive_are_refused(self, limits):
        with pytest.raises(ConfigError, match="execution limits must be positive"):
            ExecutionLimits(**limits)
        (param,) = limits
        with pytest.raises(ConfigError, match=re.escape(
                f"code_testing flow 'judge': {param!r} must be ")):
            create_flow({"name": "judge", "kind": "code_testing", "params": limits})

    def test_missing_interpreter_is_environment_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
        with pytest.raises(SandboxEnvironmentError, match="failed to spawn interpreter"):
            run_tests("print(1)", [IOCase("", "1\n")], limits=FAST)

    def test_verdict_all_passed_iff_no_failures(self):
        passing = run_tests("print(input())", [IOCase("a\n", "a\n")], limits=FAST)
        failing = run_tests("print('x')", [IOCase("a\n", "a\n")], limits=FAST)
        assert (passing.verdict == Verdict.ALL_PASSED) == (passing.failures == [])
        assert (failing.verdict == Verdict.ALL_PASSED) == (failing.failures == [])


def spawn_judge(program: str, tests: list[IOCase], limits: ExecutionLimits = FAST) -> IOReport:
    """The oracle: each test run by its own ``python solution.py`` process
    under the same address-space cap, as the sandbox once ran them."""
    cap = functools.partial(resource.setrlimit, resource.RLIMIT_AS,
                            (limits.memory_bytes, limits.memory_bytes))
    failures, verdict = [], Verdict.ALL_PASSED
    with tempfile.TemporaryDirectory(prefix="nestflow-sandbox-") as scratch:
        Path(scratch, "solution.py").write_bytes(program.encode("utf-8"))
        for position, test in enumerate(tests, start=1):
            try:
                done = subprocess.run([sys.executable, "solution.py"], cwd=scratch,
                                      input=test.input.encode(), capture_output=True,
                                      timeout=limits.wall_time, preexec_fn=cap)
            except subprocess.TimeoutExpired:
                verdict = Verdict.TIMEOUT
                failures = [Failure(position, test.input, test.expected_output,
                                    f"wall time limit of {limits.wall_time}s exceeded")]
                break
            if done.returncode != 0:
                verdict = Verdict.RUNTIME_ERROR
                error = done.stderr.decode(errors="replace").strip()
                # The script's path is absolute, in the scratch directory's real name.
                error = error.replace(os.path.realpath(scratch) + os.sep, "")
                failures = [Failure(position, test.input, test.expected_output, error)]
                break
            produced = done.stdout.decode(errors="replace")
            if not compare_output(test.expected_output, produced):
                verdict = Verdict.WRONG_ANSWER
                failures.append(Failure(position, test.input, test.expected_output.rstrip("\n"),
                                        produced.rstrip("\n")))
    report = IOReport(verdict, failures)
    report.summary = format_report(report)
    return report


LONG_INPUT = "".join(f"{i}\n" for i in range(40_000))  # about 230 KB
HUGE_TEXT = "x" * 30_000_000
CAP_64_MIB = ExecutionLimits(wall_time=10.0, memory_bytes=64 * 1024 * 1024)
# Programs whose runs in the warm runner must be judged exactly as
# ``python solution.py`` processes judge them: (program, tests[, limits]).
RUN_CASES = {
    "exit_0": ("print('done')\nimport sys\nsys.exit(0)\n", [IOCase("", "done\n")]),
    "exit_3": ("print('partial')\nimport sys\nsys.exit(3)\n", [IOCase("", "partial\n")]),
    "exit_message": ("import sys\nsys.exit('bad input: ' + input())\n", [IOCase("7\n", "")]),
    "exit_256_is_status_0": ("print(1)\nraise SystemExit(256)\n", [IOCase("", "1\n")]),
    "os_exit": ("import os\nprint('x', flush=True)\nos._exit(4)\n", [IOCase("", "x\n")]),
    "input_at_eof": ("a = input()\nb = input()\nprint(a, b)\n", [IOCase("1\n", "1 2\n")]),
    "no_trailing_newline": ("import sys\nsys.stdout.write(input())\n",
                            [IOCase("42\n", "42\n"), IOCase("43\n", "44")]),
    "output_over_64k": ("print('x' * 100_000)\nprint('y' * 50_000)\n",
                        [IOCase("", "x" * 100_000 + "\n" + "y" * 50_000 + "\n")]),
    "input_over_64k": ("import sys\nprint(sum(map(int, sys.stdin.read().split())))\n",
                       [IOCase(LONG_INPUT, f"{sum(range(40_000))}\n")]),
    "input_and_output_over_64k_interleaved": ("import sys\nfor line in sys.stdin:\n"
                                              "    sys.stdout.write(line * 3)\n",
                                              [IOCase(LONG_INPUT, "".join(
                                                  f"{i}\n" * 3 for i in range(40_000)))]),
    "input_over_64k_unread": ("print('ok')\n", [IOCase(LONG_INPUT, "ok\n")]),
    "atexit_handlers": ("import atexit\natexit.register(print, 'second')\n"
                        "atexit.register(print, 'first')\nprint('main')\n",
                        [IOCase("", "main\nfirst\nsecond\n")]),
    "exit_message_then_atexit": ("import atexit, sys\n"
                                 "atexit.register(lambda: print('cleanup', file=sys.stderr))\n"
                                 "sys.exit('stopping')\n", [IOCase("", "")]),
    "thread_prints_after_main": ("import threading, time\n"
                                 "def late():\n    time.sleep(0.2)\n    print('late')\n"
                                 "threading.Thread(target=late).start()\nprint('early')\n",
                                 [IOCase("", "early\nlate\n")]),
    "stderr_with_status_0": ("import sys\nprint('note', file=sys.stderr)\n"
                             "print(int(input()) + 1)\n", [IOCase("1\n", "2\n")]),
    "memory_error": ("data = bytearray(1024 ** 3)\nprint('ok')\n", [IOCase("", "ok\n")]),
    "recursion_past_the_limit": ("def f(n):\n    return f(n + 1)\nf(0)\n", [IOCase("", "")]),
    "deepest_recursion": ("def depth(n=1):\n    try:\n        return depth(n + 1)\n"
                          "    except RecursionError:\n        return n\nprint(depth())\n",
                          [IOCase("", "0\n")]),
    "traceback": ("def f(n):\n    return 10 // n\nprint(f(int(input())))\n",
                  [IOCase("5\n", "2\n"), IOCase("0\n", "0\n")]),
    "assert_fails": ("n = int(input())\nassert n > 0, f'need a positive number, got {n}'\n"
                     "print(n)\n", [IOCase("2\n", "2\n"), IOCase("0\n", "0\n")]),
    "syntax_warning_then_error": ("x = 1 is 1\nprint(1 / 0)\n", [IOCase("", "")]),
    "main_module_state": ("import sys\nprint(list(globals()))\n"
                          "print(__name__, __spec__, __package__, __cached__, __doc__)\n"
                          "print(sys.modules['__main__'] is sys.modules[__name__])\n"
                          "print(len(sys.modules), sorted(sys.modules))\n"
                          "print(sys.argv, sys.orig_argv[1:], type(__loader__).__name__)\n",
                          [IOCase("", "")]),
    "script_paths": ("import os, sys\nprint(os.path.basename(__file__))\n"
                     "print(os.path.dirname(__file__) == os.getcwd() == sys.path[0])\n",
                     [IOCase("", "solution.py\nTrue\n")]),
    "imports_from_its_directory": ("open('helper_mod.py', 'w').write('VALUE = 41\\n')\n"
                                   "import importlib.util, helper_mod\n"
                                   "print(helper_mod.VALUE + 1)\n"
                                   "print(importlib.util.find_spec('sandbox'))\n",
                                   [IOCase("", "42\nNone\n")]),
    "pickles_a_main_class": ("import pickle\nclass Point:\n    def __init__(self, x):\n"
                             "        self.x = x\n"
                             "p = pickle.loads(pickle.dumps(Point(int(input()))))\n"
                             "print(type(p).__module__, type(p).__qualname__, p.x)\n",
                             [IOCase("5\n", "__main__ Point 5\n")]),
    "stdio_setup": ("import sys\nfor s in (sys.stdin, sys.stdout, sys.stderr):\n"
                    "    print(s.name, s.mode, s.encoding, s.errors, s.line_buffering,"
                    " s.write_through, type(s.buffer).__name__, s is getattr(sys, '__' +"
                    " s.name[1:-1] + '__'))\n", [IOCase("", "")]),
    "unclosed_file_on_stdout": ("out = open(1, 'w', closefd=False)\nout.write('kept ' + input())\n",
                                [IOCase("5\n", "kept 5\n")]),
    "finalizer_at_exit": ("class Bye:\n    def __del__(self):\n        print('bye')\n"
                          "keep = Bye()\nprint('hi')\n", [IOCase("", "hi\nbye\n")]),
    "timeout": ("import time\ntime.sleep(10)\n", [IOCase("", "")], ExecutionLimits(wall_time=0.5)),
    "subprocess_writes_to_stdout": ("import subprocess, sys\nprint('a', flush=True)\n"
                                    "subprocess.run([sys.executable, '-c', 'print(\"b\")'])\n"
                                    "print('c')\n", [IOCase("", "a\nb\nc\n")]),
    "subprocess_reads_the_rest_of_stdin": ("import subprocess, sys\nprint(sys.stdin.readline())\n"
                                           "subprocess.run([sys.executable, '-c', 'import sys; "
                                           "print(sys.stdin.read().split()[-1])'])\n",
                                           [IOCase(LONG_INPUT, "0\n\n39999\n")]),
    "closes_stdout": ("import os\nprint('x', flush=True)\nos.close(1)\n", [IOCase("", "x\n")]),
    "compile_over_the_memory_cap": ("x = [" + "0, " * 300_000 + "]\nprint(len(x))\n",
                                    [IOCase("", "300000\n")],
                                    ExecutionLimits(wall_time=10.0, memory_bytes=64 * 1024 * 1024)),
    "stream_kinds": ("import sys\nfor s in (sys.stdin, sys.stdout, sys.stderr):\n"
                     "    print(s.seekable(), s.isatty(), s.line_buffering)\n", [IOCase("", "")]),
    # What the runner sets once for every test: a test that changes it
    # leaves the next one as a fresh process finds it.
    "state_left_by_the_previous_test": ("import os, sys\n"
                                        "def depth(n=1):\n    try:\n        return depth(n + 1)\n"
                                        "    except RecursionError:\n        return n\n"
                                        "if input() == 'change':\n    os.chdir('..')\n"
                                        "    sys.argv[:] = ['other.py', 'x']\n"
                                        "    sys.path[0] = os.getcwd()\n"
                                        "    sys.setrecursionlimit(100)\n    print('changed')\n"
                                        "else:\n    print(os.listdir('.'), sys.argv, sys.orig_argv[1:],"
                                        " sys.path[0] == os.getcwd(), depth())\n",
                                        [IOCase("change\n", ""), IOCase("print\n", "")]),
    "open_files": ("import os\nprint(input(), sorted(os.listdir('/proc/self/fd'), key=int))\n",
                   [IOCase("1\n", ""), IOCase("2\n", ""), IOCase("3\n", "")]),
    # A test's input and the previous test's output must not count against
    # a run's memory cap.
    "input_over_30mb_unread": ("data = bytearray(30_000_000)\nprint('ok')\n",
                               [IOCase(HUGE_TEXT, "ok\n")] * 3, CAP_64_MIB),
    "output_over_30mb_then_memory": ("import sys\nif input() == '1':\n"
                                     "    for _ in range(30):\n"
                                     "        sys.stdout.write('x' * 1_000_000)\n"
                                     "else:\n    data = bytearray(30_000_000)\n    print('ok')\n",
                                     [IOCase("1\n", HUGE_TEXT), IOCase("2\n", "ok\n")] * 2,
                                     CAP_64_MIB),
}


class TestRunnerMatchesProcess:
    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_same_report(self, name, monkeypatch):
        monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
        program, tests, *limits = RUN_CASES[name]
        limits = limits[0] if limits else FAST
        assert run_tests(program, tests, limits=limits) == spawn_judge(program, tests, limits)

    @pytest.mark.parametrize("name", ["stdio_setup", "stream_kinds", "unclosed_file_on_stdout",
                                      "finalizer_at_exit", "output_over_64k",
                                      "exit_message_then_atexit", "traceback"])
    def test_same_report_with_buffered_streams(self, name, runners, monkeypatch):
        # A runner started now inherits the environment, as each process does.
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        program, tests = RUN_CASES[name]
        assert run_tests(program, tests, limits=FAST) == spawn_judge(program, tests)

    def test_random_draws_differ_between_runs(self, monkeypatch):
        monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
        program = "import random\nprint(random.random())\n"
        tests = [IOCase("", "")] * 3
        for report in (run_tests(program, tests, limits=FAST), spawn_judge(program, tests)):
            assert report.verdict == Verdict.WRONG_ANSWER
            assert len({f.actual for f in report.failures}) == 3


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

    def test_compile_warnings_stay_quiet(self, runners, capfd):
        warns = 'x = 1 is 1\nassert (1, "m")\nprint("ok")\n'
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            passed = run_tests(warns, [IOCase("", "ok\n")], limits=FAST)
            checked = judge_compile(warns)
            # Unlike the py_compile process, the report leaves the warning out.
            verdict, message = judge_compile("x = 1 is 1\nreturn x\n")
        assert passed.verdict == Verdict.ALL_PASSED
        assert checked == (Verdict.ALL_PASSED, None)
        assert verdict == Verdict.COMPILATION_ERROR
        assert message.startswith('File "solution.py", line 2\n')
        assert shown == []
        assert capfd.readouterr().err == ""
        # Nor does the check child print it on the runner's stderr, which
        # names why a runner failed.
        [runner] = runners
        runner.process.stdin.close()
        assert runner.process.stderr.read() == b""

    def test_check_runs_only_when_a_run_did_not_compile(self, work):
        tests = [IOCase("1\n", "1\n"), IOCase("2\n", "3\n")]
        program, _, memory = RUN_CASES["compile_over_the_memory_cap"]
        cases = [("print(input())\n", FAST, Verdict.WRONG_ANSWER, ["test", "test"]),
                 ("assert input() != '2'\n", FAST, Verdict.RUNTIME_ERROR, ["test", "test"]),
                 ("raise SystemExit(1)\n", FAST, Verdict.RUNTIME_ERROR, ["test"]),
                 ("import time\ntime.sleep(10)\n", MEMO_LIMITS, Verdict.TIMEOUT, ["test"]),
                 ("def broken(:\n", FAST, Verdict.COMPILATION_ERROR, ["test", "check"]),
                 (program, memory, Verdict.RUNTIME_ERROR, ["test", "check"])]
        for program, limits, verdict, children in cases:
            before = work.children()
            assert run_tests(program, tests, limits=limits).verdict == verdict, program[:20]
            assert work.children()[len(before):] == children, program[:20]
        for program, verdict in (("x = 1\n", Verdict.ALL_PASSED),
                                 ("x = (\n", Verdict.COMPILATION_ERROR)):
            before = work.children()
            assert run_tests(program, [], limits=FAST).verdict == verdict
            assert work.children()[len(before):] == ["check"]

    def test_scratch_holds_only_the_program(self, runners):
        lists = "import os\nprint(sorted(os.listdir('.')))\n"
        assert run_tests(lists, [IOCase("", "['solution.py']\n")], limits=FAST).verdict \
            == Verdict.ALL_PASSED
        writes = "open('helper.txt', 'w').close()\nimport os\nos.mkdir('sub')\nraise SystemExit(2)\n"
        assert run_tests(writes, [IOCase("", "")], limits=FAST).verdict == Verdict.RUNTIME_ERROR
        assert run_tests("def broken(:\n", [], limits=FAST).verdict == Verdict.COMPILATION_ERROR
        assert list(Path(os.environ["TMPDIR"]).iterdir()) == []


class Work:
    """What run_tests started: each request it sent and each test reply it
    read, in ``log``, and each child the runner forked, in ``children()``:
    "test" per test run and "check" per syntax check.

    A test reply is read after ``delay`` seconds, or ``error`` is raised in
    its place if set.
    """

    def __init__(self, forks: Path):
        self.forks = forks
        self.log = []
        self.delay = 0.0
        self.error = None

    def children(self) -> list[str]:
        return self.forks.read_text().split() if self.forks.exists() else []


# A runner that appends the kind of each child it forks to the file ``log``.
COUNTING_RUNNER = """\
import runpy
def counted(kind, fork):
    def call(*args):
        with open({log!r}, "a") as log:
            log.write(kind + "\\n")
        return fork(*args)
    return call
names = runpy.run_path({script!r})["serve"].__globals__
names["_run"] = counted("test", names["_run"])
names["_check"] = counted("check", names["_check"])
names["serve"]()
"""


def running(pid: str) -> bool:
    """Whether process ``pid`` runs; a zombie has exited and waits to be reaped."""
    try:
        return Path("/proc", pid, "stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def runners(monkeypatch, tmp_path_factory):
    """An empty memo and runner pool, and a TMPDIR of their own for the
    runners; lists every runner started, and stops them after."""
    monkeypatch.setenv("TMPDIR", str(tmp_path_factory.mktemp("tmpdir")))
    monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
    monkeypatch.setattr(sandbox, "_IDLE", [])
    started = []
    start = sandbox._Runner.__init__

    def listed_start(self):
        start(self)
        started.append(self)

    monkeypatch.setattr(sandbox._Runner, "__init__", listed_start)
    yield started
    for runner in started:
        runner.close()
        runner.process.wait(timeout=30)


@pytest.fixture
def work(runners, monkeypatch, tmp_path_factory):
    """Runners that log each child they fork, with every request and test reply counted."""
    folder = tmp_path_factory.mktemp("work")
    wrapper = folder / "runner.py"
    wrapper.write_text(COUNTING_RUNNER.format(log=str(folder / "children"),
                                              script=sandbox._RUNNER_SCRIPT))
    monkeypatch.setattr(sandbox, "_RUNNER_SCRIPT", str(wrapper))
    work = Work(folder / "children")
    run, reply = sandbox._Runner.run, sandbox._Runner.reply

    def counted_run(self, *args):
        work.log.append("request")
        return run(self, *args)

    def counted_reply(self):
        work.log.append("reply")
        time.sleep(work.delay)
        if work.error is not None:
            raise work.error
        return reply(self)

    monkeypatch.setattr(sandbox._Runner, "run", counted_run)
    monkeypatch.setattr(sandbox._Runner, "reply", counted_reply)
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
        started = list(work.log), work.children()
        assert all(started)
        second = run_tests(VERDICT_PROGRAMS[verdict], MEMO_TESTS, limits=MEMO_LIMITS)
        assert (work.log, work.children()) == started
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
        assert work.log == ["request", "reply"]
        assert work.children() == ["test"]
        assert [r.verdict for r in reports] == [Verdict.ALL_PASSED] * 4
        assert all(r == reports[0] for r in reports)

    def test_environment_error_reaches_every_caller_and_is_not_kept(self, work):
        work.delay, work.error = 0.3, OSError("no interpreter here")
        call = lambda: run_tests(VERDICT_PROGRAMS[Verdict.ALL_PASSED], MEMO_TESTS[:1],
                                 limits=MEMO_LIMITS)
        errors = judge_together(4, call)
        assert all(isinstance(e, SandboxEnvironmentError) for e in errors), errors
        assert work.log == ["request", "reply"]
        work.delay, work.error = 0.0, None
        assert call().verdict == Verdict.ALL_PASSED
        assert work.log == ["request", "reply"] * 2

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
        assert work.log.count("request") == 2
        assert work.children() == ["test"] * 4

    def test_kept_entry_is_the_report_itself(self, work):
        program = VERDICT_PROGRAMS[Verdict.WRONG_ANSWER]
        first = run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS)
        (entry,) = sandbox._MEMO.values()
        assert type(entry) is IOReport
        assert entry == first and entry is not first and entry.failures is not first.failures
        second = run_tests(program, MEMO_TESTS, limits=MEMO_LIMITS)
        assert second == entry and second is not entry and second.failures is not entry.failures
        kept = (entry.verdict, list(entry.failures), entry.summary)
        second.failures.clear()
        second.verdict, second.summary = Verdict.ALL_PASSED, ""
        assert (entry.verdict, entry.failures, entry.summary) == kept
        assert list(sandbox._MEMO.values()) == [entry]
        assert work.log.count("request") == 1

    def test_large_report_reaches_every_caller_and_is_not_kept(self, work):
        program = f"print('x' * {sandbox.MEMO_REPORT_CHARS})\n"
        work.delay = 0.3
        reports = judge_together(4, lambda: run_tests(program, MEMO_TESTS[:1],
                                                      limits=MEMO_LIMITS))
        assert work.log == ["request", "reply"]
        assert all(r == reports[0] for r in reports)
        assert reports[0].verdict == Verdict.WRONG_ANSWER
        assert len(reports[0].failures[0].actual) == sandbox.MEMO_REPORT_CHARS
        assert not sandbox._MEMO
        work.delay = 0.0
        assert run_tests(program, MEMO_TESTS[:1], limits=MEMO_LIMITS) == reports[0]
        assert work.log == ["request", "reply"] * 2

    def test_oldest_entry_is_evicted_first(self, work, monkeypatch):
        monkeypatch.setattr(sandbox, "MEMO_ENTRIES", 2)
        programs = [f"x = {i}\n" for i in range(3)]
        for program in programs:
            run_tests(program, [], limits=FAST)
        run_tests(programs[2], [], limits=FAST)
        run_tests(programs[1], [], limits=FAST)
        assert work.children() == ["check"] * 3
        run_tests(programs[0], [], limits=FAST)
        assert work.children() == ["check"] * 4
        assert len(sandbox._MEMO) == 2

    def test_threads_racing_on_few_keys_judge_each_once(self, work):
        work.delay = 0.001
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
        assert work.log.count("request") == 4
        assert work.children() == ["check"] * 4


def judge_child_writers(markers: Path, setsid: str = "", popen: str = "") -> None:
    """Judge a program whose child writes a marker into ``markers`` a second
    after it is up, once ending in a timeout and once in a normal exit.

    The program goes on only once its child is up. ``setsid`` starts the
    child's code; ``popen`` adds arguments to its ``Popen``.
    """
    writer = ("import subprocess, sys\n"
              "child = subprocess.Popen([sys.executable, '-c', 'import os, sys, time; "
              + setsid + "print(flush=True); time.sleep(1); open(sys.argv[1], \"w\").close()', "
              "{marker!r}], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL" + popen + ")\n"
              "child.stdout.readline()\n")
    slow = run_tests(writer.format(marker=str(markers / "after-timeout"))
                     + "import time\ntime.sleep(10)\n",
                     [IOCase("", "")], limits=ExecutionLimits(wall_time=0.5))
    assert slow.verdict == Verdict.TIMEOUT
    done = run_tests(writer.format(marker=str(markers / "after-exit")) + "print('ok')\n",
                     [IOCase("", "ok\n")], limits=ExecutionLimits(wall_time=5.0))
    assert done.verdict == Verdict.ALL_PASSED


class TestContainment:
    def test_program_children_die_with_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
        judge_child_writers(tmp_path)
        time.sleep(3)
        assert list(tmp_path.iterdir()) == []

    def test_children_in_sessions_of_their_own_die_with_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())
        (tmp_path / "new-session").mkdir()
        (tmp_path / "setsid").mkdir()
        judge_child_writers(tmp_path / "new-session", popen=", start_new_session=True")
        judge_child_writers(tmp_path / "setsid", setsid="os.setsid(); ")
        time.sleep(3)
        assert sorted(tmp_path.rglob("after-*")) == []

    def test_runner_that_cannot_become_a_subreaper_fails(self, runners, monkeypatch, tmp_path):
        # No silent fallback to a runner that would let such children escape.
        wrapper = tmp_path / "runner.py"
        wrapper.write_text(
            "import ctypes, errno, runpy\n"
            "class NoPrctl:\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        self.prctl = lambda *args: (ctypes.set_errno(errno.EPERM), -1)[1]\n"
            "ctypes.CDLL = NoPrctl\n"
            f"runpy.run_path({sandbox._RUNNER_SCRIPT!r}, run_name='__main__')\n")
        monkeypatch.setattr(sandbox, "_RUNNER_SCRIPT", str(wrapper))
        with pytest.raises(SandboxEnvironmentError) as failed:
            run_tests("print(1)\n", [IOCase("", "1\n")], limits=FAST)
        assert str(failed.value) == ("judge runner failed: judge runner exited mid-request: "
                                     "PermissionError: [Errno 1] cannot become a child subreaper")
        assert sandbox._IDLE == []


class TestRunnerPool:
    def test_importing_the_cli_starts_no_process(self):
        src = str(Path(sandbox.__file__).resolve().parents[1])
        code = ("import os, nestflow.cli\n"
                "try:\n    os.waitpid(-1, os.WNOHANG)\n"
                "except ChildProcessError:\n    print('no children')\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.stdout == "no children\n", done.stderr

    def test_runner_exits_when_its_parent_dies(self):
        src = str(Path(sandbox.__file__).resolve().parents[1])
        code = ("import os\nfrom nestflow import sandbox\n"
                "sandbox.run_tests('print(1)', [sandbox.TestCase('', '1\\n')])\n"
                "print(sandbox._IDLE[0].process.pid, flush=True)\n"
                "os._exit(0)  # no atexit: the runner sees only its stdin close\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, env=env, timeout=60)
        assert done.stdout.strip().isdigit(), done.stdout
        deadline = time.monotonic() + 10
        while running(done.stdout.strip()):
            assert time.monotonic() < deadline, "the runner outlived its parent"
            time.sleep(0.05)

    def test_runner_judging_a_loop_exits_when_its_parent_dies(self, tmp_path):
        """It kills the test child and removes the scratch directory at once,
        not after the test's wall time."""
        src = str(Path(sandbox.__file__).resolve().parents[1])
        code = ("import os, threading, time\nfrom nestflow import sandbox\n"
                "sandbox.run_tests('print(1)', [sandbox.TestCase('', '1\\n')])\n"
                "pid = sandbox._IDLE[0].process.pid\n"
                "threading.Thread(target=sandbox.run_tests, daemon=True, args=(\n"
                "    'while True: pass', [sandbox.TestCase('', '')],\n"
                "    sandbox.ExecutionLimits(wall_time=60.0))).start()\n"
                "while not os.listdir(os.environ['TMPDIR']):\n    time.sleep(0.01)\n"
                "time.sleep(0.2)  # the loop is running\n"
                "print(pid, flush=True)\n"
                "os._exit(0)  # no atexit: the runner sees only its pipes close\n")
        env = {**os.environ, "TMPDIR": str(tmp_path),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, env=env, timeout=60)
        assert done.stdout.strip().isdigit(), done.stdout
        deadline = time.monotonic() + 10
        while running(done.stdout.strip()) or list(tmp_path.iterdir()):
            assert time.monotonic() < deadline, "the runner outlived its parent"
            time.sleep(0.05)

    def test_grids_keep_two_runners_per_worker(self, runners, tmp_path, problems_by_id):
        """A grid's flows judge public tests while its judge pool judges hidden
        ones, so each worker may hold two runners; grids after the first
        reuse them."""
        problems = [problems_by_id[pid] for pid in ("cf-echo-101", "cf-pairsum-202",
                                                     "lc-double-404")]
        for attempt in range(3):
            sandbox._MEMO.clear()  # every grid judges for real
            settings = EvalSettings(
                out_dir=tmp_path / str(attempt),
                backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
                variant_settings=VariantSettings(wall_time=2.0, model="scripted"), workers=2)
            assert evaluate_grid(problems, ["Code", "Code_Debug"], settings).new_runs == 6
        assert 1 <= len(runners) <= 2 * settings.workers
        assert sorted(map(id, sandbox._IDLE)) == sorted(map(id, runners))
        assert all(runner.process.poll() is None for runner in runners)

    def test_killed_runner_is_replaced(self, runners):
        assert run_tests("print(input())\n", [IOCase("a\n", "a\n")],
                         limits=FAST).verdict == Verdict.ALL_PASSED
        [first] = runners
        first.process.kill()
        first.process.wait(timeout=30)
        report = run_tests("print(int(input()) * 3)\n", [IOCase("2\n", "6\n"), IOCase("3\n", "8\n")],
                           limits=FAST)
        assert (report.verdict, [f.index for f in report.failures]) == (Verdict.WRONG_ANSWER, [2])
        assert len(runners) == 2 and sandbox._IDLE == [runners[1]]

    def test_runner_dying_mid_request_is_dropped(self, runners):
        with pytest.raises(SandboxEnvironmentError, match="judge runner failed"):
            run_tests("import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n",
                      [IOCase("", "")], limits=FAST)
        assert sandbox._IDLE == []
        assert run_tests("print(1)\n", [IOCase("", "1\n")], limits=FAST).verdict \
            == Verdict.ALL_PASSED
        assert len(runners) == 2 and sandbox._IDLE == [runners[1]]

    def test_runner_cutting_its_reply_short_is_dropped(self, runners, monkeypatch, tmp_path):
        wrapper = tmp_path / "runner.py"
        wrapper.write_text(
            "import marshal, os, runpy, sys\n"
            "def cut_short(reply, file):\n"
            "    data = marshal.dumps(reply)\n"
            "    file.write(data[:len(data) // 2])\n"
            "    file.flush()\n"
            "    print('reply cut short', file=sys.stderr, flush=True)\n"
            "    os._exit(1)\n"
            "marshal.dump = cut_short\n"
            f"runpy.run_path({sandbox._RUNNER_SCRIPT!r}, run_name='__main__')\n")
        runner_script = sandbox._RUNNER_SCRIPT
        monkeypatch.setattr(sandbox, "_RUNNER_SCRIPT", str(wrapper))
        with pytest.raises(SandboxEnvironmentError) as failed:
            run_tests("print(1)\n", [IOCase("", "1\n")], limits=FAST)
        assert str(failed.value) == ("judge runner failed: judge runner exited mid-request: "
                                     "reply cut short")
        assert sandbox._IDLE == []
        monkeypatch.setattr(sandbox, "_RUNNER_SCRIPT", runner_script)
        assert run_tests("print(1)\n", [IOCase("", "1\n")], limits=FAST).verdict \
            == Verdict.ALL_PASSED
        assert len(runners) == 2 and sandbox._IDLE == [runners[1]]

    def test_runner_that_cannot_start_fails_every_waiter(self, runners, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
        attempts = []
        start = sandbox._Runner.__init__

        def slow_start(self):
            attempts.append(self)
            time.sleep(0.3)  # the other callers ask while this start is under way
            start(self)

        monkeypatch.setattr(sandbox._Runner, "__init__", slow_start)
        errors = judge_together(4, lambda: run_tests("print(1)\n", [IOCase("", "1\n")],
                                                     limits=FAST))
        assert all(isinstance(e, SandboxEnvironmentError)
                   and "failed to spawn interpreter" in str(e) for e in errors), errors
        assert len(attempts) == 1 and runners == []

    @pytest.mark.parametrize("stop, verdict", [
        ("raise ValueError(n)", Verdict.RUNTIME_ERROR),
        ("import time\n    time.sleep(10)", Verdict.TIMEOUT),
    ], ids=["runtime-error", "timeout"])
    def test_judgement_stops_at_the_first_failed_run(self, runners, tmp_path, stop, verdict):
        program = ("import pathlib\nn = input()\n"
                   f"pathlib.Path({str(tmp_path)!r}, n).touch()\n"
                   f"if n == '2':\n    {stop}\nprint(n)\n")
        tests = [IOCase(f"{n}\n", f"{n}\n") for n in range(1, 5)]
        report = run_tests(program, tests, limits=ExecutionLimits(wall_time=0.5))
        assert (report.verdict, [f.index for f in report.failures]) == (verdict, [2])
        assert sorted(path.name for path in tmp_path.iterdir()) == ["1", "2"]
        # The next judgements on the same runner read their own replies, and
        # one that fails on every test reads all of them.
        wrong = run_tests("print(input().strip() * 2)\n", tests, limits=FAST)
        assert [f.actual for f in wrong.failures] == ["11", "22", "33", "44"]
        tripled = [IOCase(f"{n}\n", f"{n * 3}\n") for n in range(5, 8)]
        assert run_tests("print(int(input()) * 3)\n", tripled, limits=FAST).verdict \
            == Verdict.ALL_PASSED
        assert len(runners) == 1 and sandbox._IDLE == runners

    def test_large_inputs_of_one_judgement_leave_each_test_its_memory(self, runners):
        # The runner holds one input of a judgement at a time, and none once
        # a test runs. The runner is new and the allocation larger than an
        # input, so no free memory left in the runner's heap can serve it.
        program = "data = bytearray(40_000_000)\nprint('ok')\n"
        tests = [IOCase(HUGE_TEXT, "ok\n")] * 3
        report = run_tests(program, tests, limits=CAP_64_MIB)
        assert report == spawn_judge(program, tests, CAP_64_MIB)
        assert report.verdict == Verdict.ALL_PASSED
        assert len(runners) == 1

    def test_compiling_leaves_the_runner_its_size(self, runners):
        # Each test child inherits the runner's address space under its cap,
        # so what a compile took in the runner would count against later runs.
        def size() -> str:
            [runner] = runners
            return re.search(r"VmSize:\s*(\d+)",
                             Path("/proc", str(runner.process.pid), "status").read_text())[1]

        assert run_tests("print(1)\n", [IOCase("", "1\n")], limits=FAST).verdict \
            == Verdict.ALL_PASSED
        before = size()
        program, tests, limits = RUN_CASES["compile_over_the_memory_cap"]
        assert run_tests(program, tests, limits=limits).verdict == Verdict.RUNTIME_ERROR
        literal = "x = [" + "0, " * 1_000_000 + "]\nprint(len(x))\n"
        assert run_tests(literal, [IOCase("", "1000000\n")], limits=CAP_64_MIB).verdict \
            == Verdict.RUNTIME_ERROR
        assert size() == before

    def test_runner_removes_its_directory_when_its_parent_is_killed(self, tmp_path):
        src = str(Path(sandbox.__file__).resolve().parents[1])
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        code = ("from nestflow import sandbox\n"
                "sandbox.run_tests('import time\\ntime.sleep(30)\\n', [sandbox.TestCase('', '')],"
                " sandbox.ExecutionLimits(wall_time=2.0))\n")
        env = {**os.environ, "TMPDIR": str(scratch),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        judging = subprocess.Popen([sys.executable, "-c", code], env=env)
        deadline = time.monotonic() + 30
        while not list(scratch.glob("nestflow-sandbox-*/solution.py")):
            assert time.monotonic() < deadline, "no judgement started"
            time.sleep(0.05)
        time.sleep(0.3)  # the test sleeps
        judging.kill()
        judging.wait(timeout=30)
        deadline = time.monotonic() + 10
        while list(scratch.iterdir()):
            assert time.monotonic() < deadline, "the runner left its scratch directory"
            time.sleep(0.05)

    def test_test_child_dies_with_its_runner(self, runners, tmp_path):
        pid_file = tmp_path / "pid"
        program = (f"import os, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
                   "time.sleep(20)\n")
        with ThreadPoolExecutor(1) as pool:
            judged = pool.submit(run_tests, program, [IOCase("", "")], FAST)
            deadline = time.monotonic() + 30
            while not (pid_file.exists() and pid_file.read_text()):
                assert time.monotonic() < deadline, "the test did not start"
                time.sleep(0.05)
            runners[0].process.kill()
            with pytest.raises(SandboxEnvironmentError, match="judge runner failed"):
                judged.result(timeout=30)
        deadline = time.monotonic() + 2
        while running(pid_file.read_text()):
            assert time.monotonic() < deadline, "the test child outlived its runner"
            time.sleep(0.05)

    def test_runner_imports_only_the_standard_library(self):
        tree = ast.parse(Path(sandbox._RUNNER_SCRIPT).read_text(encoding="utf-8"))
        imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.partition(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "ctypes" in imported
        assert imported <= sys.stdlib_module_names


class TestFormatReport:
    def test_issue_title_substituted_everywhere(self):
        assert format_report(IOReport(Verdict.ALL_PASSED)) == \
            "# Issue with the last proposed solution\nAll of the executed tests passed."
        reports = [IOReport(Verdict.COMPILATION_ERROR, [Failure(0, "", None, "bad")]),
                   IOReport(Verdict.TIMEOUT, [Failure(1, "1\n", "2", "slow")]),
                   IOReport(Verdict.RUNTIME_ERROR, [Failure(1, "1\n", "2", "boom")]),
                   IOReport(Verdict.WRONG_ANSWER, [Failure(1, "1\n", "2", "3")]),
                   IOReport(Verdict.WRONG_ANSWER, [Failure(1, "1\n", "2", "3")] * 2)]
        for report in reports:
            text = format_report(report)
            assert text.startswith(DEFAULT_ISSUE_TITLE + "\n") and text.count("# Issue") == 1

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

    def test_summary_is_the_judgement_report(self):
        tests = [{"input": "1\n", "expected_output": "2\n"}]
        out = run(self.flow(), package_input({"code": "print('wrong')", "public_tests": tests}))
        assert out.payload["verdict"] == "WrongAnswer"
        report = run_tests("print('wrong')", [IOCase("1\n", "2\n")], ExecutionLimits(2.0))
        assert out.payload["testing_results_summary"] == report.summary == format_report(report)
        # The issue title is no param: every report carries DEFAULT_ISSUE_TITLE.
        with pytest.raises(ConfigError, match=re.escape("unknown params: ['issue_title']")):
            self.flow(issue_title="# Judge notes")

    def test_key_params_are_refused(self):
        # Every variant judges "code" on "public_tests", so neither key is a param.
        with pytest.raises(ConfigError, match=re.escape(
                "code_testing flow 'judge' has unknown params: ['code_key', 'tests_key']")):
            self.flow(tests_key="tests", code_key="program")

    def test_malformed_tests_rejected(self):
        with pytest.raises(FlowError, match="list of tests"):
            run(self.flow(), package_input({"code": "pass", "public_tests": "nope"}))
        with pytest.raises(FlowError, match="input"):
            run(self.flow(), package_input({"code": "pass",
                                            "public_tests": [{"expected_output": "1"}]}))
