"""Local code-testing sandbox: judge Python programs against test cases.

A program is written to a fresh scratch directory and syntax-checked
in-process. Then the interpreter runs it once per test, in its own
subprocess, with a wall-time limit and an address-space cap. Results
collapse to one of five verdicts and render to fixed report text that
feedback loops embed in prompts, so the wording here is load-bearing and
must not drift. A process-wide memo judges each distinct program, test
list and limit set once.
"""
from __future__ import annotations

import enum
import logging
import os
import py_compile
import subprocess
import sys
import tempfile
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from pathlib import Path

from ._util import fingerprint
from .backends import render_template
from .core import FlowConfig, FlowInstance, Message, RunContext, register_flow_kind
from .errors import FlowError, SandboxEnvironmentError

logger = logging.getLogger(__name__)

DEFAULT_ISSUE_TITLE = "# Issue with the last proposed solution"
DEFAULT_WALL_TIME = 10.0
DEFAULT_MEMORY_BYTES = 256 * 1024 * 1024

# Judgements the memo keeps, evicting the oldest first, and the most text a
# kept report may hold (its summary and its failures' inputs, expected and
# actual outputs, in characters). A larger report goes to its callers but is
# not kept, so the memo holds at most MEMO_ENTRIES * MEMO_REPORT_CHARS
# characters of reports; an entry also costs about 2 KB of objects.
MEMO_ENTRIES = 256
MEMO_REPORT_CHARS = 16 * 1024

_COMPILE_LOCK = threading.Lock()
_MEMO: OrderedDict[str, Future] = OrderedDict()
_MEMO_LOCK = threading.Lock()


class Verdict(enum.Enum):
    ALL_PASSED = "AllPassed"
    COMPILATION_ERROR = "CompilationError"
    TIMEOUT = "Timeout"
    RUNTIME_ERROR = "RuntimeError"
    WRONG_ANSWER = "WrongAnswer"


@dataclass(frozen=True)
class TestCase:
    input: str
    expected_output: str = ""


@dataclass(frozen=True)
class ExecutionLimits:
    wall_time: float = DEFAULT_WALL_TIME
    memory_bytes: int = DEFAULT_MEMORY_BYTES


@dataclass(frozen=True)
class Failure:
    """One failing test: 1-based position, stimulus, and what came back.

    ``actual`` holds the produced output for wrong answers and the error
    text for compilation, runtime and timeout failures.
    """

    index: int
    input: str
    expected: str | None
    actual: str


@dataclass
class TestReport:
    verdict: Verdict
    failures: list[Failure] = field(default_factory=list)
    summary: str = ""


# Report templates. ${.issue_title} is substituted first, then the
# {{...}} fields; byte-exact output is contract, not cosmetics.
NO_ERROR_TEMPLATE = "${.issue_title}\nAll of the executed tests passed."
ALL_TESTS_HEADER = (
    "${.issue_title}\n"
    "The Python code does not solve the problem in the problem description due to logical "
    "errors. It fails on the following tests."
)
COMPILATION_ERROR_TEMPLATE = (
    "${.issue_title}\n"
    "The execution resulted in a compilation error.\n"
    "## Compilation error message:\n"
    "{{error_message}}"
)
TIMEOUT_ERROR_TEMPLATE = "${.issue_title}\nThe execution timed out, the solution is not efficient enough."
RUNTIME_ERROR_TEMPLATE = (
    "${.issue_title}\n"
    "The execution resulted in a runtime error on the following test.\n"
    "## [Failed test] Input\n"
    "```\n"
    "{{test_input}}\n"
    "```\n"
    "## [Failed test] Runtime error message\n"
    "{{error_message}}"
)
SINGLE_TEST_ERROR_TEMPLATE = (
    "${.issue_title}\n"
    "The Python code does not solve the problem in the problem description due to logical "
    "errors. It fails the following test:\n"
    "## [Failed test] Input\n"
    "```\n"
    "{{test_input}}\n"
    "```\n"
    "## [Failed test] Expected output\n"
    "```\n"
    "{{expected_output}}\n"
    "```\n"
    "## [Failed test] Generated output\n"
    "```\n"
    "{{generated_output}}\n"
    "```"
)
TEST_ERROR_TEMPLATE = (
    "## [Failed test {{idx}}]\n"
    "### [Failed test {{idx}}] Input\n"
    "```\n"
    "{{test_input}}\n"
    "```\n"
    "### [Failed test {{idx}}] Expected output\n"
    "```\n"
    "{{expected_output}}\n"
    "```\n"
    "### [Failed test {{idx}}] Generated output\n"
    "```\n"
    "{{generated_output}}\n"
    "```"
)


def compare_output(expected: str, actual: str) -> bool:
    """Whitespace-tolerant comparison: rstrip lines, ignore trailing blanks."""
    return _normalize(expected) == _normalize(actual)


def _normalize(text: str) -> list[str]:
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _limit_resources(memory_bytes: int):
    import resource

    def apply_limits():
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    return apply_limits


def _strip_scratch(text: str, scratch: str) -> str:
    """Drop the scratch directory (as given and as realpath, longest first)
    from diagnostics, so they name the program "solution.py" on every run."""
    for prefix in sorted({scratch, os.path.realpath(scratch)}, key=len, reverse=True):
        text = text.replace(prefix + os.sep, "")
    return text


def run_tests(program: str, tests: list[TestCase],
              limits: ExecutionLimits = ExecutionLimits()) -> TestReport:
    """Syntax-check a program in-process, then run it against each test in order.

    The first timeout or runtime error stops the loop and is reported
    alone; wrong answers accumulate across all tests. The returned
    report carries a summary rendered with the default issue title.

    Reports are memoized on the program, the tests, the limits and the
    interpreter, so a repeated judgement starts no process; a caller
    asking for a judgement still in progress waits for it. Every verdict
    is kept, ``Timeout`` included, unless the report holds more than
    ``MEMO_REPORT_CHARS`` characters; an error is raised to every waiter
    and never kept.
    """
    key = fingerprint([program, [[t.input, t.expected_output] for t in tests],
                       limits.wall_time, limits.memory_bytes, sys.executable, sys.version])
    with _MEMO_LOCK:
        entry = _MEMO.get(key)
        judge = entry is None
        if judge:
            entry = _MEMO[key] = Future()
            if len(_MEMO) > MEMO_ENTRIES:
                _MEMO.popitem(last=False)
    if judge:
        try:
            report = _judge(program, tests, limits)
        except BaseException as exc:
            _forget(key, entry)
            entry.set_exception(exc)
            raise
        if _report_chars(report) > MEMO_REPORT_CHARS:
            _forget(key, entry)
        entry.set_result(report)
    report = entry.result()
    return replace(report, failures=list(report.failures))


def _forget(key: str, entry: Future) -> None:
    with _MEMO_LOCK:
        if _MEMO.get(key) is entry:
            del _MEMO[key]


def _report_chars(report: TestReport) -> int:
    return len(report.summary) + sum(len(f.input) + len(f.expected or "") + len(f.actual)
                                     for f in report.failures)


def _judge(program: str, tests: list[TestCase], limits: ExecutionLimits) -> TestReport:
    with tempfile.TemporaryDirectory(prefix="nestflow-sandbox-") as scratch:
        source = os.path.join(scratch, "solution.py")
        data = program.encode("utf-8")
        Path(source).write_bytes(data)
        # Compiling under the absolute path lets the compiler quote the
        # offending line from the file; the code object is dropped, so no
        # bytecode file is written. Compile warnings are not the grid's to
        # print, and catch_warnings swaps process-wide state: one compile
        # at a time.
        with _COMPILE_LOCK, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                compile(data, source, "exec", dont_inherit=True)
                error = None
            except Exception as exc:  # what py_compile.compile(doraise=True) wraps
                error = py_compile.PyCompileError(type(exc), exc, source).msg
                error = _strip_scratch(error.strip(), scratch)
        if error is not None:
            report = TestReport(Verdict.COMPILATION_ERROR,
                                [Failure(index=0, input="", expected=None, actual=error)])
            report.summary = format_report(report)
            return report

        failures: list[Failure] = []
        verdict = Verdict.ALL_PASSED
        for position, test in enumerate(tests, start=1):
            try:
                result = subprocess.run(
                    [sys.executable, "solution.py"], cwd=scratch, input=test.input.encode(),
                    capture_output=True, timeout=limits.wall_time,
                    preexec_fn=_limit_resources(limits.memory_bytes))
            except subprocess.TimeoutExpired:
                verdict = Verdict.TIMEOUT
                failures = [Failure(position, test.input, test.expected_output,
                                    f"wall time limit of {limits.wall_time}s exceeded")]
                break
            except OSError as exc:
                raise SandboxEnvironmentError(f"failed to spawn interpreter: {exc}") from exc
            if result.returncode != 0:
                verdict = Verdict.RUNTIME_ERROR
                error = _strip_scratch(result.stderr.decode(errors="replace").strip(), scratch)
                failures = [Failure(position, test.input, test.expected_output, error)]
                break
            produced = result.stdout.decode(errors="replace")
            if not compare_output(test.expected_output, produced):
                verdict = Verdict.WRONG_ANSWER
                failures.append(Failure(position, test.input,
                                        test.expected_output.rstrip("\n"),
                                        produced.rstrip("\n")))
        if verdict == Verdict.ALL_PASSED and failures:
            verdict = Verdict.WRONG_ANSWER
        report = TestReport(verdict, failures)
        report.summary = format_report(report)
        return report


# Value fields shown inside code fences; trailing newlines would render
# as blank lines before the closing fence.
_FENCED_FIELDS = ("test_input", "expected_output", "generated_output")


def format_report(report: TestReport, issue_title: str = DEFAULT_ISSUE_TITLE) -> str:
    """Render a report to the fixed feedback text for the given title."""

    def render(template: str, **fields) -> str:
        for name in _FENCED_FIELDS:
            if isinstance(fields.get(name), str):
                fields[name] = fields[name].rstrip("\n")
        return render_template(template.replace("${.issue_title}", issue_title), fields)

    if report.verdict == Verdict.ALL_PASSED:
        return render(NO_ERROR_TEMPLATE)
    if report.verdict == Verdict.COMPILATION_ERROR:
        return render(COMPILATION_ERROR_TEMPLATE, error_message=report.failures[0].actual)
    if report.verdict == Verdict.TIMEOUT:
        return render(TIMEOUT_ERROR_TEMPLATE)
    if report.verdict == Verdict.RUNTIME_ERROR:
        failure = report.failures[0]
        return render(RUNTIME_ERROR_TEMPLATE, test_input=failure.input,
                      error_message=failure.actual)
    if len(report.failures) == 1:
        failure = report.failures[0]
        return render(SINGLE_TEST_ERROR_TEMPLATE, test_input=failure.input,
                      expected_output=failure.expected, generated_output=failure.actual)
    blocks = [render(ALL_TESTS_HEADER)]
    for idx, failure in enumerate(report.failures, start=1):
        blocks.append(render(TEST_ERROR_TEMPLATE, idx=idx, test_input=failure.input,
                             expected_output=failure.expected, generated_output=failure.actual))
    return "\n".join(blocks)


@register_flow_kind
class CodeTestingFlow(FlowInstance):
    """Atomic flow that judges the payload's program against payload tests.

    Emits the verdict name and the formatted summary, which debug loops
    feed back to the generator.
    """

    kind = "code_testing"

    def __init__(self, config: FlowConfig):
        super().__init__(config)
        params = dict(config.params)
        self.limits = ExecutionLimits(
            wall_time=float(params.pop("wall_time", DEFAULT_WALL_TIME)),
            memory_bytes=int(params.pop("memory_bytes", DEFAULT_MEMORY_BYTES)))
        self.issue_title = params.pop("issue_title", DEFAULT_ISSUE_TITLE)
        self.tests_key = params.pop("tests_key", "public_tests")
        self.code_key = params.pop("code_key", "code")
        if params:
            from .errors import ConfigError

            raise ConfigError(f"code_testing flow {config.name!r} has unknown params: {sorted(params)}")

    def _step(self, message: Message, ctx: RunContext) -> dict:
        raw_tests = message.payload[self.tests_key]
        if not isinstance(raw_tests, list):
            raise FlowError(f"payload key {self.tests_key!r} must be a list of tests",
                            instance_id=self.instance_id)
        tests = []
        for i, entry in enumerate(raw_tests):
            if not isinstance(entry, dict) or "input" not in entry:
                raise FlowError(f"test #{i + 1} under {self.tests_key!r} needs an 'input' field",
                                instance_id=self.instance_id)
            tests.append(TestCase(input=entry["input"],
                                  expected_output=entry.get("expected_output", "")))
        report = run_tests(message.payload[self.code_key], tests, limits=self.limits)
        return {
            "verdict": report.verdict.value,
            "testing_results_summary": format_report(report, self.issue_title),
        }
