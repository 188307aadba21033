"""Local code-testing sandbox: judge Python programs against test cases.

A judgement is one request to a warm runner process (``_runner.py``),
which owns its scratch directory and syntax check, and runs the program
once per test in a forked child, under a wall-time limit and an
address-space cap. Runners wait in a process-wide pool, one per
concurrent judgement. Results collapse to one of five verdicts and
render to fixed report text that feedback loops embed in prompts, so
the wording is load-bearing. A process-wide memo judges each distinct
program, test list and limit set once.
"""
from __future__ import annotations

import atexit
import enum
import marshal
import subprocess
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterator
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from ._util import POSITIVE_INTEGER, POSITIVE_NUMBER, fingerprint
from .backends import render_template
from .core import FlowConfig, FlowInstance, Message, RunContext, register_flow_kind
from .errors import ConfigError, FlowError, SandboxEnvironmentError

DEFAULT_ISSUE_TITLE = "# Issue with the last proposed solution"
DEFAULT_WALL_TIME = 10.0
DEFAULT_MEMORY_BYTES = 256 * 1024 * 1024

# Judgements the memo keeps, evicting the oldest first, and the most text a
# kept report may hold (its summary and its failures' inputs, expected and
# actual outputs, in characters). A larger report goes to its callers but is
# not kept, so the memo holds at most MEMO_ENTRIES * MEMO_REPORT_CHARS
# characters of reports. A kept entry, its key and report included, took
# about 600 bytes on the fixture grid.
MEMO_ENTRIES = 256
MEMO_REPORT_CHARS = 16 * 1024

# A judgement in progress is held as the Future its waiters wait on, a
# finished one as its report.
_MEMO: OrderedDict[str, Future | TestReport] = OrderedDict()
_MEMO_LOCK = threading.Lock()
_RUNNER_SCRIPT = str(Path(__file__).with_name("_runner.py"))
_IDLE: list[_Runner] = []
_IDLE_LOCK = threading.Lock()


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
    """Each test run's wall time in seconds, and its cap in bytes on both
    address space and the size of any file it writes, its output included."""

    wall_time: float = DEFAULT_WALL_TIME
    memory_bytes: int = DEFAULT_MEMORY_BYTES

    def __post_init__(self):
        if not (self.wall_time > 0 and self.memory_bytes > 0):
            raise ConfigError(f"execution limits must be positive, got wall_time="
                              f"{self.wall_time!r} and memory_bytes={self.memory_bytes!r}")


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


# Report templates: the {{...}} fields are substituted; byte-exact output is
# contract, not cosmetics.
NO_ERROR_TEMPLATE = f"{DEFAULT_ISSUE_TITLE}\nAll of the executed tests passed."
ALL_TESTS_HEADER = (
    f"{DEFAULT_ISSUE_TITLE}\n"
    "The Python code does not solve the problem in the problem description due to logical "
    "errors. It fails on the following tests."
)
COMPILATION_ERROR_TEMPLATE = (
    f"{DEFAULT_ISSUE_TITLE}\n"
    "The execution resulted in a compilation error.\n"
    "## Compilation error message:\n"
    "{{error_message}}"
)
TIMEOUT_ERROR_TEMPLATE = f"{DEFAULT_ISSUE_TITLE}\nThe execution timed out, the solution is not efficient enough."
RUNTIME_ERROR_TEMPLATE = (
    f"{DEFAULT_ISSUE_TITLE}\n"
    "The execution resulted in a runtime error on the following test.\n"
    "## [Failed test] Input\n"
    "```\n"
    "{{test_input}}\n"
    "```\n"
    "## [Failed test] Runtime error message\n"
    "{{error_message}}"
)
SINGLE_TEST_ERROR_TEMPLATE = (
    f"{DEFAULT_ISSUE_TITLE}\n"
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


def run_tests(program: str, tests: list[TestCase],
              limits: ExecutionLimits = ExecutionLimits()) -> TestReport:
    """Run a program against each test in order, and check its syntax.

    A compile error, or the first timeout or runtime error, which stops the
    loop, is reported alone; wrong answers accumulate across all tests. The
    returned report carries its summary, as ``format_report`` renders it.

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
            _settle(key, entry, None)
            entry.set_exception(exc)
            raise
        _settle(key, entry, report if _report_chars(report) <= MEMO_REPORT_CHARS else None)
        entry.set_result(report)
    report = entry.result() if isinstance(entry, Future) else entry
    return replace(report, failures=list(report.failures))


def _settle(key: str, future: Future, report: TestReport | None) -> None:
    """Replace a judgement's future, if the memo still holds it, by its
    report, or drop it when there is no report to keep."""
    with _MEMO_LOCK:
        if _MEMO.get(key) is future:
            if report is None:
                del _MEMO[key]
            else:
                _MEMO[key] = report


def _report_chars(report: TestReport) -> int:
    return len(report.summary) + sum(len(f.input) + len(f.expected or "") + len(f.actual)
                                     for f in report.failures)


def _judge(program: str, tests: list[TestCase], limits: ExecutionLimits) -> TestReport:
    verdict, failures = Verdict.ALL_PASSED, []
    with _lease() as runner:
        replies = runner.run((program.encode("utf-8"), limits.memory_bytes, limits.wall_time),
                             [test.input for test in tests])
        # A judgement without tests gets one reply, passing a blank test if it compiles.
        for position, (test, (status, stdout, stderr)) in enumerate(
                zip(tests or [TestCase("")], replies), start=1):
            if status == "scratch":
                raise SandboxEnvironmentError(f"judge cannot set up its scratch directory: {stderr}")
            if status == "syntax":
                verdict, failures = Verdict.COMPILATION_ERROR, [Failure(0, "", None, stderr)]
                continue
            if status != 0:  # a timeout (None) or a runtime error, the last reply
                verdict = Verdict.TIMEOUT if status is None else Verdict.RUNTIME_ERROR
                error = (f"wall time limit of {limits.wall_time}s exceeded" if status is None
                         else stderr.decode(errors="replace").strip())
                failures = [Failure(position, test.input, test.expected_output, error)]
                continue
            produced = stdout.decode(errors="replace")
            if not compare_output(test.expected_output, produced):
                verdict = Verdict.WRONG_ANSWER
                failures.append(Failure(position, test.input, test.expected_output.rstrip("\n"),
                                        produced.rstrip("\n")))
    report = TestReport(verdict, failures)
    report.summary = format_report(report)
    return report


class _Runner:
    """A runner process (``_runner.py``) that forks one child per test run.

    It is started by path with this interpreter's default flags, in its
    own session so that a terminal's interrupt does not reach it, and with
    pipes as its standard streams: requests come on stdin, replies go on
    stdout, and it writes to stderr only when it fails. It exits when its
    stdin closes.
    """

    def __init__(self):
        self.executable = sys.executable
        try:
            self.process = subprocess.Popen(
                [self.executable, _RUNNER_SCRIPT], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
        except OSError as exc:
            raise SandboxEnvironmentError(f"failed to spawn interpreter: {exc}") from exc

    def run(self, job: tuple, inputs: list[str]) -> Iterator[tuple]:
        """Send the job's program and inputs as one request; yield each reply
        (see ``_runner.py``) up to the first whose status is not 0, as the
        runner does. A runner that went away raises OSError."""
        try:
            marshal.dump((*job, len(inputs)), self.process.stdin)
            for text in inputs:
                marshal.dump(text.encode(), self.process.stdin)
            self.process.stdin.flush()
        except BrokenPipeError:
            pass  # it went away: its reply below ends early
        for _ in range(max(len(inputs), 1)):
            reply = self.reply()
            yield reply
            if reply[0] != 0:
                return

    def reply(self) -> tuple:
        """The next reply to the request in progress."""
        try:
            return marshal.load(self.process.stdout)
        except (EOFError, ValueError):
            # The runner writes to its stderr only when it fails, so that pipe
            # is read only now that it has gone away: its last line names why.
            cause = self.process.stderr.read().decode(errors="replace").strip().splitlines()
            raise OSError(": ".join(["judge runner exited mid-request", *cause[-1:]]))

    def close(self) -> None:
        """Close its pipes and wait for it to end its test in progress and exit."""
        for pipe in (self.process.stdin, self.process.stdout, self.process.stderr):
            try:
                pipe.close()
            except OSError:
                pass
        self.process.wait()


@contextmanager
def _lease():
    """An idle runner of this interpreter, or a new one, given back when done.

    A runner whose request is cut short (it failed, or an interrupt came)
    is dropped, and its ``OSError`` is raised as ``SandboxEnvironmentError``.
    So there are at most as many runners as judgements that ever ran at once.
    """
    runner = _take_idle() or _Runner()
    try:
        yield runner
    except BaseException as exc:
        runner.close()
        if isinstance(exc, OSError):
            raise SandboxEnvironmentError(f"judge runner failed: {exc}") from exc
        raise
    with _IDLE_LOCK:
        _IDLE.append(runner)


def _take_idle() -> _Runner | None:
    """An idle runner that is alive and runs this interpreter; others are stopped."""
    while True:
        with _IDLE_LOCK:
            if not _IDLE:
                return None
            runner = _IDLE.pop()
        if runner.process.poll() is None and runner.executable == sys.executable:
            return runner
        runner.close()


@atexit.register
def _close_idle() -> None:
    with _IDLE_LOCK:
        runners, _IDLE[:] = list(_IDLE), []
    for runner in runners:
        runner.close()


# Value fields shown inside code fences; trailing newlines would render
# as blank lines before the closing fence.
_FENCED_FIELDS = ("test_input", "expected_output", "generated_output")


def format_report(report: TestReport) -> str:
    """Render a report to the fixed feedback text, under ``DEFAULT_ISSUE_TITLE``."""

    def render(template: str, **fields) -> str:
        for name in _FENCED_FIELDS:
            if isinstance(fields.get(name), str):
                fields[name] = fields[name].rstrip("\n")
        return render_template(template, fields)

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
    accepted_params = {"wall_time": POSITIVE_NUMBER, "memory_bytes": POSITIVE_INTEGER}

    def __init__(self, config: FlowConfig):
        super().__init__(config)
        params = config.params
        # A float, so that a Timeout's text reads "1.0s" for a wall time of 1.
        self.limits = ExecutionLimits(wall_time=float(params.get("wall_time", DEFAULT_WALL_TIME)),
                                      memory_bytes=params.get("memory_bytes", DEFAULT_MEMORY_BYTES))

    def _step(self, message: Message, ctx: RunContext) -> dict:
        raw_tests = message.payload["public_tests"]
        if not isinstance(raw_tests, list):
            raise FlowError("payload key 'public_tests' must be a list of tests",
                            instance_id=self.instance_id)
        tests = []
        for i, entry in enumerate(raw_tests):
            if not isinstance(entry, dict) or "input" not in entry:
                raise FlowError(f"test #{i + 1} under 'public_tests' needs an 'input' field",
                                instance_id=self.instance_id)
            tests.append(TestCase(input=entry["input"],
                                  expected_output=entry.get("expected_output", "")))
        report = run_tests(message.payload["code"], tests, limits=self.limits)
        return {
            "verdict": report.verdict.value,
            "testing_results_summary": report.summary,
        }
