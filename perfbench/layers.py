"""Per-layer tracing from outside the program.

``install`` wraps the public callables of each nestflow layer, both the
module attribute and every name other nestflow modules imported it
under, so that each call records a span: name, start, end, parent and
self time (duration minus the time its child spans cover, computed on
the calling thread's span stack). Spans are kept in memory and written
out by ``Tracer.write`` when the run ends. High-volume leaves (trace
emits, request fingerprints, cache operations, interpreter spawns,
bootstrap calls) are kept as per-name totals instead of one record per
call; they still take part in the parent's self-time accounting.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import subprocess
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end, self)
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.judgement_keys: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, int] = {}

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.totals.clear()
            self.judgement_keys.clear()

    def call(self, name: str, fn, args=(), kwargs=None, keep: bool = True):
        """Run ``fn`` inside a span called ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [next(self._ids), 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self_time = duration - frame[1]
            with self._lock:
                entry = self.totals[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_time
                if keep:
                    thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
                    self.spans.append((frame[0], parent, name, thread, start, end, self_time))

    def wrap(self, name: str, fn, keep: bool = True):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, keep)
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_time(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with (directory / "spans.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "thread", "start_s", "end_s", "self_s"])
            writer.writerows(self.spans)
        with (directory / "span_totals.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "count", "total_s", "self_s"])
            for name in sorted(self.totals):
                writer.writerow([name, *self.totals[name]])


def _nestflow_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "nestflow" or n.startswith("nestflow.")) and m is not None]


def _replace_everywhere(original, replacement) -> None:
    """Point every nestflow module attribute bound to ``original`` at ``replacement``."""
    for module in _nestflow_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, module, attr: str, name: str, keep: bool = True) -> None:
    original = getattr(module, attr, None)
    if callable(original):
        _replace_everywhere(original, tracer.wrap(name, original, keep))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, keep: bool = True) -> None:
    original = cls.__dict__.get(attr) if cls is not None else None
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, original.__func__, keep)))
    elif callable(original):
        setattr(cls, attr, tracer.wrap(name, original, keep))


def _spawn_kind(argv) -> str:
    return "compile" if any("py_compile" in str(part) for part in argv) else "test"


def _traced_subprocess(tracer: Tracer):
    """A stand-in for the sandbox's ``subprocess`` module whose ``run`` is timed.

    Spawns are sorted by their argv into compile and test runs; a test
    run that exceeds its wall time is counted as a timeout instead.
    """
    proxy = types.ModuleType("subprocess")
    proxy.__dict__.update(vars(subprocess))

    def run(argv, *args, **kwargs):
        start = time.perf_counter()
        kind = None
        try:
            result = tracer.call("sandbox.spawn", subprocess.run, (argv, *args), kwargs, keep=False)
            kind = _spawn_kind(argv)
            return result
        except subprocess.TimeoutExpired:
            kind = "timeout"
            raise
        finally:
            if kind is not None:
                with tracer._lock:
                    entry = tracer.totals[f"sandbox.spawn_{kind}"]
                    entry[0] += 1
                    entry[1] += time.perf_counter() - start

    proxy.run = run
    return proxy


def _judgement_key(program, tests, limits=None, *rest, **kwargs) -> str:
    limits = kwargs.get("limits", limits)
    text = repr((program, [(t.input, t.expected_output) for t in tests], limits, rest,
                 sorted(kwargs.items())))
    return hashlib.sha256(text.encode()).hexdigest()


def install(tracer: Tracer) -> None:
    """Wrap each layer's public callables. Names that no longer exist are skipped."""
    import nestflow.backends as backends
    import nestflow.ccflows as ccflows
    import nestflow.cli as cli
    import nestflow.core as core
    import nestflow.dataset as dataset
    import nestflow.evalharness as evalharness
    import nestflow.sandbox as sandbox
    import nestflow.trace as trace

    # sandbox: judgements, with the distinct (program, tests, limits) keys seen.
    original_run_tests = sandbox.run_tests

    def run_tests(*args, **kwargs):
        key = _judgement_key(*args, **kwargs)
        with tracer._lock:
            tracer.judgement_keys.add(key)
        return original_run_tests(*args, **kwargs)

    _replace_everywhere(original_run_tests, tracer.wrap("sandbox.run_tests", run_tests))
    sandbox.subprocess = _traced_subprocess(tracer)
    # The harness's hidden-test judgement, as its own span around the sandbox's.
    if callable(getattr(evalharness, "run_tests", None)):
        evalharness.run_tests = tracer.wrap("evalharness.hidden_judge", evalharness.run_tests)

    for module, attr, keep in (
        (evalharness, "evaluate_grid", True),
        (evalharness, "run_pair", True),
        (evalharness, "write_report", True),
        (evalharness, "stats_from_records", True),
        (evalharness, "sliding_window", True),
        (evalharness, "read_records", True),
        (evalharness, "append_record", False),
        (evalharness, "bootstrap_ci", False),
        (dataset, "load_problems", True),
        (dataset, "load_problem_file", False),
        (ccflows, "build_variant", True),
        (ccflows, "problem_payload", True),
        (core, "create_flow", True),
        (core, "run", True),
        (backends, "cached_complete", True),
        (trace, "read_trace", True),
        (trace, "normalize_trace", True),
        (trace, "replay_backend", True),
        (cli, "load_backend_profile", True),
    ):
        _wrap_function(tracer, module, attr, f"{module.__name__.split('.')[-1]}.{attr}", keep)

    _wrap_method(tracer, backends.BackendRequest, "fingerprint", "backends.fingerprint", False)
    _wrap_method(tracer, getattr(backends, "ResponseCache", None), "get", "backends.cache_op", False)
    _wrap_method(tracer, getattr(backends, "ResponseCache", None), "put", "backends.cache_op", False)
    _wrap_method(tracer, getattr(backends, "ScriptedBackend", None), "complete",
                 "backends.backend_complete", False)
    _wrap_method(tracer, getattr(backends, "ScriptedBackend", None), "from_rules_file",
                 "backends.load_rules")
    for sink in ("TraceSink", "MemoryTraceSink", "NullTraceSink"):
        _wrap_method(tracer, getattr(trace, sink, None), "emit", "trace.emit", False)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, pairs: int, timed_s: float, workers: int,
                  trace_bytes: int, cache_bytes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, by name, as (value, unit)."""
    t = tracer
    judgements = t.count("sandbox.run_tests")
    compiles, tests, timeouts = (t.count(f"sandbox.spawn_{k}") for k in ("compile", "test", "timeout"))
    hops = t.count("core.run")
    calls = t.count("backends.cached_complete")
    reports = t.count("evalharness.write_report")
    commands = t.count("cli.command")
    grids = t.count("evalharness.evaluate_grid")
    ms = 1000.0
    return {
        "sandbox.judgements_per_pair": (_per(judgements, pairs), "count"),
        "sandbox.distinct_ratio": (_per(len(t.judgement_keys), judgements), "ratio"),
        "sandbox.judge_ms_per_call": (ms * _per(t.total("sandbox.run_tests"), judgements), "ms"),
        "sandbox.compile_spawns_per_pair": (_per(compiles, pairs), "count"),
        "sandbox.compile_ms_per_spawn": (ms * _per(t.total("sandbox.spawn_compile"), compiles), "ms"),
        "sandbox.test_spawns_per_pair": (_per(tests, pairs), "count"),
        "sandbox.test_ms_per_spawn": (ms * _per(t.total("sandbox.spawn_test"), tests), "ms"),
        "sandbox.timeouts_per_pair": (_per(timeouts, pairs), "count"),
        "sandbox.timeout_s_per_pair": (_per(t.total("sandbox.spawn_timeout"), pairs), "s"),
        "sandbox.wall_share": (_per(t.total("sandbox.run_tests"), workers * timed_s), "ratio"),
        "evalharness.run_pair_ms": (ms * _per(t.total("evalharness.run_pair"),
                                              t.count("evalharness.run_pair")), "ms"),
        "evalharness.hidden_judge_ms_per_pair": (ms * _per(t.total("evalharness.hidden_judge"), pairs), "ms"),
        "evalharness.worker_busy_ratio": (_per(t.total("evalharness.run_pair"), workers * timed_s), "ratio"),
        "evalharness.bootstrap_calls_per_report": (_per(t.count("evalharness.bootstrap_ci"), reports), "count"),
        "evalharness.bootstrap_ms_per_call": (ms * _per(t.total("evalharness.bootstrap_ci"),
                                                        t.count("evalharness.bootstrap_ci")), "ms"),
        "evalharness.report_s": (_per(t.total("evalharness.write_report"), reports), "s"),
        "evalharness.records_ms_per_pair": (ms * _per(t.total("evalharness.append_record")
                                                      + t.total("evalharness.read_records"), pairs), "ms"),
        "backends.calls_per_pair": (_per(calls, pairs), "count"),
        "backends.ms_per_call": (ms * _per(t.total("backends.cached_complete"), calls), "ms"),
        "backends.fingerprints_per_call": (_per(t.count("backends.fingerprint"), calls), "count"),
        "backends.cache_ms_per_op": (ms * _per(t.total("backends.cache_op"), t.count("backends.cache_op")), "ms"),
        "backends.cache_kb_per_pair": (_per(cache_bytes / 1024.0, pairs), "KB"),
        "trace.events_per_pair": (_per(t.count("trace.emit"), pairs), "count"),
        "trace.kb_written_per_pair": (_per(trace_bytes / 1024.0, pairs), "KB"),
        "trace.emit_us_per_event": (1e6 * _per(t.total("trace.emit"), t.count("trace.emit")), "us"),
        "trace.reads_per_replay": (_per(t.count("trace.read_trace"), pairs), "count"),
        "trace.read_ms_per_replay": (ms * _per(t.total("trace.read_trace"), pairs), "ms"),
        "trace.normalize_ms_per_replay": (ms * _per(t.total("trace.normalize_trace"), pairs), "ms"),
        "core.hops_per_pair": (_per(hops, pairs), "count"),
        "core.self_ms_per_hop": (ms * _per(t.self_time("core.run") + t.self_time("core.create_flow"), hops), "ms"),
        "ccflows.build_ms_per_pair": (ms * _per(t.total("ccflows.build_variant")
                                                + t.total("ccflows.problem_payload"), pairs), "ms"),
        "dataset.load_s": (_per(t.total("dataset.load_problems"), grids), "s"),
        "cli.self_ms_per_command": (ms * _per(t.self_time("cli.command")
                                              + t.self_time("cli.load_backend_profile"), commands), "ms"),
    }
