"""Evaluation harness: run variants over problems, aggregate, report.

Estimates are pass@1 solve rates in percent with percentile-bootstrap
confidence intervals (numpy's PCG64 index draw, written out in ``_pcg``
and made once per sample size per report; numpy's linear-interpolation
quantiles, taken as order statistics of the resampled solved counts).
Reports are deterministic functions of the persisted records plus run
metadata, so regenerating a report never changes its bytes.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import json
import logging
import sys
import threading
import time
from array import array
from bisect import bisect_left
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

from ._pcg import Draws
from ._util import (BOOLEAN, DATE, INTEGER, MAP, NUMBER, POSITIVE_INTEGER, TEXT, TEXT_LIST,
                    add_months, check_fields, month_floor, replace_file)
from .ccflows import VariantSettings, build_variant, parse_variant, problem_payload
from .core import ROUNDS_USED_KEY, Message, RunContext, create_flow, package_input, run
from .dataset import BUCKET_LABELS, BUCKET_ORDER, DEFAULT_CUTOFF, Problem, bucket_key
from .errors import ENVIRONMENT_ERRORS, ConfigError, FlowError, NestflowError, ReplayDivergenceError
from .sandbox import DEFAULT_ISSUE_TITLE, ExecutionLimits, Verdict, run_tests
from .trace import TraceSink, normalize_trace, read_trace

logger = logging.getLogger(__name__)

DEFAULT_RESAMPLES = 1000
DEFAULT_LEVEL = 0.95
# A temporal series' windows span two release months, each a month after the last.
WINDOW_SPAN_MONTHS = 2
WINDOW_STEP_MONTHS = 1
EMPTY_CELL = "--"


@dataclass(frozen=True)
class SolveRate:
    """Solve rate in percent with an optional confidence interval."""

    point: float
    ci_low: float | None
    ci_high: float | None
    n: int


@dataclass(frozen=True)
class WindowPoint:
    start: dt.date
    end: dt.date
    rate: SolveRate


@dataclass(frozen=True)
class RunRecord:
    problem_id: str
    variant: str
    solved: bool
    rounds_used: int
    release_date: str
    trace_ref: str
    wall_time: float
    verdict: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        # verdict and error are left out when unset; no other field can be None.
        return {key: value for key, value in asdict(self).items() if value is not None}

    @classmethod
    def from_dict(cls, doc) -> "RunRecord":
        """The record in ``doc``; ConfigError unless it is a map holding every
        required field, each of its type."""
        if not isinstance(doc, dict):
            raise ConfigError(f"a record must be a JSON object, got {type(doc).__name__}")
        check_fields(doc, _RECORD_FIELDS, "a record",
                     required=[f.name for f in fields(cls) if f.default is MISSING])
        return cls(**{f.name: doc.get(f.name) for f in fields(cls)})


# What each field of a record must hold.
_RECORD_FIELDS = {
    **dict.fromkeys(("problem_id", "variant", "trace_ref"), TEXT), "release_date": DATE,
    "solved": BOOLEAN, "rounds_used": INTEGER, "wall_time": NUMBER,
    **dict.fromkeys(("verdict", "error"), ("text or null", lambda v: v is None or isinstance(v, str))),
}


def append_record(path: str | Path, record: RunRecord) -> None:
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def read_records(path: str | Path) -> list[RunRecord]:
    """The records in a records file.

    A last line without its newline that is not a whole record was torn
    by an interrupted append: it is dropped with a warning. A file that
    cannot be read, or any other line that is not a record, raises
    ConfigError naming the file (and the line): the run directory is corrupt.
    """
    path = Path(path)
    if not path.exists():
        return []
    records, number = [], 0
    try:
        body, _, tail = path.read_text(encoding="utf-8").rpartition("\n")
        for number, line in enumerate(body.split("\n"), 1):
            if line.strip():
                records.append(_parse_record(line))
    except (OSError, ValueError, ConfigError) as exc:
        detail = f"{exc} ({path}, line {number})" if number else f"cannot read {path}: {exc}"
        raise ConfigError(f"run directory is corrupt: {detail}") from exc
    if tail.strip():
        try:
            records.append(_parse_record(tail))
        except (ValueError, ConfigError) as exc:
            logger.warning("%s: dropping a torn last record (%s)", path, exc)
    return records


def _parse_record(line: str | bytes) -> RunRecord:
    """One line of a records file; ValueError or ConfigError unless a whole record."""
    return RunRecord.from_dict(json.loads(line))


def _end_last_line(path: Path) -> None:
    """Make a records file end in a newline before more records are appended:
    a torn last line is cut off, a whole one is terminated."""
    if not path.exists():
        return
    with path.open("rb+") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return
        start = data.rfind(b"\n") + 1
        try:
            _parse_record(data[start:])
            fh.write(b"\n")
        except (ValueError, ConfigError):
            fh.truncate(start)


def pass_at_1(outcomes: list[bool]) -> float:
    """Fraction of solved problems, in percent."""
    if not outcomes:
        raise ValueError("pass_at_1 needs at least one outcome")
    return 100.0 * sum(outcomes) / len(outcomes)


class BootstrapDraws:
    """The resample indices for one seed and resample count, drawn once per size.

    Resample b of a sample of size n is row b of
    ``numpy.random.default_rng(seed).integers(0, n, size=(resamples, n))``,
    drawn without numpy (see ``_pcg``). The rates of one report share an
    instance, so that each size is drawn once per report.
    """

    def __init__(self, resamples: int, seed: int):
        if resamples < 1:
            raise ValueError("resamples must be >= 1")
        self.resamples = resamples
        self._draws = Draws(seed)
        self._index: dict[int, list] = {}  # by size: _columns or _occurrences

    def sorted_counts(self, outcomes: list[bool]) -> bytes | list[int]:
        """The solved count of each resample of ``outcomes``, sorted."""
        n = len(outcomes)
        if n not in self._index:
            self._index[n] = self._columns(n) if n < 256 else self._occurrences(n)
        if n < 256:
            # A column mapped to 1 where the drawn problem is solved is a number
            # whose byte b belongs to resample b. In the columns' sum, byte b is
            # resample b's solved count, which is at most n < 256 and so never carries.
            solved = bytes(outcomes).ljust(256, b"\0")
            total = sum(int.from_bytes(column.translate(solved), "little")
                        for column in self._index[n])
            # A counting sort: a bytes scan per count from 0 to n beats sorted() on
            # the small samples of reports.
            counts = total.to_bytes(self.resamples, "little")
            return b"".join(bytes([k]) * counts.count(k) for k in range(n + 1))
        # In the sum of the solved problems' occurrences, lane b is resample b's count.
        total = sum(lanes for lanes, solved in zip(self._index[n], outcomes) if solved)
        return sorted(array("I", total.to_bytes(4 * self.resamples, sys.byteorder)))

    def _columns(self, n: int) -> list[bytes]:
        """Column c: the c-th draw of each resample, one byte each."""
        flat = self._draws.integers(n, self.resamples * n).tobytes()
        return [flat[c::n] for c in range(n)]

    def _occurrences(self, n: int) -> list[int]:
        """For each problem, a number whose 32-bit lane b is how often
        resample b draws it."""
        resamples, draws = self.resamples, self._draws.integers(n, self.resamples * n)
        counts = array("I", bytes(4 * n * resamples))
        for b in range(resamples):
            for j in draws[b * n:(b + 1) * n]:
                counts[j * resamples + b] += 1
        raw, width = counts.tobytes(), 4 * resamples
        return [int.from_bytes(raw[width * j:width * (j + 1)], sys.byteorder) for j in range(n)]


def solve_rates(samples: list[list[bool]], draws: BootstrapDraws,
                level: float) -> list[SolveRate]:
    """Each sample's solve rate, with its percentile bootstrap interval.

    The interval is the (alpha, 1-alpha) quantiles, alpha being
    ``(1 - level) / 2``, of the means of the resamples that ``draws``
    gives, widened if needed to contain the point estimate. Each mean is
    k/n for a count k of solved problems, so the quantiles are taken from
    the sorted counts (see ``_linear_quantile``), equal to numpy's
    ``linear`` quantiles of the means. A sample whose outcomes are all
    alike has that outcome in every resample, so it is not resampled.
    """
    if not all(samples):
        raise ValueError("a solve rate needs at least one outcome")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    alpha = (1.0 - level) / 2.0
    rates = []
    for outcomes in samples:
        n = len(outcomes)
        low = high = point = sum(outcomes) / n
        if 0.0 < point < 1.0:
            counts = draws.sorted_counts(outcomes)
            low = min(_linear_quantile(counts, n, alpha), point)
            high = max(_linear_quantile(counts, n, 1.0 - alpha), point)
        rates.append(SolveRate(point=pass_at_1(outcomes), n=n, ci_low=100.0 * low,
                               ci_high=100.0 * high))
    return rates


def _linear_quantile(counts: bytes | list[int], n: int, q: float) -> float:
    """The q quantile of the means ``counts / n``, ``counts`` sorted, by
    numpy's ``linear`` rule written out, so that it is the same float."""
    last = len(counts) - 1
    index = last * q
    below = int(index)  # its floor, as index >= 0
    gamma = index - below
    a, b = counts[min(below, last)] / n, counts[min(below + 1, last)] / n
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def sliding_window(dated_outcomes: list[tuple[dt.date, bool]], draws: BootstrapDraws,
                   level: float) -> list[WindowPoint]:
    """Solve rate over a window sliding across release months.

    Windows are [start, start + WINDOW_SPAN_MONTHS) aligned to month
    starts, stepping by WINDOW_STEP_MONTHS; windows containing no problems
    are skipped.
    """
    if not dated_outcomes:
        return []
    ordered = sorted(dated_outcomes, key=lambda pair: pair[0])
    days = [day for day, _ in ordered]
    solved = [outcome for _, outcome in ordered]
    windows = {}
    start = month_floor(days[0])
    while start <= days[-1]:
        end = add_months(start, WINDOW_SPAN_MONTHS)
        # The outcomes dated in [start, end), a slice of the date-sorted ones.
        outcomes = solved[bisect_left(days, start):bisect_left(days, end)]
        if outcomes:
            windows[(start, end)] = outcomes
        start = add_months(start, WINDOW_STEP_MONTHS)
    rates = solve_rates(list(windows.values()), draws, level)
    return [WindowPoint(start=start, end=end, rate=rate)
            for (start, end), rate in zip(windows, rates)]


def temporal_series_csv(by_variant: dict[str, list[WindowPoint]]) -> str:
    """The window series as CSV, losslessly (floats as their repr)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["variant", "window_start", "window_end", "point", "ci_low", "ci_high", "n"])
    for variant in sorted(by_variant):
        for wp in by_variant[variant]:
            writer.writerow([variant, wp.start.isoformat(), wp.end.isoformat(),
                             repr(wp.rate.point), repr(wp.rate.ci_low),
                             repr(wp.rate.ci_high), wp.rate.n])
    return buffer.getvalue()


def format_cell(rate: SolveRate | None, baseline: SolveRate | None = None) -> str:
    """One table cell: absolute "71.8 ±11.0", delta "+9.3 ±9.7", or "--"."""
    if rate is None or rate.n == 0:
        return EMPTY_CELL
    half = (rate.ci_high - rate.ci_low) / 2.0 if rate.ci_low is not None else 0.0
    if baseline is None:
        return f"{rate.point:.1f} ±{half:.1f}"
    delta = round(rate.point - baseline.point, 1)
    if delta == 0:
        delta = 0.0
    return f"{delta:+.1f} ±{half:.1f}"


def _table_cells(stats: dict[str, dict[str, SolveRate | None]], variants: list[str] | None,
                 baseline_variant: str) -> tuple[list[str], list[list[str]]]:
    """The non-empty bucket columns, and one row of cells per variant."""
    variants = list(variants if variants is not None else stats)
    buckets = [b for b in BUCKET_ORDER
               if any(stats.get(v, {}).get(b) is not None for v in variants)]
    rows = []
    baseline_stats = stats.get(baseline_variant, {})
    for variant in variants:
        cells = [variant]
        for bucket in buckets:
            rate = stats.get(variant, {}).get(bucket)
            if variant == baseline_variant:
                cells.append(format_cell(rate))
            else:
                baseline = baseline_stats.get(bucket)
                if baseline is None or rate is None:
                    cells.append(EMPTY_CELL if rate is None else format_cell(rate))
                else:
                    cells.append(format_cell(rate, baseline))
        rows.append(cells)
    return buckets, rows


def render_results_table(stats: dict[str, dict[str, SolveRate | None]],
                         variants: list[str] | None = None,
                         baseline_variant: str = "Code") -> str:
    """Plain-text results table: baseline row absolute, other rows as deltas."""
    buckets, rows = _table_cells(stats, variants, baseline_variant)
    group_row = ["Flow"] + [BUCKET_LABELS[b][0] for b in buckets]
    label_row = [""] + [BUCKET_LABELS[b][1] for b in buckets]
    # Blank out repeated group names so each source reads as one span.
    for i in range(len(group_row) - 1, 1, -1):
        if group_row[i] == group_row[i - 1]:
            group_row[i] = ""
    table = [group_row, label_row] + rows
    widths = [max(len(row[col]) for row in table) for col in range(len(table[0]))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 1:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def results_table_csv(stats: dict[str, dict[str, SolveRate | None]],
                      variants: list[str] | None = None,
                      baseline_variant: str = "Code") -> str:
    buckets, rows = _table_cells(stats, variants, baseline_variant)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["variant"] + buckets)
    writer.writerows(rows)
    return buffer.getvalue()


@dataclass
class EvalSettings:
    """Everything evaluate_grid needs besides the problems and variants."""

    out_dir: Path | None
    backend: object
    variant_settings: VariantSettings = VariantSettings()
    cutoff: dt.date = DEFAULT_CUTOFF
    workers: int = 1
    seed: int = 0
    resume: bool = True
    cache: object | None = None


@dataclass
class GridResult:
    records: list[RunRecord]
    new_runs: int


def run_variant(variant_name: str, variant_settings: VariantSettings, payload: dict,
                ctx: RunContext, created_by: str = "harness") -> Message:
    """Build a variant's flow and run it on one input payload."""
    flow = create_flow(build_variant(variant_name, variant_settings))
    return run(flow, package_input(payload, created_by=created_by), ctx)


def _trace_ref(problem_id: str, variant_name: str) -> str:
    return f"{problem_id}/{variant_name}/trace.log.gz"


def _remove_trace(path: Path) -> None:
    """Delete an aborted pair's trace and the directories that held only it."""
    path.unlink(missing_ok=True)
    for directory in (path.parent, path.parent.parent):
        try:
            directory.rmdir()
        except OSError:  # not empty: other pairs' traces are there
            return


@dataclass(frozen=True)
class PendingPair:
    """A pair whose flow has ended and whose hidden-test judgement is to come."""

    problem: Problem
    variant: str
    variant_settings: VariantSettings
    trace_path: Path | None
    code: str | None
    rounds: int
    error: str | None
    flow_s: float

    def judge(self) -> tuple[RunRecord, str | None]:
        """Judge the final program on the hidden tests: the record and the program.

        The record's ``wall_time`` is the pair's own work, its flow's time
        plus this judgement's, not any time it waited in between. An
        environment error removes the pair's trace.
        """
        started = time.perf_counter()
        verdict = None
        if self.error is None:
            limits = ExecutionLimits(wall_time=self.variant_settings.wall_time,
                                     memory_bytes=self.variant_settings.memory_bytes)
            try:
                verdict = run_tests(self.code, list(self.problem.hidden_tests),
                                    limits=limits).verdict.value
            except ENVIRONMENT_ERRORS:
                if self.trace_path is not None:
                    _remove_trace(self.trace_path)
                raise
        record = RunRecord(
            problem_id=self.problem.id,
            variant=self.variant,
            solved=verdict == Verdict.ALL_PASSED.value,
            rounds_used=self.rounds,
            release_date=self.problem.release_date.isoformat(),
            trace_ref=_trace_ref(self.problem.id, self.variant),
            wall_time=round(self.flow_s + time.perf_counter() - started, 3),
            verdict=verdict,
            error=self.error,
        )
        return record, self.code


def run_pair(problem: Problem, variant_name: str, settings: EvalSettings) -> PendingPair:
    """Run one (problem, variant) pair's flow, the first of its two stages.

    The returned pair's ``judge()`` is the second: the hidden-test
    judgement, which gives the record and the final program. ``eval`` runs
    it beside the next pair's flow, ``run`` right after this one. The
    trace goes to ``<out_dir>/<trace_ref>``, or stays in memory when
    ``out_dir`` is None. An environment error aborts the pair and removes
    its trace.
    """
    started = time.perf_counter()
    trace_path = (settings.out_dir / _trace_ref(problem.id, variant_name)
                  if settings.out_dir is not None else None)
    vsettings = settings.variant_settings
    error = None
    code = None
    rounds = 0
    try:
        with TraceSink(trace_path) as sink:
            ctx = RunContext(trace=sink, backends={vsettings.backend: settings.backend},
                             cache=settings.cache)
            try:
                output = run_variant(variant_name, vsettings, problem_payload(problem), ctx)
            except FlowError as exc:
                error = str(exc)
                logger.warning("run failed for %s/%s: %s", problem.id, variant_name, exc)
            else:
                code = output.payload.get("code")
                rounds = output.payload.get(ROUNDS_USED_KEY, 0)
    except ENVIRONMENT_ERRORS:
        if trace_path is not None:
            _remove_trace(trace_path)
        raise
    if error is None and code is None:
        error = "no program extracted"
    return PendingPair(problem, variant_name, vsettings, trace_path, code, rounds, error,
                       time.perf_counter() - started)


class _Unrecorded:
    """Replay's backend. It is asked only when the recorded responses have
    no answer, that is, for a request the original run never made."""

    def complete(self, request):
        raise ReplayDivergenceError(
            f"request {request.fingerprint()} not present in recorded responses; "
            f"last turn: {request.turns[-1].content[:120]!r}")


@dataclass(frozen=True)
class Replay:
    """Both normalized traces of a replayed pair, and the replay's failure."""

    recorded: list[dict]
    replayed: list[dict]
    error: str | None

    @property
    def identical(self) -> bool:
        return self.recorded == self.replayed


def replay_pair(run_dir: str | Path, problem_id: str, variant_name: str) -> Replay:
    """Re-run a recorded pair, answering every request from its trace.

    The trace is ``trace.log.gz``, or ``trace.log`` in a run directory
    written before traces were compressed. The run goes through
    ``run_variant`` with the variant settings from ``run_meta.json`` and
    the recorded input message. The recorded
    responses, keyed by request fingerprint, are the run's response cache;
    its backend raises ReplayDivergenceError on a miss, so the cache's
    ``put`` is never reached. A FlowError is kept in ``error``: whether the
    replay diverged is decided by the normalized traces alone. A run
    directory that cannot be read back is a ConfigError.
    """
    trace_path = Path(run_dir) / _trace_ref(problem_id, variant_name)
    if not trace_path.exists():
        trace_path = trace_path.with_suffix("")  # as written before traces were compressed
    if not trace_path.exists():
        raise ConfigError(f"no trace at {trace_path}.gz or {trace_path}")
    try:
        recorded = read_trace(trace_path)
        settings = dict(read_run_meta(run_dir)["variant_settings"])
    except (NestflowError, OSError, KeyError) as exc:
        raise ConfigError(f"cannot replay from {run_dir}: {exc}") from exc
    unknown = sorted(set(settings) - {f.name for f in fields(VariantSettings)})
    if unknown:
        raise ConfigError(f"run_meta.json has unknown variant settings: {unknown}")
    vsettings = VariantSettings(**settings)
    try:
        responses = {e.body["fingerprint"]: e.body["response"]
                     for e in recorded if e.kind == "backend_response"}
        message = next(e.body["message"] for e in recorded if e.kind == "message_in")
        payload, created_by = message["payload"], message["created_by"]
    except StopIteration:
        raise ConfigError(f"trace at {trace_path} has no input message") from None
    except (KeyError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"trace at {trace_path} cannot be replayed: {detail}") from exc
    ctx = RunContext(backends={vsettings.backend: _Unrecorded()}, cache=responses)
    error = None
    try:
        run_variant(variant_name, vsettings, payload, ctx, created_by=created_by)
    except FlowError as exc:
        error = str(exc)
    return Replay(normalize_trace(recorded), normalize_trace(ctx.trace.events), error)


def write_run_meta(out_dir: Path, problems: list[Problem], variants: list[str],
                   settings: EvalSettings,
                   restart_hint: str = "eval --no-resume starts over") -> None:
    """Write the run directory's ``run_meta.json``, which reports and replay read.

    With ``settings.resume``, an existing file is checked and extended: if
    it holds other settings this raises ConfigError naming each of them and,
    in parentheses, ``restart_hint``, and touches no file; otherwise every
    ``problems`` entry it holds is kept, since its records may be in the
    directory. Without it, the file is written afresh. The file is replaced
    whole, so a write cut short leaves the old one.
    """
    meta = {
        "seed": settings.seed,
        "cutoff": settings.cutoff.isoformat(),
        "resamples": DEFAULT_RESAMPLES,
        "level": DEFAULT_LEVEL,
        "variants": list(variants),
        "variant_settings": asdict(settings.variant_settings),
        "problems": {
            p.id: {
                "source": p.source,
                "difficulty": p.difficulty,
                "release_date": p.release_date.isoformat(),
            }
            for p in problems
        },
    }
    meta = json.loads(json.dumps(meta))  # as read back from the file
    path = out_dir / "run_meta.json"
    if settings.resume and path.exists():
        old = read_run_meta(out_dir)
        changes = _settings_changes(old, meta)
        if changes:
            raise ConfigError(f"cannot resume {out_dir} with other settings "
                              f"({restart_hint}): {'; '.join(changes)}")
        meta["problems"] = {**old.get("problems", {}), **meta["problems"]}
    out_dir.mkdir(parents=True, exist_ok=True)
    replace_file(path, (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"))


# What each field of run_meta.json must hold, where it is present.
_META_FIELDS = {"seed": ("an integer of at least 0", lambda v: type(v) is int and v >= 0),
                "resamples": POSITIVE_INTEGER,
                "level": ("a number between 0 and 1", lambda v: type(v) in (int, float) and 0 < v < 1),
                "cutoff": DATE, "variants": TEXT_LIST,
                "variant_settings": MAP,
                "problems": ("a map of maps", lambda v: isinstance(v, dict)
                             and all(isinstance(x, dict) for x in v.values()))}
# What each variant setting in run_meta.json must hold, where it is present.
_VARIANT_FIELDS = {"backend": TEXT, "model": TEXT, "max_rounds": INTEGER, "wall_time": NUMBER,
                   "memory_bytes": INTEGER, "interactive_plan": BOOLEAN}
# Variant settings that are constants now, with the one value each ever held.
RETIRED_SETTINGS = {"temperature": 0.0, "max_tokens": 2048, "issue_title": DEFAULT_ISSUE_TITLE}


def read_run_meta(out_dir: str | Path) -> dict:
    """The run directory's ``run_meta.json``; ConfigError if it is missing,
    cannot be read or does not parse, or a field or variant setting has the
    wrong type. A retired variant setting that holds its constant is dropped;
    any other value stays, and replay and resume refuse it."""
    path = Path(out_dir) / "run_meta.json"
    where = f"run directory is corrupt: cannot read {path}"
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"run directory is incomplete: it has no {path.name} ({path})") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ConfigError(f"{where}: it does not hold a JSON object")
    check_fields(meta, _META_FIELDS, where)
    settings = meta.get("variant_settings", {})
    check_fields(settings, _VARIANT_FIELDS, f"{where}: variant_settings")
    for key, value in RETIRED_SETTINGS.items():
        if key in settings and settings[key] == value:
            del settings[key]
    return meta


def _settings_changes(old: dict, new: dict) -> list[str]:
    """``key: old -> new`` for each setting a resumed run must keep that differs."""
    def settings(meta: dict) -> dict:
        flat = {key: meta.get(key) for key in ("seed", "cutoff", "resamples", "level", "variants")}
        flat.update((f"variant_settings.{key}", value)
                    for key, value in meta.get("variant_settings", {}).items())
        return flat

    before, after = settings(old), settings(new)
    return [f"{key}: {json.dumps(before.get(key))} -> {json.dumps(after.get(key))}"
            for key in sorted(before.keys() | after.keys()) if before.get(key) != after.get(key)]


def evaluate_grid(problems: list[Problem], variants: list[str],
                  settings: EvalSettings) -> GridResult:
    """Run every (problem, variant) pair not already recorded.

    A pair's flow (``run_pair``) runs on one of ``settings.workers`` flow
    workers: the calling thread and ``workers - 1`` more. When it ends, its
    hidden-test judgement (``PendingPair.judge``) is queued, first in first
    out, for a pool of ``workers`` judge threads, which append the records,
    and the flow worker goes on to the next pair. So ``workers`` bounds the
    flows, and the backend calls, in flight, and up to twice as many
    judgements can run at once. Record order on disk is completion order,
    which with one worker is the order the pairs run in.

    A failing pair becomes a solved=false record with an error note. Any
    other error in either stage (an environment error, an ``OSError``, an
    interrupt) fails the grid: no flow starts after it is seen, queued
    judgements are dropped, each pair left without a record loses its
    trace, and the error is raised once the other threads have ended.
    Resuming a run directory whose ``run_meta.json`` holds other settings
    (see ``write_run_meta``), or whose ``records.jsonl`` does not read back
    (see ``read_records``), is a ConfigError, and leaves every file as it
    was. So is an empty variant list, or one that names a variant twice.
    """
    if not variants:
        raise ConfigError("the variant list is empty")
    for index, variant in enumerate(variants):
        parse_variant(variant)
        if variant in variants[:index]:
            raise ConfigError(f"variant {variant!r} is listed more than once")
    out_dir = Path(settings.out_dir)
    records_path = out_dir / "records.jsonl"
    existing = ({(r.problem_id, r.variant): r for r in read_records(records_path)}
                if settings.resume else {})
    write_run_meta(out_dir, problems, variants, settings)
    if not settings.resume and records_path.exists():
        records_path.unlink()
    _end_last_line(records_path)
    by_id = {p.id: p for p in problems}
    todo = [(pid, variant) for pid in sorted(by_id) for variant in variants
            if (pid, variant) not in existing]
    lock = threading.Lock()
    results: dict[tuple[str, str], RunRecord] = dict(existing)
    queue = iter(todo)
    started: list[tuple[str, str]] = []
    errors: list[BaseException] = []
    failed = threading.Event()

    def stage(work, *args) -> None:
        """One stage of a pair, unless the grid has failed; an error fails it."""
        if failed.is_set():
            return
        try:
            work(*args)
        except BaseException as exc:
            with lock:
                errors.append(exc)
            failed.set()

    def judge(pending: PendingPair) -> None:
        record, _ = pending.judge()
        with lock:
            append_record(records_path, record)
            results[(record.problem_id, record.variant)] = record

    def flow(key: tuple[str, str]) -> None:
        judged.append(judges.submit(stage, judge, run_pair(by_id[key[0]], key[1], settings)))

    def flows() -> None:
        """A flow worker: it takes the next pair until none is left or the grid fails."""
        while not failed.is_set():
            with lock:
                key = next(queue, None)
                if key is None:
                    return
                started.append(key)
            stage(flow, key)

    workers = max(1, settings.workers)
    judges = ThreadPoolExecutor(workers, thread_name_prefix="nestflow-judge")
    helpers = ThreadPoolExecutor(max(1, workers - 1), thread_name_prefix="nestflow-flow")
    judged: list[Future] = []
    try:
        flowing = [helpers.submit(flows) for _ in range(workers - 1)]
        flows()  # the calling thread is the first flow worker
        # Not joins: on Python 3.11 an interrupted join marks a running thread as ended.
        wait(flowing)
        wait(judged)  # every flow has queued its judgement by now
    except BaseException:  # an interrupt: start nothing more
        failed.set()
        raise
    finally:
        helpers.shutdown()
        judges.shutdown(cancel_futures=True)
        for key in started:
            if key not in results:
                _remove_trace(out_dir / _trace_ref(*key))
    if errors:
        raise errors[0]
    ordered = [results[key] for key in sorted(results)]
    logger.info("grid complete: %d records (%d new)", len(ordered), len(todo))
    return GridResult(records=ordered, new_runs=len(todo))


def stats_from_records(records: list[RunRecord], problem_meta: dict[str, dict],
                       cutoff: dt.date, draws: BootstrapDraws,
                       level: float) -> dict[str, dict[str, SolveRate]]:
    """Per-variant, per-bucket solve rates from sorted records."""
    grouped: dict[tuple[str, str], list[bool]] = {}
    for record in sorted(records, key=lambda r: (r.problem_id, r.variant)):
        meta = problem_meta[record.problem_id]
        bucket = bucket_key(SimpleNamespace(
            source=meta["source"], difficulty=meta["difficulty"],
            release_date=dt.date.fromisoformat(record.release_date)), cutoff)
        grouped.setdefault((record.variant, bucket), []).append(record.solved)
    rates = solve_rates(list(grouped.values()), draws, level)
    stats: dict[str, dict[str, SolveRate]] = {}
    for (variant, bucket), rate in zip(grouped, rates):
        stats.setdefault(variant, {})[bucket] = rate
    return stats


def write_report(out_dir: str | Path) -> dict[str, Path]:
    """Regenerate the report files from records + run metadata.

    Output depends only on run_meta.json and records.jsonl, so repeated
    calls produce byte-identical files. All three are rendered before any
    is written, and each replaces its old copy whole, so a failed write
    leaves no torn file. A ``run_meta.json`` without a field the report
    needs, or without an entry (its source and difficulty) for a recorded
    problem, is a ConfigError: the run directory is incomplete.
    """
    out_dir = Path(out_dir)
    meta = read_run_meta(out_dir)
    records = read_records(out_dir / "records.jsonl")
    problems = meta.get("problems", {})
    missing = [key for key in ("seed", "cutoff", "resamples", "level", "variants") if key not in meta]
    missing += sorted({f"problems.{r.problem_id}" for r in records
                       if not {"source", "difficulty"} <= problems.get(r.problem_id, {}).keys()})
    if missing:
        raise ConfigError(f"run directory is incomplete: {out_dir / 'run_meta.json'} lacks {missing}")
    draws, level = BootstrapDraws(meta["resamples"], meta["seed"]), meta["level"]
    stats = stats_from_records(records, problems, dt.date.fromisoformat(meta["cutoff"]),
                               draws, level)
    variants = [v for v in meta["variants"] if v in stats]
    baseline = "Code" if "Code" in variants else (variants[0] if variants else "Code")
    records.sort(key=lambda r: (r.problem_id, r.variant))
    series = {variant: sliding_window([(dt.date.fromisoformat(r.release_date), r.solved)
                                       for r in records if r.variant == variant], draws, level)
              for variant in variants}
    texts = {"table": ("results_table.txt", render_results_table(stats, variants, baseline)),
             "csv": ("results_table.csv", results_table_csv(stats, variants, baseline)),
             "temporal": ("temporal_series.csv", temporal_series_csv(series))}
    paths = {}
    for key, (name, text) in texts.items():
        paths[key] = out_dir / name
        replace_file(paths[key], text.encode("utf-8"))
    return paths
