"""Evaluation harness: run variants over problems, aggregate, report.

Estimates are pass@1 solve rates in percent with percentile-bootstrap
confidence intervals (numpy PCG64 generator, one index draw for all
resamples, linear-interpolation quantiles). Reports are deterministic
functions of the persisted records plus run metadata, so regenerating a
report never changes its bytes.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

from ._util import add_months, month_floor, replace_file
from .ccflows import VariantSettings, build_variant, parse_variant, problem_payload
from .core import ROUNDS_USED_KEY, Message, RunContext, create_flow, package_input, run
from .dataset import BUCKET_LABELS, BUCKET_ORDER, DEFAULT_CUTOFF, Problem, bucket_key
from .errors import ENVIRONMENT_ERRORS, ConfigError, FlowError, NestflowError, ReplayDivergenceError
from .sandbox import ExecutionLimits, Verdict, run_tests
from .trace import TraceSink, normalize_trace, read_trace

logger = logging.getLogger(__name__)

DEFAULT_RESAMPLES = 1000
DEFAULT_LEVEL = 0.95
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
    def from_dict(cls, doc: dict) -> "RunRecord":
        return cls(**{f.name: doc[f.name] if f.default is MISSING else doc.get(f.name)
                      for f in fields(cls)})


def append_record(path: str | Path, record: RunRecord) -> None:
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


def read_records(path: str | Path) -> list[RunRecord]:
    """The records in a records file.

    A last line without its newline that does not parse was torn by an
    interrupted append: it is dropped with a warning. Any other line that
    does not parse raises.
    """
    path = Path(path)
    if not path.exists():
        return []
    body, _, tail = path.read_text(encoding="utf-8").rpartition("\n")
    records = [RunRecord.from_dict(json.loads(line)) for line in body.splitlines() if line.strip()]
    if tail.strip():
        try:
            records.append(RunRecord.from_dict(json.loads(tail)))
        except ValueError as exc:
            logger.warning("%s: dropping a torn last record (%s)", path, exc)
    return records


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
            json.loads(data[start:])
            fh.write(b"\n")
        except ValueError:
            fh.truncate(start)


def pass_at_1(outcomes: list[bool]) -> float:
    """Fraction of solved problems, in percent."""
    if not outcomes:
        raise ValueError("pass_at_1 needs at least one outcome")
    return 100.0 * sum(outcomes) / len(outcomes)


def bootstrap_ci(outcomes: list[bool], resamples: int = DEFAULT_RESAMPLES,
                 level: float = DEFAULT_LEVEL, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval for the solve rate, in percent.

    Row b of one ``rng.integers(0, n, size=(resamples, n))`` draw from
    ``numpy.random.default_rng(seed)`` indexes resample b; this is the
    stream that ``resamples`` draws of ``size=n`` would give, in order.
    The interval is the (alpha, 1-alpha) linear-interpolation quantiles
    of the resampled means, widened if needed to contain the point
    estimate.
    """
    if not outcomes:
        raise ValueError("bootstrap_ci needs at least one outcome")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    # numpy is imported here, its only use, so that commands which compute
    # no interval (run, replay, cache, --help) never load it.
    import numpy as np

    values = np.asarray(outcomes, dtype=float)
    n = values.size
    rng = np.random.default_rng(seed)
    means = values[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    point = values.mean()
    return float(100.0 * min(low, point)), float(100.0 * max(high, point))


def solve_rate(outcomes: list[bool], resamples: int = DEFAULT_RESAMPLES,
               level: float = DEFAULT_LEVEL, seed: int = 0) -> SolveRate:
    point = pass_at_1(outcomes)
    low, high = bootstrap_ci(outcomes, resamples=resamples, level=level, seed=seed)
    return SolveRate(point=point, ci_low=low, ci_high=high, n=len(outcomes))


def sliding_window(dated_outcomes: list[tuple[dt.date, bool]], span_months: int = 2,
                   step_months: int = 1, resamples: int = DEFAULT_RESAMPLES,
                   level: float = DEFAULT_LEVEL, seed: int = 0) -> list[WindowPoint]:
    """Solve rate over a window sliding across release months.

    Windows are [start, start + span) aligned to month starts, stepping
    by ``step_months``; windows containing no problems are skipped.
    """
    if span_months < 1 or step_months < 1:
        raise ValueError("span_months and step_months must be >= 1")
    if not dated_outcomes:
        return []
    ordered = sorted(dated_outcomes, key=lambda pair: pair[0])
    first = month_floor(ordered[0][0])
    last = ordered[-1][0]
    points = []
    start = first
    while start <= last:
        end = add_months(start, span_months)
        outcomes = [solved for day, solved in ordered if start <= day < end]
        if outcomes:
            points.append(WindowPoint(start=start, end=end,
                                      rate=solve_rate(outcomes, resamples=resamples,
                                                      level=level, seed=seed)))
        start = add_months(start, step_months)
    return points


def write_temporal_csv(by_variant: dict[str, list[WindowPoint]], path: str | Path) -> None:
    """Write window series losslessly (floats via repr round-trip)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "window_start", "window_end",
                         "point", "ci_low", "ci_high", "n"])
        for variant in sorted(by_variant):
            for wp in by_variant[variant]:
                writer.writerow([variant, wp.start.isoformat(), wp.end.isoformat(),
                                 repr(wp.rate.point), repr(wp.rate.ci_low),
                                 repr(wp.rate.ci_high), wp.rate.n])


def read_temporal_csv(path: str | Path) -> dict[str, list[WindowPoint]]:
    by_variant: dict[str, list[WindowPoint]] = {}
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rate = SolveRate(point=float(row["point"]), ci_low=float(row["ci_low"]),
                             ci_high=float(row["ci_high"]), n=int(row["n"]))
            point = WindowPoint(start=dt.date.fromisoformat(row["window_start"]),
                                end=dt.date.fromisoformat(row["window_end"]), rate=rate)
            by_variant.setdefault(row["variant"], []).append(point)
    return by_variant


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
    resamples: int = DEFAULT_RESAMPLES
    level: float = DEFAULT_LEVEL
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
    return f"{problem_id}/{variant_name}/trace.log"


def _remove_trace(path: Path) -> None:
    """Delete an aborted pair's trace and the directories that held only it."""
    path.unlink(missing_ok=True)
    for directory in (path.parent, path.parent.parent):
        try:
            directory.rmdir()
        except OSError:  # not empty: other pairs' traces are there
            return


def run_pair(problem: Problem, variant_name: str,
             settings: EvalSettings) -> tuple[RunRecord, str | None]:
    """Run one (problem, variant) pair and judge it on the hidden tests.

    Returns the record and the final program. The trace goes to
    ``<out_dir>/<trace_ref>``, or stays in memory when ``out_dir`` is None.
    An environment error aborts the pair and removes its trace.
    """
    started = time.perf_counter()
    trace_ref = _trace_ref(problem.id, variant_name)
    trace_path = settings.out_dir / trace_ref if settings.out_dir is not None else None
    vsettings = settings.variant_settings
    error = None
    code = None
    rounds = 0
    verdict = None
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
        if error is None and code is None:
            error = "no program extracted"
        elif error is None:
            limits = ExecutionLimits(wall_time=vsettings.wall_time, memory_bytes=vsettings.memory_bytes)
            verdict = run_tests(code, list(problem.hidden_tests), limits=limits).verdict.value
    except ENVIRONMENT_ERRORS:
        if trace_path is not None:
            _remove_trace(trace_path)
        raise
    record = RunRecord(
        problem_id=problem.id,
        variant=variant_name,
        solved=verdict == Verdict.ALL_PASSED.value,
        rounds_used=rounds,
        release_date=problem.release_date.isoformat(),
        trace_ref=trace_ref,
        wall_time=round(time.perf_counter() - started, 3),
        verdict=verdict,
        error=error,
    )
    return record, code


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

    The run goes through ``run_variant`` with the variant settings from
    ``run_meta.json`` and the recorded input message. The recorded
    responses, keyed by request fingerprint, are the run's response cache;
    its backend raises ReplayDivergenceError on a miss, so the cache's
    ``put`` is never reached. A FlowError is kept in ``error``: whether the
    replay diverged is decided by the normalized traces alone. A run
    directory that cannot be read back is a ConfigError.
    """
    trace_path = Path(run_dir) / _trace_ref(problem_id, variant_name)
    if not trace_path.exists():
        raise ConfigError(f"no trace at {trace_path}")
    try:
        recorded = read_trace(trace_path)
        settings = dict(read_run_meta(run_dir)["variant_settings"])
    except (NestflowError, OSError, KeyError, ValueError) as exc:
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
                   settings: EvalSettings) -> None:
    """Write the run directory's ``run_meta.json``, which reports and replay read.

    With ``settings.resume``, an existing file is checked and extended: if
    it holds other settings this raises ConfigError naming each of them and
    touches no file, and otherwise every ``problems`` entry it holds is kept,
    since its records may be in the directory. Without it, the file is
    written afresh. The file is replaced whole, so a write cut short leaves
    the old one.
    """
    meta = {
        "seed": settings.seed,
        "cutoff": settings.cutoff.isoformat(),
        "resamples": settings.resamples,
        "level": settings.level,
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
        try:
            old = read_run_meta(out_dir)
        except ValueError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        changes = _settings_changes(old, meta)
        if changes:
            raise ConfigError(f"cannot resume {out_dir} with other settings "
                              f"(eval --no-resume starts over): {'; '.join(changes)}")
        meta["problems"] = {**old.get("problems", {}), **meta["problems"]}
    out_dir.mkdir(parents=True, exist_ok=True)
    replace_file(path, (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def read_run_meta(out_dir: str | Path) -> dict:
    path = Path(out_dir) / "run_meta.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(meta, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    # Run directories written while the judge had a language knob record
    # it, and it always held "python".
    if meta.get("variant_settings", {}).get("language_tag") == "python":
        del meta["variant_settings"]["language_tag"]
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

    Pairs run on a thread pool; results append to records.jsonl as they
    finish. A failing pair becomes a solved=false record with an error
    note, while an environment error aborts the grid. Record order on disk is
    completion order; aggregation always re-sorts. Resuming a run directory
    whose ``run_meta.json`` holds other settings is a ConfigError, and
    leaves every file as it was (see ``write_run_meta``). So is an empty
    variant list, or one that names a variant twice.
    """
    if not variants:
        raise ConfigError("the variant list is empty")
    for index, variant in enumerate(variants):
        parse_variant(variant)
        if variant in variants[:index]:
            raise ConfigError(f"variant {variant!r} is listed more than once")
    out_dir = Path(settings.out_dir)
    write_run_meta(out_dir, problems, variants, settings)
    records_path = out_dir / "records.jsonl"
    if not settings.resume and records_path.exists():
        records_path.unlink()
    existing = {(r.problem_id, r.variant): r for r in read_records(records_path)}
    _end_last_line(records_path)
    by_id = {p.id: p for p in problems}
    todo = [(pid, variant) for pid in sorted(by_id) for variant in variants
            if (pid, variant) not in existing]
    write_lock = threading.Lock()
    results: dict[tuple[str, str], RunRecord] = dict(existing)

    def one(task: tuple[str, str]) -> None:
        pid, variant = task
        record, _ = run_pair(by_id[pid], variant, settings)
        with write_lock:
            append_record(records_path, record)
            results[(pid, variant)] = record

    if todo:
        workers = max(1, settings.workers)
        if workers == 1:
            for task in todo:
                one(task)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(one, todo))
    ordered = [results[key] for key in sorted(results)]
    logger.info("grid complete: %d records (%d new)", len(ordered), len(todo))
    return GridResult(records=ordered, new_runs=len(todo))


def stats_from_records(records: list[RunRecord], problem_meta: dict[str, dict],
                       cutoff: dt.date, resamples: int = DEFAULT_RESAMPLES,
                       level: float = DEFAULT_LEVEL, seed: int = 0
                       ) -> dict[str, dict[str, SolveRate]]:
    """Per-variant, per-bucket solve rates from sorted records."""
    grouped: dict[str, dict[str, list[bool]]] = {}
    for record in sorted(records, key=lambda r: (r.problem_id, r.variant)):
        meta = problem_meta[record.problem_id]
        bucket = bucket_key(SimpleNamespace(
            source=meta["source"], difficulty=meta["difficulty"],
            release_date=dt.date.fromisoformat(record.release_date)), cutoff)
        grouped.setdefault(record.variant, {}).setdefault(bucket, []).append(record.solved)
    stats: dict[str, dict[str, SolveRate]] = {}
    for variant, buckets in grouped.items():
        stats[variant] = {
            bucket: solve_rate(outcomes, resamples=resamples, level=level, seed=seed)
            for bucket, outcomes in buckets.items()
        }
    return stats


def write_report(out_dir: str | Path) -> dict[str, Path]:
    """Regenerate the report files from records + run metadata.

    Output depends only on run_meta.json and records.jsonl, so repeated
    calls produce byte-identical files.
    """
    out_dir = Path(out_dir)
    meta = read_run_meta(out_dir)
    records = read_records(out_dir / "records.jsonl")
    cutoff = dt.date.fromisoformat(meta["cutoff"])
    stats = stats_from_records(records, meta["problems"], cutoff,
                               resamples=meta["resamples"], level=meta["level"],
                               seed=meta["seed"])
    variants = [v for v in meta["variants"] if v in stats]
    baseline = "Code" if "Code" in variants else (variants[0] if variants else "Code")
    table_path = out_dir / "results_table.txt"
    table_path.write_text(render_results_table(stats, variants, baseline), encoding="utf-8")
    csv_path = out_dir / "results_table.csv"
    csv_path.write_text(results_table_csv(stats, variants, baseline), encoding="utf-8")
    by_variant: dict[str, list[WindowPoint]] = {}
    for variant in variants:
        dated = [(dt.date.fromisoformat(r.release_date), r.solved)
                 for r in sorted(records, key=lambda r: (r.problem_id, r.variant))
                 if r.variant == variant]
        by_variant[variant] = sliding_window(dated, resamples=meta["resamples"],
                                             level=meta["level"], seed=meta["seed"])
    temporal_path = out_dir / "temporal_series.csv"
    write_temporal_csv(by_variant, temporal_path)
    return {"table": table_path, "csv": csv_path, "temporal": temporal_path}
