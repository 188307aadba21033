"""Command-line interface.

Exit codes: 0 success; 1 only for an unsolved problem or a diverged replay;
2 for an input that cannot be read or is malformed (its reader raises
ConfigError or DatasetError naming the file or option); 3 for an environment
error or a failed write to the run, report or cache directory; 130 on SIGINT
and 143 on SIGTERM. ``NestflowGroup.invoke`` alone maps errors to 2 and 3.
"""
from __future__ import annotations

import datetime as dt
import logging
import signal
import sys
from pathlib import Path

import click

from ._util import POSITIVE_INTEGER, POSITIVE_NUMBER, TEXT, TEXT_LIST, check_fields, load_yaml
from .backends import RemoteBackend, ResponseCache, ScriptedBackend
from .ccflows import DEFAULT_VARIANTS, VariantSettings, parse_variant
from .dataset import DEFAULT_CUTOFF, load_problem_file, load_problems
from .errors import ENVIRONMENT_ERRORS, ConfigError, DatasetError
from .evalharness import (
    EvalSettings,
    evaluate_grid,
    read_records,
    replay_pair,
    run_pair,
    write_report,
    write_run_meta,
)
from .sandbox import DEFAULT_MEMORY_BYTES, DEFAULT_WALL_TIME

# What each profile field other than ``kind`` must hold, where it is given.
PROFILE_FIELDS = {
    **dict.fromkeys(("model", "cache_dir", "rules_file", "endpoint", "api_key_env"), TEXT),
    "responses": TEXT_LIST,
    "max_attempts": POSITIVE_INTEGER,
    **dict.fromkeys(("backoff_base", "request_timeout"), POSITIVE_NUMBER),
}
# Numeric option types. A sandbox limit of zero or less would lift a cap or
# time out every test; click rejects such a value before any file is written.
POSITIVE_FLOAT = click.FloatRange(min=0, min_open=True)
POSITIVE_INT = click.IntRange(min=1)
NON_NEGATIVE_INT = click.IntRange(min=0)

# The options that `run` and `eval` share, in the order --help lists them.
SHARED_OPTIONS = (
    click.option("--profiles", "profiles_path", default="profiles.yaml", show_default=True,
                 help="Backend profiles file."),
    click.option("--backend-profile", default="scripted", show_default=True),
    click.option("--wall-time", default=DEFAULT_WALL_TIME, show_default=True,
                 type=POSITIVE_FLOAT, help="Sandbox wall time per test in seconds."),
    click.option("--memory", "memory_mb", default=DEFAULT_MEMORY_BYTES // (1024 * 1024),
                 show_default=True, type=POSITIVE_INT, help="Sandbox memory limit in MiB."),
    click.option("--max-rounds", default=4, show_default=True, type=POSITIVE_INT),
)


def _shared_options(command):
    for option in reversed(SHARED_OPTIONS):
        command = option(command)
    return command


def _writes(what: str):
    """The callback of an option naming the directory its command writes, for
    ``NestflowGroup.invoke`` to name when a write fails."""
    def remember(ctx: click.Context, param, value):
        ctx.meta["nestflow.writes"] = value and f"{what} {value}"
        return value
    return remember


def _date(ctx: click.Context, param, value: str) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError:
        raise ConfigError(f"--{param.name} must be a date as YYYY-MM-DD, got {value!r}") from None


def load_backend_profile(profiles_path: str | Path, name: str):
    """Build (backend, cache, model) from one profile in the profiles file."""
    path = Path(profiles_path)
    doc = load_yaml(path, "profiles file")
    doc = {} if doc is None else doc
    profiles = doc.get("profiles", {}) if isinstance(doc, dict) else None
    if not isinstance(profiles, dict):
        raise ConfigError(f"profiles file {path} must be a map holding a 'profiles' map")
    if name not in profiles:
        raise ConfigError(
            f"no profile {name!r} in {path}; available: {sorted(map(str, profiles))}")
    profile = profiles[name]
    if not isinstance(profile, dict):
        raise ConfigError(f"profile {name!r} in {path} must be a map")
    check_fields(profile, PROFILE_FIELDS, f"profile {name!r} in {path}")
    kind = profile.get("kind")
    cache = ResponseCache(path.parent / profile["cache_dir"]) if profile.get("cache_dir") else None
    model = profile.get("model", "default")
    if kind == "scripted":
        if "rules_file" in profile:
            backend = ScriptedBackend.from_rules_file(path.parent / profile["rules_file"])
        elif "responses" in profile:
            backend = ScriptedBackend(responses=profile["responses"])
        else:
            raise ConfigError(f"scripted profile {name!r} needs rules_file or responses")
    elif kind == "remote":
        for field in ("endpoint", "api_key_env"):
            if field not in profile:
                raise ConfigError(f"remote profile {name!r} needs {field!r}")
        backend = RemoteBackend(endpoint=profile["endpoint"],
                                api_key_env=profile["api_key_env"],
                                max_attempts=profile.get("max_attempts", 5),
                                backoff_base=profile.get("backoff_base", 0.5),
                                request_timeout=profile.get("request_timeout", 60.0))
    else:
        raise ConfigError(f"profile {name!r} has unknown kind {kind!r}")
    return backend, cache, model


def _variant_settings(model: str, wall_time: float, memory_mb: int, max_rounds: int,
                      interactive_plan: bool = False) -> VariantSettings:
    return VariantSettings(model=model, wall_time=wall_time,
                           memory_bytes=memory_mb * 1024 * 1024, max_rounds=max_rounds,
                           interactive_plan=interactive_plan)


class NestflowGroup(click.Group):
    """The command group. Its ``invoke`` maps errors to exit codes by type alone:
    a usage error exits 2; an environment error, or any other OSError (a write
    that failed, on a full disk say), exits 3: the run itself decided nothing."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConfigError, DatasetError) as exc:
            code, message = 2, str(exc)
        except ENVIRONMENT_ERRORS as exc:
            code, message = 3, str(exc)
        except BrokenPipeError:  # stdout closed early: click's own handling
            raise
        except OSError as exc:
            writes = ctx.meta.get("nestflow.writes")
            code, message = 3, f"cannot write {writes}: {exc}" if writes else str(exc)
        click.echo(f"error: {message}", err=True)
        sys.exit(code)


@click.group(cls=NestflowGroup)
@click.option("--verbose", is_flag=True, help="Log debug detail to stderr.")
def main(verbose: bool) -> None:
    """Run, evaluate and replay message-passing flows."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command("run")
@click.option("--problem", "problem_path", required=True, type=click.Path(exists=True),
              help="Problem YAML file.")
@click.option("--variant", required=True, help="Variant name, e.g. Code_Debug or Plan-Code.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              callback=_writes("run directory"),
              help="Directory for the run trace (same layout as eval).")
@click.option("--interactive-plan", is_flag=True,
              help="Read the Plan_Oracle plan from stdin instead of the dataset.")
@_shared_options
def cmd_run(problem_path: str, variant: str, profiles_path: str, backend_profile: str,
            out_dir: str | None, interactive_plan: bool, wall_time: float,
            memory_mb: int, max_rounds: int) -> None:
    """Run one variant on one problem and judge it on the hidden tests."""
    parse_variant(variant)
    problem = load_problem_file(problem_path)
    backend, cache, model = load_backend_profile(profiles_path, backend_profile)
    settings = EvalSettings(
        out_dir=Path(out_dir) if out_dir else None, backend=backend, cache=cache,
        variant_settings=_variant_settings(model, wall_time, memory_mb, max_rounds,
                                           interactive_plan))
    if settings.out_dir is not None:
        write_run_meta(settings.out_dir, [problem], [variant], settings,
                       restart_hint="run with another --out starts over")
    record, code = run_pair(problem, variant, settings).judge()
    click.echo(f"problem: {problem.id}")
    click.echo(f"variant: {variant}")
    click.echo(f"rounds_used: {record.rounds_used}")
    if record.error:
        click.echo(f"error: {record.error}")
    if code:
        click.echo("program:")
        click.echo(code)
    click.echo(f"solved: {str(record.solved).lower()}")
    sys.exit(0 if record.solved else 1)


@main.command("eval")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True),
              help="Problem directory (or one YAML file).")
@click.option("--variants", default=",".join(DEFAULT_VARIANTS), show_default=False,
              help="Comma-separated variant names (default: the 9-variant suite).")
@click.option("--out", "out_dir", required=True, type=click.Path(),
              callback=_writes("run directory"), help="Run directory.")
@click.option("--workers", default=1, show_default=True, type=POSITIVE_INT)
@click.option("--seed", default=0, show_default=True, type=NON_NEGATIVE_INT)
@click.option("--cutoff", default=DEFAULT_CUTOFF.isoformat(), show_default=True, callback=_date)
@click.option("--resume/--no-resume", default=True, show_default=True,
              help="Keep existing records and run only missing pairs.")
@_shared_options
def cmd_eval(dataset_path: str, variants: str, profiles_path: str, backend_profile: str,
             out_dir: str, workers: int, seed: int, cutoff: dt.date, resume: bool,
             wall_time: float, memory_mb: int, max_rounds: int) -> None:
    """Evaluate variants over a dataset and write records plus reports."""
    variant_list = [v.strip() for v in variants.split(",") if v.strip()]
    problems = load_problems(dataset_path)
    backend, cache, model = load_backend_profile(profiles_path, backend_profile)
    settings = EvalSettings(
        out_dir=Path(out_dir), backend=backend, cache=cache,
        variant_settings=_variant_settings(model, wall_time, memory_mb, max_rounds),
        cutoff=cutoff, workers=workers, seed=seed, resume=resume)
    result = evaluate_grid(problems, variant_list, settings)
    paths = write_report(out_dir)
    click.echo(f"{len(result.records)} records ({result.new_runs} new runs)")
    click.echo((Path(out_dir) / "records.jsonl").as_posix())
    click.echo(paths["table"].read_text(encoding="utf-8"), nl=False)


@main.command("report")
@click.option("--run-dir", required=True, type=click.Path(exists=True),
              callback=_writes("run directory"))
def cmd_report(run_dir: str) -> None:
    """Regenerate report files from a run directory (byte-stable)."""
    paths = write_report(run_dir)
    click.echo(paths["table"].read_text(encoding="utf-8"), nl=False)


def _divergence(replay) -> str:
    """Where a replay that is not identical first departs from its recording."""
    before, after = replay.recorded, replay.replayed
    for index, (a, b) in enumerate(zip(before, after)):
        if a != b:
            kinds = a["kind"] if a["kind"] == b["kind"] else f"{a['kind']} != {b['kind']}"
            return f"replay diverged at event {index + 1}: {kinds}"
    return f"replay diverged: event count {len(before)} != {len(after)}"


@main.command("replay")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
@click.option("--problem-id", default=None, help="The pair's problem; give it with --variant.")
@click.option("--variant", default=None, help="The pair's variant; give it with --problem-id.")
def cmd_replay(run_dir: str, problem_id: str | None, variant: str | None) -> None:
    """Re-execute recorded runs from their traces and diff the two traces.

    With --problem-id and --variant, one pair; with neither, every pair
    that records.jsonl holds."""
    if (problem_id is None) != (variant is None):
        raise ConfigError("--problem-id and --variant go together: give both, or neither "
                          "to replay every recorded pair")
    if variant is None:
        _replay_every_pair(run_dir)
    parse_variant(variant)
    replay = replay_pair(run_dir, problem_id, variant)
    if replay.error is not None:
        click.echo(f"replayed run failed: {replay.error}")
    click.echo(f"replay identical: {len(replay.replayed)} events" if replay.identical
               else _divergence(replay))
    sys.exit(0 if replay.identical else 1)


def _replay_every_pair(run_dir: str) -> None:
    """Replay each recorded pair, in (problem, variant) order; one line per
    pair that diverges, then the count that did not."""
    identical = 0
    pairs = sorted({(r.problem_id, r.variant)
                    for r in read_records(Path(run_dir) / "records.jsonl")})
    if not pairs:
        raise ConfigError(f"no records to replay in {run_dir}")
    for problem_id, variant in pairs:
        replay = replay_pair(run_dir, problem_id, variant)
        if replay.identical:
            identical += 1
            continue
        failed = f" (replayed run failed: {replay.error})" if replay.error else ""
        click.echo(f"{problem_id} {variant}: {_divergence(replay)}{failed}")
    click.echo(f"replay identical: {identical} of {len(pairs)} pairs")
    sys.exit(0 if identical == len(pairs) else 1)


@main.group("cache")
def cmd_cache() -> None:
    """Inspect or clear a response cache directory."""


@cmd_cache.command("stats")
@click.option("--cache-dir", required=True, type=click.Path(exists=True, file_okay=False))
def cache_stats(cache_dir: str) -> None:
    stats = ResponseCache(cache_dir).stats()
    click.echo(f"entries: {stats['entries']}")
    click.echo(f"bytes: {stats['bytes']}")


@cmd_cache.command("clear")
@click.option("--cache-dir", required=True, type=click.Path(exists=True, file_okay=False),
              callback=_writes("cache directory"))
def cache_clear(cache_dir: str) -> None:
    removed = ResponseCache(cache_dir).clear()
    click.echo(f"removed: {removed}")


class Interrupted(BaseException):
    """SIGINT or SIGTERM, raised in the main thread; click lets it through."""


def _interrupt(signum: int, frame) -> None:
    raise Interrupted(signum)


def run() -> None:
    """The ``nestflow`` console script: ``main``, where SIGINT and SIGTERM unwind
    the command through its ``finally`` blocks and exit 128 plus the signal."""
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _interrupt)
    try:
        main()
    except Interrupted as interrupt:
        click.echo(f"error: interrupted by {signal.Signals(interrupt.args[0]).name}", err=True)
        sys.exit(128 + interrupt.args[0])


if __name__ == "__main__":
    run()
