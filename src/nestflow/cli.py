"""Command-line interface.

Exit codes: 0 success (problem solved / traces identical), 1 completed
but negative (unsolved, replay divergence), 2 usage or config errors,
3 environment errors (missing interpreter, missing credential).
"""
from __future__ import annotations

import datetime as dt
import logging
import sys
from pathlib import Path

import click

from ._util import load_yaml
from .backends import RemoteBackend, ResponseCache, ScriptedBackend
from .ccflows import DEFAULT_VARIANTS, VariantSettings, parse_variant
from .dataset import DEFAULT_CUTOFF, load_problem_file, load_problems
from .errors import ENVIRONMENT_ERRORS, ConfigError, DatasetError
from .evalharness import (
    EvalSettings,
    evaluate_grid,
    replay_pair,
    run_pair,
    write_report,
    write_run_meta,
)
from .sandbox import DEFAULT_MEMORY_BYTES, DEFAULT_WALL_TIME

logger = logging.getLogger(__name__)

USAGE_ERRORS = (ConfigError, DatasetError)
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


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, ENVIRONMENT_ERRORS):
        sys.exit(3)
    sys.exit(2)


def load_backend_profile(profiles_path: str | Path, name: str):
    """Build (backend, cache, model) from one profile in the profiles file."""
    path = Path(profiles_path)
    try:
        doc = load_yaml(path)
    except OSError as exc:
        raise ConfigError(f"cannot read profiles file {path}: {exc}") from exc
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
    kind = profile.get("kind")
    cache = ResponseCache(path.parent / profile["cache_dir"]) if profile.get("cache_dir") else None
    model = profile.get("model", "default")
    if kind == "scripted":
        if "rules_file" in profile:
            backend = ScriptedBackend.from_rules_file(path.parent / profile["rules_file"])
        elif "responses" in profile:
            backend = ScriptedBackend(responses=list(profile["responses"]))
        else:
            raise ConfigError(f"scripted profile {name!r} needs rules_file or responses")
    elif kind == "remote":
        for field in ("endpoint", "api_key_env"):
            if field not in profile:
                raise ConfigError(f"remote profile {name!r} needs {field!r}")
        backend = RemoteBackend(endpoint=profile["endpoint"],
                                api_key_env=profile["api_key_env"],
                                max_attempts=int(profile.get("max_attempts", 5)),
                                backoff_base=float(profile.get("backoff_base", 0.5)),
                                request_timeout=float(profile.get("request_timeout", 60.0)))
    else:
        raise ConfigError(f"profile {name!r} has unknown kind {kind!r}")
    return backend, cache, model


def _variant_settings(model: str, wall_time: float, memory_mb: int, max_rounds: int,
                      interactive_plan: bool = False) -> VariantSettings:
    return VariantSettings(model=model, wall_time=wall_time,
                           memory_bytes=memory_mb * 1024 * 1024, max_rounds=max_rounds,
                           interactive_plan=interactive_plan)


@click.group()
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
              help="Directory for the run trace (same layout as eval).")
@click.option("--interactive-plan", is_flag=True,
              help="Read the Plan_Oracle plan from stdin instead of the dataset.")
@_shared_options
def cmd_run(problem_path: str, variant: str, profiles_path: str, backend_profile: str,
            out_dir: str | None, interactive_plan: bool, wall_time: float,
            memory_mb: int, max_rounds: int) -> None:
    """Run one variant on one problem and judge it on the hidden tests."""
    try:
        parse_variant(variant)
        problem = load_problem_file(problem_path)
        backend, cache, model = load_backend_profile(profiles_path, backend_profile)
        settings = EvalSettings(
            out_dir=Path(out_dir) if out_dir else None, backend=backend, cache=cache,
            variant_settings=_variant_settings(model, wall_time, memory_mb, max_rounds,
                                               interactive_plan))
        if settings.out_dir is not None:
            write_run_meta(settings.out_dir, [problem], [variant], settings)
        record, code = run_pair(problem, variant, settings)
    except USAGE_ERRORS + ENVIRONMENT_ERRORS as exc:
        _fail(exc)
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
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Run directory.")
@click.option("--workers", default=1, show_default=True, type=POSITIVE_INT)
@click.option("--seed", default=0, show_default=True, type=NON_NEGATIVE_INT)
@click.option("--cutoff", default=DEFAULT_CUTOFF.isoformat(), show_default=True)
@click.option("--resume/--no-resume", default=True, show_default=True,
              help="Keep existing records and run only missing pairs.")
@_shared_options
def cmd_eval(dataset_path: str, variants: str, profiles_path: str, backend_profile: str,
             out_dir: str, workers: int, seed: int, cutoff: str, resume: bool,
             wall_time: float, memory_mb: int, max_rounds: int) -> None:
    """Evaluate variants over a dataset and write records plus reports."""
    try:
        variant_list = [v.strip() for v in variants.split(",") if v.strip()]
        problems = load_problems(dataset_path)
        backend, cache, model = load_backend_profile(profiles_path, backend_profile)
        cutoff_date = dt.date.fromisoformat(cutoff)
        settings = EvalSettings(
            out_dir=Path(out_dir), backend=backend, cache=cache,
            variant_settings=_variant_settings(model, wall_time, memory_mb, max_rounds),
            cutoff=cutoff_date, workers=workers, seed=seed, resume=resume)
        result = evaluate_grid(problems, variant_list, settings)
        paths = write_report(out_dir)
    except USAGE_ERRORS + ENVIRONMENT_ERRORS as exc:
        _fail(exc)
    except ValueError as exc:
        _fail(ConfigError(str(exc)))
    click.echo(f"{len(result.records)} records ({result.new_runs} new runs)")
    click.echo((Path(out_dir) / "records.jsonl").as_posix())
    click.echo(paths["table"].read_text(encoding="utf-8"), nl=False)
    sys.exit(0)


@main.command("report")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
def cmd_report(run_dir: str) -> None:
    """Regenerate report files from a run directory (byte-stable)."""
    try:
        paths = write_report(run_dir)
    except (USAGE_ERRORS + (FileNotFoundError, KeyError)) as exc:
        _fail(ConfigError(f"run directory is incomplete: {exc}"))
    except ValueError as exc:  # a line of records.jsonl or run_meta.json that does not parse
        _fail(ConfigError(f"run directory is corrupt: {exc}"))
    click.echo(paths["table"].read_text(encoding="utf-8"), nl=False)
    sys.exit(0)


@main.command("replay")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
@click.option("--problem-id", required=True)
@click.option("--variant", required=True)
def cmd_replay(run_dir: str, problem_id: str, variant: str) -> None:
    """Re-execute a recorded run from its trace and diff the two traces."""
    try:
        parse_variant(variant)
        replay = replay_pair(run_dir, problem_id, variant)
    except USAGE_ERRORS + ENVIRONMENT_ERRORS as exc:
        _fail(exc)
    if replay.error is not None:
        click.echo(f"replayed run failed: {replay.error}")
    if replay.identical:
        click.echo(f"replay identical: {len(replay.replayed)} events")
        sys.exit(0)
    before, after = replay.recorded, replay.replayed
    for index, (a, b) in enumerate(zip(before, after)):
        if a != b:
            kinds = a["kind"] if a["kind"] == b["kind"] else f"{a['kind']} != {b['kind']}"
            click.echo(f"replay diverged at event {index + 1}: {kinds}")
            break
    else:
        click.echo(f"replay diverged: event count {len(before)} != {len(after)}")
    sys.exit(1)


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
@click.option("--cache-dir", required=True, type=click.Path(exists=True, file_okay=False))
def cache_clear(cache_dir: str) -> None:
    removed = ResponseCache(cache_dir).clear()
    click.echo(f"removed: {removed}")


if __name__ == "__main__":
    main()
