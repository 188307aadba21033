"""The four workloads. Each drives a real ``nestflow`` command in-process.

A workload prepares its inputs in ``setup`` (called several times, each
into a fresh directory; the last one is used), then runs whole rounds.
``round`` times only the CLI calls and returns what the round did; the
output checks run between rounds and in ``finish``, outside the timing.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import shutil
import time
from pathlib import Path

import numpy as np
import yaml

import inputs

FIXTURE_PROBLEMS = 6
DISTINCT_PROBLEMS = 20
REPORT_PROBLEMS = 300
REPLAY_PROBLEMS = 40
CI_SAMPLE = 16


@dataclasses.dataclass
class Round:
    pairs: int  # pairs completed (records aggregated on report)
    attempted: int  # operations: pairs, regenerations or replays
    failed: int
    timed_s: float
    run_dir_bytes: int  # size of the run directory the round wrote or read
    trace_bytes: int = 0
    cache_bytes: int = 0


def dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


class Cli:
    """Calls ``nestflow`` commands in this process and captures their output."""

    def __init__(self, tracer=None):
        import click

        from nestflow.cli import main

        self._main = main
        self._click = click
        self.tracer = tracer

    def __call__(self, *args: str) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()
        kwargs = {"args": list(args), "prog_name": "nestflow", "standalone_mode": False}
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    self._main.main(**kwargs)
                else:
                    self.tracer.call("cli.command", self._main.main, kwargs=kwargs)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except self._click.exceptions.ClickException as exc:
                code = exc.exit_code
            except self._click.exceptions.Exit as exc:
                code = exc.exit_code
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Workload:
    workers = 1

    def __init__(self, root: Path, work: Path, seed: int, cli: Cli):
        self.root, self.work, self.seed, self.cli = root, work, seed, cli
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)

    def setup(self, attempt: int) -> None:
        raise NotImplementedError

    def before_timing(self) -> None:
        """Checks that must pass before the timed part; not part of setup_s."""

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks on the outputs of all rounds."""


class GridWorkload(Workload):
    """``nestflow eval`` into a fresh run directory per round.

    Rounds after the first mark every scripted program with a ``# round <n>``
    comment, so no judgement repeats across rounds: a cache that outlives one
    ``eval`` in this process gets no hit that a fresh ``nestflow eval`` would miss.
    """

    rules: Path  # scripted rules of the first round
    cache: bool = False  # keep a response cache inside the run directory
    expected: dict[tuple[str, str], tuple[str, bool, int]]

    def eval_args(self, out: Path, profiles: Path) -> list[str]:
        raise NotImplementedError

    def round(self, index: int) -> Round:
        out = self.work / "rounds" / f"r{index}"
        out.parent.mkdir(exist_ok=True)
        rules = self.rules
        if index:
            rules = self.work / "rounds" / f"rules-r{index}.yaml"
            inputs.write_round_rules(self.rules, rules, index)
        profiles = self.work / "rounds" / f"profiles-r{index}.yaml"
        inputs.write_profiles(profiles, rules, out / "response_cache" if self.cache else None)
        code, stdout, stderr, seconds = self.cli(*self.eval_args(out, profiles))
        pairs = len(self.expected)
        failed = pairs
        if code == 0:
            self.check(stdout.startswith(f"{pairs} records ({pairs} new runs)\n"),
                       f"eval printed {stdout[:60]!r}")
            records = [json.loads(line) for line in
                       (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
            self.check(len(records) == pairs and set(self.expected) == {
                (r["problem_id"], r["variant"]) for r in records}, f"{len(records)} records, expected {pairs}")
            failed = sum(1 for r in records if "error" in r)
            for record in records:
                key = (record["problem_id"], record["variant"])
                got = (record.get("verdict"), record["solved"], record["rounds_used"])
                self.check(self.expected.get(key) == got or "error" in record,
                           f"{key}: got {got}, expected {self.expected.get(key)}")
        else:
            self.check(False, f"eval exited {code}: {stderr[-300:]!r}")
        result = Round(pairs=pairs, attempted=pairs, failed=failed, timed_s=seconds,
                       run_dir_bytes=dir_bytes(out), trace_bytes=dir_bytes(out, "trace.log"),
                       cache_bytes=dir_bytes(out / "response_cache"))
        shutil.rmtree(self.work / "rounds", ignore_errors=True)
        return result


class FixtureGrid(GridWorkload):
    """The 6 bundled problems x 9 default variants, serial, --wall-time 1.0.

    The profile is the ``scripted`` one of fixtures/profiles.yaml: kind and
    model ``scripted``, rules from fixtures/scripted_responses.yaml.
    """

    def setup(self, attempt: int) -> None:
        fixtures = self.root / "fixtures"
        oracle = yaml.safe_load((fixtures / "oracle.yaml").read_text(encoding="utf-8"))
        self.expected = {
            (pid, variant): (row["verdict"], row["solved"], row["rounds_used"])
            for pid, variants in oracle["problems"].items()
            for variant, row in variants.items()
        }
        self.rules = fixtures / "scripted_responses.yaml"
        problems = [p for p in (fixtures / "problems").glob("*.yaml") if not p.name.startswith("_")]
        if len(problems) != FIXTURE_PROBLEMS or len(self.expected) != 54:
            raise SystemExit(f"perfbench: fixtures changed: {len(problems)} problems, "
                             f"{len(self.expected)} oracle rows")

    def eval_args(self, out: Path, profiles: Path) -> list[str]:
        return ["eval", "--dataset", str(self.root / "fixtures" / "problems"),
                "--profiles", str(profiles), "--out", str(out),
                "--wall-time", "1.0", "--seed", str(self.seed)]


class DistinctGrid(GridWorkload):
    """Generated problems, Code_Debug only, two workers, response cache in the run dir."""

    workers = 2
    cache = True

    def setup(self, attempt: int) -> None:
        self.inputs = self.work / f"setup-{attempt}"
        self.rules = self.inputs / "rules.yaml"
        problems = inputs.make_problems(self.seed, DISTINCT_PROBLEMS, "dg")
        inputs.write_problem_set(problems, self.inputs / "problems", self.rules, self.seed)
        self.expected = {(p.id, "Code_Debug"): inputs.CODE_DEBUG_EXPECTED[p.shape]
                         for p in problems}

    def eval_args(self, out: Path, profiles: Path) -> list[str]:
        return ["eval", "--dataset", str(self.inputs / "problems"), "--variants", "Code_Debug",
                "--workers", str(self.workers), "--profiles", str(profiles), "--out", str(out),
                "--seed", str(self.seed)]


REPORT_FILES = ("results_table.txt", "results_table.csv", "temporal_series.csv")


def bootstrap_reference(outcomes: list[bool], seed: int, resamples: int = 1000,
                        level: float = 0.95) -> tuple[float, float]:
    """The README "Statistics" procedure, one resample per loop iteration."""
    values = np.asarray(outcomes, dtype=float)
    n = values.size
    rng = np.random.default_rng(seed)
    means = []
    for _ in range(resamples):
        means.append(values[rng.integers(0, n, size=n)].mean())
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(np.asarray(means), [alpha, 1.0 - alpha])
    point = values.mean()
    return float(100.0 * min(low, point)), float(100.0 * max(high, point))


class Report(Workload):
    """``nestflow report`` regenerated repeatedly on a generated run directory."""

    def setup(self, attempt: int) -> None:
        self.run_dir = self.work / f"setup-{attempt}" / "run"
        self.records = inputs.write_report_run(self.run_dir, self.seed, REPORT_PROBLEMS)
        self.first: dict[str, bytes] | None = None

    def round(self, index: int) -> Round:
        code, _, stderr, seconds = self.cli("report", "--run-dir", str(self.run_dir))
        self.check(code == 0, f"report exited {code}: {stderr[-300:]!r}")
        if code == 0:
            files = {name: (self.run_dir / name).read_bytes() for name in REPORT_FILES}
            if self.first is None:
                self.first = files
            self.check(files == self.first, f"report files changed at regeneration {index + 1}")
        return Round(pairs=len(self.records) if code == 0 else 0, attempted=1,
                     failed=int(code != 0), timed_s=seconds, run_dir_bytes=dir_bytes(self.run_dir))

    def finish(self) -> None:
        if self.first is None:
            return
        import csv
        import datetime as dt

        meta = json.loads((self.run_dir / "run_meta.json").read_text(encoding="utf-8"))
        cutoff = dt.date.fromisoformat(meta["cutoff"])
        # Outcomes in the order the program aggregates them: sorted by problem id.
        ordered = sorted(self.records, key=lambda r: (r["problem_id"], r["variant"]))
        buckets: dict[str, dict[str, list[bool]]] = {}
        dated: dict[str, list[tuple[dt.date, bool]]] = {}
        for record in ordered:
            info = meta["problems"][record["problem_id"]]
            day = dt.date.fromisoformat(record["release_date"])
            side = "pre" if day < cutoff else "post"
            bucket = (f"codeforces-{side}" if info["source"] == "codeforces"
                      else f"leetcode-{side}-{info['difficulty']}")
            buckets.setdefault(record["variant"], {}).setdefault(bucket, []).append(record["solved"])
            dated.setdefault(record["variant"], []).append((day, record["solved"]))
        rng = random.Random(f"ci-sample:{self.seed}")
        intervals = []  # (label, outcomes, the report's table cell or (low, high))

        rows = list(csv.reader(io.StringIO(self.first["results_table.csv"].decode())))
        header = rows[0]
        table = {row[0]: dict(zip(header[1:], row[1:])) for row in rows[1:]}
        self.check(sorted(table) == sorted(inputs.ALL_VARIANTS), f"table rows {sorted(table)}")
        rate = {v: {b: 100.0 * sum(o) / len(o) for b, o in bs.items()} for v, bs in buckets.items()}
        for variant, cells in table.items():
            for bucket, cell in cells.items():
                point = rate[variant][bucket]
                if variant == "Code":
                    shown = f"{point:.1f}"
                else:
                    delta = round(point - rate["Code"][bucket], 1)
                    shown = f"{delta if delta else 0.0:+.1f}"
                self.check(cell.startswith(shown + " ±"),
                           f"{variant}/{bucket}: cell {cell!r}, counted {shown}")
                intervals.append((f"{variant}/{bucket}", buckets[variant][bucket], cell))

        windows = 0
        for row in csv.DictReader(io.StringIO(self.first["temporal_series.csv"].decode())):
            windows += 1
            start = dt.date.fromisoformat(row["window_start"])
            end = dt.date.fromisoformat(row["window_end"])
            outcomes = [s for day, s in sorted(dated[row["variant"]], key=lambda p: p[0])
                        if start <= day < end]
            point, low, high = float(row["point"]), float(row["ci_low"]), float(row["ci_high"])
            self.check(int(row["n"]) == len(outcomes) and outcomes
                       and point == 100.0 * sum(outcomes) / len(outcomes),
                       f"window {row['variant']} {start}: point {point}, n {row['n']}")
            self.check(low <= point <= high, f"window {row['variant']} {start}: {low} {point} {high}")
            intervals.append((f"{row['variant']}@{start}", outcomes, (low, high)))
        # Every variant covers the whole 48-month span in one-month steps.
        self.check(windows == len(inputs.ALL_VARIANTS) * inputs.REPORT_MONTHS,
                   f"{windows} windows")

        for label, outcomes, shown in rng.sample(intervals, CI_SAMPLE):
            low, high = bootstrap_reference(outcomes, meta["seed"])
            if isinstance(shown, tuple):
                self.check(shown == (low, high), f"{label}: interval {shown}, recomputed {(low, high)}")
            else:
                self.check(shown.endswith(f" ±{(high - low) / 2.0:.1f}"),
                           f"{label}: cell {shown!r}, recomputed {(low, high)}")


class Replay(Workload):
    """``nestflow replay`` on every pair of a run directory recorded during setup."""

    def setup(self, attempt: int) -> None:
        from nestflow.ccflows import VariantSettings, build_variant, problem_payload
        from nestflow.cli import load_backend_profile
        from nestflow.core import RunContext, create_flow, package_input, run
        from nestflow.dataset import load_problems
        from nestflow.trace import TraceSink

        base = self.work / f"setup-{attempt}"
        generated = inputs.make_problems(self.seed, REPLAY_PROBLEMS, "rq")
        inputs.write_problem_set(generated, base / "problems", base / "rules.yaml", self.seed)
        inputs.write_profiles(base / "profiles.yaml", base / "rules.yaml")
        backend, _, model = load_backend_profile(base / "profiles.yaml", "scripted")
        settings = VariantSettings(model=model)
        self.run_dir = base / "run"
        self.pairs = []
        for problem in load_problems(base / "problems"):
            for variant in inputs.NON_SANDBOX_VARIANTS:
                path = self.run_dir / problem.id / variant / "trace.log"
                with TraceSink(path) as sink:
                    ctx = RunContext(trace=sink, backends={settings.backend: backend})
                    run(create_flow(build_variant(variant, settings)),
                        package_input(problem_payload(problem), created_by="harness"), ctx)
                events = len(path.read_text(encoding="utf-8").splitlines()) - 1
                self.pairs.append((problem.id, variant, f"replay identical: {events} events\n"))
        meta = {"seed": self.seed, "variants": list(inputs.NON_SANDBOX_VARIANTS),
                "variant_settings": dataclasses.asdict(settings)}
        (self.run_dir / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                                    encoding="utf-8")
        self.run_dir_bytes = dir_bytes(self.run_dir)
        self.trace_bytes = dir_bytes(self.run_dir, "trace.log")

    def before_timing(self) -> None:
        """A trace with one altered recorded response must replay as diverged."""
        pid, variant, _ = self.pairs[0]
        altered = self.work / "diverged"
        shutil.rmtree(altered, ignore_errors=True)
        (altered / pid / variant).mkdir(parents=True)
        shutil.copy(self.run_dir / "run_meta.json", altered / "run_meta.json")
        lines = (self.run_dir / pid / variant / "trace.log").read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event.get("kind") == "backend_response":
                event["body"]["response"] += "\n(altered)"
                lines[i] = json.dumps(event, sort_keys=True, separators=(",", ":"))
                break
        (altered / pid / variant / "trace.log").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, stderr, _ = self.cli("replay", "--run-dir", str(altered),
                                           "--problem-id", pid, "--variant", variant)
        self.check(code == 1 and "replay diverged" in stdout + stderr,
                   f"altered trace replayed with exit {code}: {(stdout + stderr)[:200]!r}")

    def round(self, index: int) -> Round:
        timed = 0.0
        failed = 0
        for pid, variant, expected in self.pairs:
            code, stdout, stderr, seconds = self.cli("replay", "--run-dir", str(self.run_dir),
                                                     "--problem-id", pid, "--variant", variant)
            timed += seconds
            if code != 0:
                failed += 1
                self.check(False, f"replay {pid}/{variant} exited {code}: {(stdout + stderr)[:200]!r}")
            else:
                self.check(stdout == expected, f"replay {pid}/{variant}: {stdout!r} != {expected!r}")
        return Round(pairs=len(self.pairs) - failed, attempted=len(self.pairs), failed=failed,
                     timed_s=timed, run_dir_bytes=self.run_dir_bytes, trace_bytes=self.trace_bytes)


WORKLOADS = {
    "fixture-grid": FixtureGrid,
    "distinct-grid": DistinctGrid,
    "report": Report,
    "replay": Replay,
}
