"""End-to-end checks over the bundled fixtures.

Each class pins one externally observable contract: the fixture grid
against the hand-derived oracle table, sandbox report snapshots, the
generator-critic call-count law, bootstrap statistics against a brute
force re-implementation, report cell grammar, determinism and state
isolation, temporal windowing, and the CLI round trip.
"""
import datetime as dt
import math
import random
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from nestflow.backends import ScriptedBackend
from nestflow.ccflows import DEFAULT_VARIANTS
from nestflow.cli import main
from nestflow.core import (
    ROUNDS_USED_KEY,
    RunContext,
    create_flow,
    package_input,
    run,
    snapshot_states,
)
from nestflow.evalharness import (
    EvalSettings,
    SolveRate,
    bootstrap_ci,
    evaluate_grid,
    read_records,
    read_temporal_csv,
    render_results_table,
    replay_pair,
    results_table_csv,
    sliding_window,
    write_temporal_csv,
)
from nestflow.sandbox import ExecutionLimits, Verdict, run_tests
from nestflow.sandbox import TestCase as IOCase
from nestflow.trace import TraceSink, read_trace

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SNAPSHOTS = FIXTURES / "sandbox_corpus" / "snapshots"

CHILD_COLUMNS = {
    "code_generator_calls": "code_generator",
    "code_critic_calls": "code_critic",
    "plan_generator_calls": "plan_generator",
    "plan_critic_calls": "plan_critic",
}


def flow_start_counts(trace_path):
    counts = {}
    for event in read_trace(trace_path):
        if event.kind == "flow_start":
            name = event.instance_id.split("#")[0]
            counts[name] = counts.get(name, 0) + 1
    return counts


@pytest.fixture(scope="module")
def oracle():
    doc = yaml.safe_load((FIXTURES / "oracle.yaml").read_text(encoding="utf-8"))
    return doc["problems"]


@pytest.fixture(scope="module")
def serial_grid(tmp_path_factory, problems, fixture_settings):
    out_dir = tmp_path_factory.mktemp("serial-grid")
    settings = EvalSettings(
        out_dir=out_dir,
        backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
        variant_settings=fixture_settings,
        workers=1)
    started = time.perf_counter()
    result = evaluate_grid(problems, list(DEFAULT_VARIANTS), settings)
    elapsed = time.perf_counter() - started
    return out_dir, result, elapsed


@pytest.fixture(scope="module")
def cli_grid(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli-grid")
    args = ["eval", "--dataset", str(FIXTURES / "problems"),
            "--profiles", str(FIXTURES / "profiles.yaml"),
            "--out", str(out_dir), "--workers", "4", "--wall-time", "1.0"]
    first = CliRunner().invoke(main, args)
    assert first.exit_code == 0, first.output
    return out_dir, args, first


class TestFixtureGrid:
    """All nine variants over the six bundled problems, against the
    hand-derived oracle table."""

    def test_every_pair_matches_oracle(self, serial_grid, oracle):
        out_dir, result, _ = serial_grid
        records = {(r.problem_id, r.variant): r for r in result.records}
        assert len(records) == 6 * 9
        mismatches = []
        for problem_id, variants in oracle.items():
            for variant, want in variants.items():
                record = records[(problem_id, variant)]
                counts = flow_start_counts(out_dir / record.trace_ref)
                got = {
                    "verdict": record.verdict,
                    "solved": record.solved,
                    "rounds_used": record.rounds_used,
                }
                got.update({column: counts.get(child, 0)
                            for column, child in CHILD_COLUMNS.items()})
                if got != want:
                    mismatches.append((problem_id, variant, want, got))
        assert mismatches == []

    def test_oracle_spans_the_whole_grid(self, oracle, problems):
        assert set(oracle) == {p.id for p in problems}
        for variants in oracle.values():
            assert set(variants) == set(DEFAULT_VARIANTS)

    def test_no_run_errored(self, serial_grid):
        _, result, _ = serial_grid
        assert [r for r in result.records if r.error] == []

    def test_grid_completes_quickly(self, serial_grid):
        assert serial_grid[2] < 60.0


@pytest.fixture(scope="module")
def corpus_reports():
    doc = yaml.safe_load((FIXTURES / "sandbox_corpus" / "corpus.yaml")
                         .read_text(encoding="utf-8"))
    limits = ExecutionLimits(wall_time=2.0)
    started = time.perf_counter()
    reports = {}
    for case in doc["cases"]:
        tests = [IOCase(t["input"], t["expected_output"]) for t in case["tests"]]
        reports[case["name"]] = (case, run_tests(case["program"], tests, limits=limits))
    elapsed = time.perf_counter() - started
    return reports, elapsed


class TestSandboxCorpus:
    """Canonical programs map to the five verdicts and their reports
    match the committed snapshots byte for byte."""

    def test_verdicts(self, corpus_reports):
        reports, _ = corpus_reports
        for case, report in reports.values():
            assert report.verdict.value == case["verdict"], case["name"]
        covered = {report.verdict for _, report in reports.values()}
        assert covered == set(Verdict)

    def test_reports_match_snapshots_byte_for_byte(self, corpus_reports):
        reports, _ = corpus_reports
        for name, (_, report) in reports.items():
            snapshot = (SNAPSHOTS / f"{name}.txt").read_bytes()
            assert report.summary.encode("utf-8") == snapshot, name

    def test_fixed_phrases(self, corpus_reports):
        reports, _ = corpus_reports
        assert "All of the executed tests passed." in reports["all_passed"][1].summary
        assert ("The execution timed out, the solution is not efficient enough."
                in reports["timeout"][1].summary)

    def test_corpus_runs_quickly(self, corpus_reports):
        assert corpus_reports[1] < 30.0


class TestCallCountLaw:
    """Generator calls equal rounds used; critic calls trail by one."""

    def loop_children(self):
        generator = {"name": "gen", "kind": "llm",
                     "input_keys": ["topic"], "output_keys": ["completion"],
                     "params": {"system_message": "system",
                                "query_message": "solve {{topic}}",
                                "human_message": "{{feedback}}"}}
        critic = {"name": "crit", "kind": "fixed_reply",
                  "params": {"reply": "tighten the draft", "output_key": "reply"}}
        return generator, critic

    def run_loop(self, max_rounds, responses):
        generator, critic = self.loop_children()
        config = {"name": "loop", "kind": "generator_critic",
                  "input_keys": ["topic"], "output_keys": ["completion"],
                  "params": {"max_rounds": max_rounds,
                             "feedback_mapping": {"reply": "feedback"},
                             "children": [generator, critic]}}
        sink = TraceSink()
        ctx = RunContext(trace=sink,
                         backends={"default": ScriptedBackend(responses=responses)})
        out = run(create_flow(config), package_input({"topic": "case"}), ctx)
        counts = {}
        for event in sink.events:
            if event.kind == "flow_start":
                name = event.instance_id.split("#")[0]
                counts[name] = counts.get(name, 0) + 1
        return out, counts

    def bare_generator_payload(self, response):
        generator, _ = self.loop_children()
        ctx = RunContext(backends={"default": ScriptedBackend(responses=[response])})
        out = run(create_flow(generator), package_input({"topic": "case"}), ctx)
        return out.payload

    @staticmethod
    def visible(payload):
        return {k: v for k, v in payload.items() if not k.startswith("_")}

    def test_law_over_random_termination_grid(self):
        rng = random.Random(20250815)
        cases = 0
        started = time.perf_counter()
        while cases < 220:
            max_rounds = rng.randint(1, 6)
            stop_round = rng.randint(1, 10)
            expected = min(stop_round, max_rounds)
            responses = [f"draft {r}" if r < stop_round else "done. Final answer."
                         for r in range(1, expected + 1)]
            out, counts = self.run_loop(max_rounds, responses)
            rounds_used = out.payload[ROUNDS_USED_KEY]
            assert rounds_used == expected, (max_rounds, stop_round)
            assert counts["gen"] == rounds_used
            assert counts.get("crit", 0) == rounds_used - 1
            if max_rounds == 1:
                assert self.visible(out.payload) == \
                    self.visible(self.bare_generator_payload(responses[0]))
            cases += 1
        assert time.perf_counter() - started < 10.0

    def test_single_round_loop_equals_bare_generator(self):
        out, counts = self.run_loop(1, ["the only draft"])
        assert counts == {"loop": 1, "gen": 1}
        assert self.visible(out.payload) == \
            self.visible(self.bare_generator_payload("the only draft"))


def brute_force_ci(outcomes, resamples=1000, level=0.95, seed=42):
    # Percentile bootstrap re-derived with scalar arithmetic: same
    # generator draws, manual means, manual linear-interpolation
    # quantiles over the sorted resample means.
    rng = np.random.default_rng(seed)
    n = len(outcomes)
    values = [1.0 if outcome else 0.0 for outcome in outcomes]
    means = []
    for _ in range(resamples):
        indices = rng.integers(0, n, size=n)
        means.append(sum(values[i] for i in indices) / n)
    means.sort()

    def quantile(q):
        position = q * (resamples - 1)
        lower = math.floor(position)
        upper = math.ceil(position)
        weight = position - lower
        return means[lower] * (1.0 - weight) + means[upper] * weight

    alpha = (1.0 - level) / 2.0
    point = sum(values) / n
    return (100.0 * min(quantile(alpha), point),
            100.0 * max(quantile(1.0 - alpha), point))


class TestBootstrapOracle:
    """bootstrap_ci against an independent brute-force bootstrap."""

    def committed_vectors(self):
        shuffler = random.Random(1106)
        vectors = []
        for solved, total in ((18, 67), (7, 20), (31, 50)):
            vector = [True] * solved + [False] * (total - solved)
            shuffler.shuffle(vector)
            vectors.append(vector)
        return vectors

    def test_matches_brute_force_within_five_hundredths(self):
        for vector in self.committed_vectors():
            got_low, got_high = bootstrap_ci(vector, resamples=1000,
                                             level=0.95, seed=42)
            want_low, want_high = brute_force_ci(vector)
            assert abs(got_low - want_low) <= 0.05
            assert abs(got_high - want_high) <= 0.05

    def test_degenerate_vectors_have_zero_width(self):
        assert bootstrap_ci([True] * 30, resamples=1000, seed=42) == (100.0, 100.0)
        assert bootstrap_ci([False] * 30, resamples=1000, seed=42) == (0.0, 0.0)

    def test_width_shrinks_with_sample_size(self):
        low50, high50 = bootstrap_ci([True, False] * 25, resamples=1000, seed=42)
        low200, high200 = bootstrap_ci([True, False] * 100, resamples=1000, seed=42)
        ratio = (high50 - low50) / (high200 - low200)
        assert 1.6 <= ratio <= 2.4


class TestReportCellGrammar:
    """Rendered cells: absolute for the baseline row, signed deltas with
    half-widths elsewhere, dashes for absent buckets."""

    def stats(self):
        def sr(point, low, high):
            return SolveRate(point=point, ci_low=low, ci_high=high, n=40)

        return {
            "Code": {
                "codeforces-pre": sr(71.8, 60.8, 82.8),
                "codeforces-post": sr(40.0, 28.0, 52.0),
                "leetcode-pre-easy": sr(55.0, 45.0, 65.0),
            },
            "Code_Debug": {
                "codeforces-pre": sr(81.1, 71.4, 90.8),
                "codeforces-post": sr(38.4, 26.4, 50.4),
                "leetcode-pre-easy": None,
            },
            "Plan-Code": {
                "codeforces-pre": sr(71.8, 63.0, 80.6),
                "leetcode-pre-easy": sr(53.4, 43.4, 63.4),
            },
        }

    def test_cell_values(self):
        import csv as csv_mod

        rows = list(csv_mod.reader(results_table_csv(self.stats()).splitlines()))
        assert rows[0] == ["variant", "codeforces-pre", "codeforces-post",
                           "leetcode-pre-easy"]
        assert rows[1] == ["Code", "71.8 ±11.0", "40.0 ±12.0", "55.0 ±10.0"]
        assert rows[2] == ["Code_Debug", "+9.3 ±9.7", "-1.6 ±12.0", "--"]
        assert rows[3] == ["Plan-Code", "+0.0 ±8.8", "--", "-1.6 ±10.0"]

    def test_text_table_carries_same_cells(self):
        text = render_results_table(self.stats())
        assert "71.8 ±11.0" in text
        assert "+9.3 ±9.7" in text
        assert "+0.0 ±8.8" in text
        assert "-1.6 ±12.0" in text
        assert "--" in text
        lines = text.splitlines()
        assert lines[0].startswith("Flow")
        assert set(lines[2]) == {"-", " "}


class TestDeterminismAndIsolation:
    def test_replay_reaches_normalized_fixpoint(self, serial_grid):
        out_dir, result, _ = serial_grid
        # Debug loops feed sandbox reports into prompts, so they replay only
        # if those reports are free of per-run scratch paths.
        assert len(result.records) == 6 * 9
        for record in result.records:
            replay = replay_pair(out_dir, record.problem_id, record.variant)
            assert replay.identical, (record.problem_id, record.variant)

    def test_parallel_grid_equals_serial_grid(self, serial_grid, cli_grid):
        def key_fields(record):
            return (record.problem_id, record.variant, record.solved,
                    record.rounds_used, record.release_date, record.trace_ref,
                    record.verdict, record.error)

        _, serial_result, _ = serial_grid
        parallel = read_records(cli_grid[0] / "records.jsonl")
        assert sorted(key_fields(r) for r in parallel) == \
            sorted(key_fields(r) for r in serial_result.records)

    @given(seed_a=st.text("abcdefghijklmnopqrstuvwxyz0123456789",
                          min_size=1, max_size=10),
           seed_b=st.text("abcdefghijklmnopqrstuvwxyz0123456789",
                          min_size=1, max_size=10))
    @hyp_settings(max_examples=20, deadline=None)
    def test_interleaved_trees_never_cross_write_state(self, seed_a, seed_b):
        marker_a, marker_b = f"A:{seed_a}", f"B:{seed_b}"

        def make_flow(name):
            return create_flow({
                "name": name, "kind": "llm",
                "input_keys": ["seed"], "output_keys": ["completion"],
                "params": {"system_message": "system",
                           "query_message": "open {{seed}}",
                           "human_message": "more {{seed}}"}})

        flow_a, flow_b = make_flow("alpha"), make_flow("beta")
        barrier = threading.Barrier(2)
        failures = []

        def drive(flow, marker):
            responses = [f"first reply {marker}", f"second reply {marker}"]
            ctx = RunContext(backends={"default": ScriptedBackend(responses=responses)})
            try:
                for _ in range(2):
                    barrier.wait()
                    run(flow, package_input({"seed": marker}), ctx)
            except Exception as exc:
                failures.append(exc)

        threads = [threading.Thread(target=drive, args=(flow_a, marker_a)),
                   threading.Thread(target=drive, args=(flow_b, marker_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

        text_a = repr(snapshot_states(flow_a))
        text_b = repr(snapshot_states(flow_b))
        assert marker_a in text_a and marker_b not in text_a
        assert marker_b in text_b and marker_a not in text_b

        before = snapshot_states(flow_a)
        extra_ctx = RunContext(backends={"default": ScriptedBackend(
            responses=[f"third reply {marker_b}"])})
        run(flow_b, package_input({"seed": marker_b}), extra_ctx)
        assert snapshot_states(flow_a) == before


class TestTemporalWindows:
    CUTOFF = dt.date(2021, 9, 1)

    def synthetic_series(self):
        dated = []
        months = [(2021, m) for m in range(3, 13)] + [(2022, 1), (2022, 2)]
        for year, month in months:
            solved_count = 16 if dt.date(year, month, 1) < self.CUTOFF else 5
            for i in range(20):
                dated.append((dt.date(year, month, 1 + (i % 27)), i < solved_count))
        return dated

    def test_transition_confined_to_boundary_windows(self):
        points = sliding_window(self.synthetic_series(), span_months=2,
                                step_months=1, resamples=1000, seed=42)
        assert [p.start for p in points] == [
            dt.date(2021, m, 1) for m in range(3, 13)] + [
            dt.date(2022, 1, 1), dt.date(2022, 2, 1)]
        mixed = []
        for point in points:
            if point.end <= self.CUTOFF:
                assert point.rate.point == 80.0
            elif point.start >= self.CUTOFF:
                assert point.rate.point == 25.0
            else:
                mixed.append(point)
                assert point.rate.point == 52.5
        assert [p.start for p in mixed] == [dt.date(2021, 8, 1)]

        rates = [p.rate.point for p in points]
        assert all(earlier >= later for earlier, later in zip(rates, rates[1:]))

    def test_series_round_trips_through_csv(self, tmp_path):
        points = sliding_window(self.synthetic_series(), span_months=2,
                                step_months=1, resamples=1000, seed=42)
        path = tmp_path / "series.csv"
        write_temporal_csv({"Code": points}, path)
        assert read_temporal_csv(path) == {"Code": points}


class TestEndToEndCli:
    def test_eval_covers_the_grid(self, cli_grid):
        out_dir, _, first = cli_grid
        assert "54 records (54 new runs)" in first.output
        assert len(read_records(out_dir / "records.jsonl")) == 54

    def test_second_eval_resumes_with_zero_new_runs(self, cli_grid):
        _, args, _ = cli_grid
        second = CliRunner().invoke(main, args)
        assert second.exit_code == 0, second.output
        assert "54 records (0 new runs)" in second.output

    def test_report_regenerates_identical_bytes(self, cli_grid):
        out_dir, _, _ = cli_grid
        names = ["results_table.txt", "results_table.csv", "temporal_series.csv"]
        before = {name: (out_dir / name).read_bytes() for name in names}
        result = CliRunner().invoke(main, ["report", "--run-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        after = {name: (out_dir / name).read_bytes() for name in names}
        assert after == before
        assert result.output == (out_dir / "results_table.txt").read_text(encoding="utf-8")
