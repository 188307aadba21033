import csv
import datetime as dt
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestflow import evalharness, sandbox
from nestflow._pcg import Draws
from nestflow.backends import RemoteBackend, ResponseCache, ScriptedBackend
from nestflow.ccflows import VariantSettings
from nestflow.dataset import load_problems
from nestflow.errors import ConfigError, RetryBudgetExhaustedError, SandboxEnvironmentError
from nestflow.evalharness import (
    DEFAULT_LEVEL,
    DEFAULT_RESAMPLES,
    BootstrapDraws,
    EvalSettings,
    RunRecord,
    SolveRate,
    WindowPoint,
    append_record,
    evaluate_grid,
    format_cell,
    pass_at_1,
    read_records,
    read_run_meta,
    render_results_table,
    results_table_csv,
    sliding_window,
    solve_rates,
    stats_from_records,
    temporal_series_csv,
    write_report,
    write_run_meta,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
FORMAT_2_RUN = Path(__file__).resolve().parent / "format_2_run"


def rate(point, low, high, n=10):
    return SolveRate(point=point, ci_low=low, ci_high=high, n=n)


class TestPassAt1:
    def test_needs_outcomes(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            pass_at_1([])

    def test_values(self):
        assert pass_at_1([True]) == 100.0
        assert pass_at_1([False, False]) == 0.0
        assert pass_at_1([True] * 18 + [False] * 49) == pytest.approx(100.0 * 18 / 67)

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_bounded(self, outcomes):
        assert 0.0 <= pass_at_1(outcomes) <= 100.0


def interval(outcomes, resamples=DEFAULT_RESAMPLES, level=DEFAULT_LEVEL, seed=0):
    """One sample's (low, high) interval, from draws of its own."""
    rate = solve_rates([outcomes], BootstrapDraws(resamples, seed), level)[0]
    return rate.ci_low, rate.ci_high


def parse_temporal_csv(text):
    """The window series that ``temporal_series_csv`` wrote as ``text``."""
    by_variant = {}
    for row in csv.DictReader(io.StringIO(text, newline="")):
        rate = SolveRate(point=float(row["point"]), ci_low=float(row["ci_low"]),
                         ci_high=float(row["ci_high"]), n=int(row["n"]))
        by_variant.setdefault(row["variant"], []).append(WindowPoint(
            dt.date.fromisoformat(row["window_start"]), dt.date.fromisoformat(row["window_end"]),
            rate))
    return by_variant


def per_resample_ci(outcomes, resamples, level, seed):
    """The bootstrap drawn one resample at a time: the reference procedure."""
    values = np.asarray(outcomes, dtype=float)
    rng = np.random.default_rng(seed)
    means = np.empty(resamples, dtype=float)
    for b in range(resamples):
        means[b] = values[rng.integers(0, values.size, size=values.size)].mean()
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    point = values.mean()
    return float(100.0 * min(low, point)), float(100.0 * max(high, point))


def single_draw_ci(outcomes, resamples, level, seed):
    """One index draw for all resamples and numpy's own quantile of the means:
    the formula the order-statistic form replaced."""
    values = np.asarray(outcomes, dtype=float)
    rng = np.random.default_rng(seed)
    means = values[rng.integers(0, values.size, size=(resamples, values.size))].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    point = values.mean()
    return float(100.0 * min(low, point)), float(100.0 * max(high, point))


class TestBootstrapCi:
    def test_order_statistics_equal_numpy_quantiles(self):
        shuffler = random.Random(24)
        resample_counts, levels = (1, 2, 7, 100, 1000), (0.8, 0.9, 0.95, 0.975, 0.99)
        for n in range(1, 301):
            share = shuffler.random()
            outcomes = [shuffler.random() < share for _ in range(n)]
            for seed in (n % 5, 17):
                resamples = resample_counts[(n + seed) % 5]
                level = levels[(n // 5 + seed) % 5]
                assert interval(outcomes, resamples, level, seed) == \
                    single_draw_ci(outcomes, resamples, level, seed), (n, resamples, level, seed)
        for n in (1, 2, 30, 300):
            for outcomes in ([True] * n, [False] * n):
                for resamples, level in ((1, 0.8), (1000, 0.99)):
                    assert interval(outcomes, resamples, level, 3) == \
                        single_draw_ci(outcomes, resamples, level, 3), (n, outcomes[0], resamples)

    def test_intervals_of_many_samples_equal_each_alone(self):
        shuffler = random.Random(6)
        samples = [[shuffler.random() < 0.5 for _ in range(shuffler.randint(1, 12))]
                   for _ in range(60)]
        assert solve_rates(samples, BootstrapDraws(500, 4), 0.9) == \
            [solve_rates([outcomes], BootstrapDraws(500, 4), 0.9)[0] for outcomes in samples]
        assert solve_rates([], BootstrapDraws(1, 0), 0.9) == []
        with pytest.raises(ValueError):
            solve_rates([[True], []], BootstrapDraws(1, 0), 0.9)

    def test_single_draw_equals_per_resample_loop(self):
        shuffler = random.Random(5)
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 500, 1000):
            for seed in range(4):
                outcomes = [shuffler.random() < 0.4 for _ in range(n)]
                for resamples in (1, 7, 1000):
                    assert interval(outcomes, resamples, 0.95, seed) == \
                        per_resample_ci(outcomes, resamples, 0.95, seed), (n, seed, resamples)

    def test_validation(self):
        with pytest.raises(ValueError):
            interval([])
        with pytest.raises(ValueError, match="resamples must be >= 1"):
            BootstrapDraws(0, 0)
        with pytest.raises(ValueError):
            interval([True], level=1.0)
        with pytest.raises(ValueError):
            interval([True], level=0.0)

    def test_degenerate_vectors_have_zero_width(self):
        assert interval([True] * 8, seed=42) == (100.0, 100.0)
        assert interval([False] * 8, seed=42) == (0.0, 0.0)

    def test_deterministic_per_seed(self):
        # Reproducibility is the law; seed-sensitivity is demonstrated on
        # a vector large enough that the resample quantiles do not
        # coincide by accident.
        outcomes = [True] * 13 + [False] * 27
        first = interval(outcomes, resamples=200, seed=7)
        second = interval(outcomes, resamples=200, seed=7)
        third = interval(outcomes, resamples=200, seed=8)
        assert first == second
        assert first != third

    def test_interval_contains_point(self):
        outcomes = [True] * 3 + [False] * 9
        low, high = interval(outcomes, resamples=300, seed=1)
        point = pass_at_1(outcomes)
        assert low <= point <= high
        assert 0.0 <= low and high <= 100.0


class TestDraws:
    """The pure-Python draw against numpy's own, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 70), n=st.integers(1, 300),
           resamples=st.sampled_from([1, 2, 7, 100, 1000]))
    def test_equals_numpy(self, seed, n, resamples):
        want = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
        assert Draws(seed).integers(n, resamples * n).tolist() == want.ravel().tolist()

    def test_one_stream_serves_every_bound(self):
        draws = Draws(2 ** 64 + 1)
        for n in (5, 300, 2, 257, 5, 1):
            want = np.random.default_rng(2 ** 64 + 1).integers(0, n, size=(40, n))
            assert draws.integers(n, 40 * n).tolist() == want.ravel().tolist(), n

    @pytest.mark.parametrize("n", [2 ** 31 + 1, 3 * 2 ** 30])
    def test_rejection_loop_equals_numpy(self, n):
        """Near 2**31 Lemire's draw rejects a quarter to a half of the 32-bit
        words, which sizes up to 300 almost never do."""
        for seed in (0, 9):
            draws = Draws(seed)
            got = draws.integers(n, 2000)
            assert got.tolist() == np.random.default_rng(seed).integers(0, n, size=2000).tolist()
            assert len(draws._lanes) // 8 > 2400  # words read: the rejected ones too

    def test_negative_seed_is_refused_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError, match="non-negative"):
            Draws(-1)
        with pytest.raises(ValueError, match="non-negative"):
            BootstrapDraws(100, -1)

    def test_shared_draws_equal_fresh_draws_for_every_size(self):
        """A report's one BootstrapDraws serves samples of any size in any
        order, the byte-column sizes and the occurrence-lane ones alike."""
        shuffler = random.Random(3)
        samples = [[shuffler.random() < 0.6 for _ in range(n)] for n in (3, 300, 2, 3, 257, 40)]
        shared = BootstrapDraws(100, 3)
        assert [solve_rates([outcomes], shared, 0.9)[0] for outcomes in samples] == \
            [solve_rates([outcomes], BootstrapDraws(100, 3), 0.9)[0] for outcomes in samples]


class TestSlidingWindow:
    def dated(self, *pairs):
        return [(dt.date.fromisoformat(day), solved) for day, solved in pairs]

    def windows(self, *pairs):
        return sliding_window(self.dated(*pairs), BootstrapDraws(50, 0), DEFAULT_LEVEL)

    def test_validation_and_empty(self):
        with pytest.raises(ValueError, match="level"):
            sliding_window(self.dated(("2021-01-10", True)), BootstrapDraws(50, 0), 1.0)
        assert sliding_window([], BootstrapDraws(50, 0), DEFAULT_LEVEL) == []

    def test_empty_windows_skipped(self):
        points = self.windows(("2021-01-10", True), ("2021-01-20", True), ("2021-04-05", False))
        # [Feb, Apr) holds no problem.
        assert [(p.start, p.end) for p in points] == [
            (dt.date(2021, 1, 1), dt.date(2021, 3, 1)),
            (dt.date(2021, 3, 1), dt.date(2021, 5, 1)),
            (dt.date(2021, 4, 1), dt.date(2021, 6, 1)),
        ]
        assert points[0].rate.point == 100.0 and points[0].rate.n == 2
        assert points[1].rate.point == 0.0 and points[1].rate.n == 1

    def test_span_two_mixes_adjacent_months(self):
        points = self.windows(("2021-01-10", True), ("2021-02-10", False))
        assert points[0].rate.n == 2 and points[0].rate.point == 50.0
        assert points[1].rate.n == 1 and points[1].rate.point == 0.0

    def test_window_end_is_exclusive(self):
        points = self.windows(("2021-01-15", True), ("2021-03-01", False))
        assert (points[0].start, points[0].end) == (dt.date(2021, 1, 1), dt.date(2021, 3, 1))
        assert points[0].rate.n == 1
        assert points[0].rate.point == 100.0


class TestTemporalCsv:
    def test_lossless_round_trip(self):
        mixed, unsolved = solve_rates([[True, False, True], [False] * 4],
                                      BootstrapDraws(100, 5), DEFAULT_LEVEL)
        series = {
            "Code": [WindowPoint(dt.date(2021, 1, 1), dt.date(2021, 3, 1), mixed)],
            "Code_Reflection": [WindowPoint(dt.date(2021, 2, 1), dt.date(2021, 4, 1), unsolved)],
        }
        assert parse_temporal_csv(temporal_series_csv(series)) == series

    def test_header(self):
        assert temporal_series_csv({}) == \
            "variant,window_start,window_end,point,ci_low,ci_high,n\r\n"


class TestFormatCell:
    def test_absolute_cell(self):
        assert format_cell(rate(71.8, 60.8, 82.8)) == "71.8 ±11.0"
        assert format_cell(rate(100.0, 100.0, 100.0)) == "100.0 ±0.0"

    def test_delta_cells(self):
        baseline = rate(71.8, 60.8, 82.8)
        assert format_cell(rate(81.1, 71.4, 90.8), baseline) == "+9.3 ±9.7"
        assert format_cell(rate(70.2, 62.2, 78.2), baseline) == "-1.6 ±8.0"
        assert format_cell(rate(71.8, 61.8, 81.8), baseline) == "+0.0 ±10.0"

    def test_absent_cells(self):
        assert format_cell(None) == "--"
        assert format_cell(rate(0.0, 0.0, 0.0, n=0)) == "--"
        assert format_cell(rate(0.0, 0.0, 0.0, n=0), rate(50.0, 40.0, 60.0)) == "--"

    def test_missing_interval_renders_zero_half_width(self):
        assert format_cell(SolveRate(point=25.0, ci_low=None, ci_high=None, n=4)) == \
            "25.0 ±0.0"


class TestRenderResultsTable:
    def stats(self):
        return {
            "Code": {
                "codeforces-pre": rate(71.8, 60.8, 82.8),
                "leetcode-post-easy": rate(50.0, 40.0, 60.0),
                "leetcode-post-medium": rate(30.0, 20.0, 40.0),
            },
            "Code_Reflection": {
                "codeforces-pre": rate(81.1, 71.4, 90.8),
                "leetcode-post-easy": None,
                "leetcode-post-medium": rate(28.4, 20.4, 36.4),
            },
        }

    def test_layout(self):
        text = render_results_table(self.stats())
        lines = text.splitlines()
        assert lines[0].split() == ["Flow", "Codeforces", "LeetCode"]
        assert lines[1].split() == ["Pre-cutoff", "Post", "Easy", "Post", "Medium"]
        assert set(lines[2]) == {"-", " "}
        assert lines[3].split("  ")[0] == "Code"
        assert "71.8 ±11.0" in lines[3]
        assert "+9.3 ±9.7" in lines[4]
        assert "--" in lines[4]
        assert "-1.6 ±8.0" in lines[4]
        assert text.endswith("\n")
        assert all(line == line.rstrip() for line in lines)

    def test_variant_missing_from_stats_renders_dashes(self):
        text = render_results_table(self.stats(), ["Code", "Plan-Code"])
        row = text.splitlines()[-1]
        assert row.startswith("Plan-Code")
        assert row.count("--") == 3

    def test_csv_mirror(self):
        text = results_table_csv(self.stats())
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["variant", "codeforces-pre", "leetcode-post-easy",
                           "leetcode-post-medium"]
        assert rows[1] == ["Code", "71.8 ±11.0", "50.0 ±10.0", "30.0 ±10.0"]
        assert rows[2] == ["Code_Reflection", "+9.3 ±9.7", "--", "-1.6 ±8.0"]


class TestRecordsIo:
    def record(self, **overrides):
        base = dict(problem_id="p1", variant="Code", solved=True, rounds_used=1,
                    release_date="2021-05-10", trace_ref="p1/Code/trace.log",
                    wall_time=0.25)
        base.update(overrides)
        return RunRecord(**base)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [self.record(),
                   self.record(variant="Debug-Code", solved=False,
                               verdict="WrongAnswer"),
                   self.record(variant="Plan-Code", solved=False,
                               error="backend unreachable")]
        for record in records:
            append_record(path, record)
        assert read_records(path) == records

    def test_optional_fields_omitted_from_json(self, tmp_path):
        path = tmp_path / "records.jsonl"
        append_record(path, self.record())
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert "verdict" not in doc and "error" not in doc
        assert list(doc) == sorted(doc)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_records(tmp_path / "absent.jsonl") == []

    def test_torn_last_line_is_dropped_with_a_warning(self, tmp_path, caplog):
        path = tmp_path / "records.jsonl"
        append_record(path, self.record())
        torn = json.dumps(self.record(variant="Plan-Code").to_dict(), sort_keys=True)[:40]
        with path.open("a", encoding="utf-8") as fh:
            fh.write(torn)
        with caplog.at_level("WARNING", logger="nestflow.evalharness"):
            assert read_records(path) == [self.record()]
        assert "torn last record" in caplog.text

    def test_whole_last_line_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "records.jsonl"
        append_record(path, self.record())
        path.write_text(path.read_text(encoding="utf-8").rstrip("\n"), encoding="utf-8")
        assert read_records(path) == [self.record()]

    @pytest.mark.parametrize("bad", ["{torn\n", "{torn"], ids=["terminated", "unterminated"])
    def test_corruption_before_the_last_line_raises(self, tmp_path, bad):
        path = tmp_path / "records.jsonl"
        path.write_text(bad + ("\n" if not bad.endswith("\n") else "")
                        + json.dumps(self.record().to_dict()) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="^run directory is corrupt: Expecting property "
                                              f"name .* \\({path}, line 1\\)$"):
            read_records(path)


class TestStatsFromRecords:
    def test_bucketing(self):
        meta = {
            "cf1": {"source": "codeforces", "difficulty": 800,
                    "release_date": "2021-05-10"},
            "lc1": {"source": "leetcode", "difficulty": "easy",
                    "release_date": "2021-10-01"},
        }
        records = [
            RunRecord("cf1", "Code", True, 1, "2021-05-10", "t", 0.1),
            RunRecord("lc1", "Code", False, 1, "2021-10-01", "t", 0.1),
        ]
        stats = stats_from_records(records, meta, dt.date(2021, 9, 1), BootstrapDraws(50, 0),
                                   DEFAULT_LEVEL)
        assert stats["Code"]["codeforces-pre"].point == 100.0
        assert stats["Code"]["leetcode-post-easy"].point == 0.0
        assert stats["Code"]["codeforces-pre"].n == 1


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("grid")
    settings = EvalSettings(
        out_dir=out_dir,
        backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
        variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
    )
    problems = [p for p in load_problems(FIXTURES / "problems")
                if p.id == "cf-echo-101"]
    result = evaluate_grid(problems, ["Code", "Code_Reflection"], settings)
    return out_dir, settings, problems, result


class TestEvaluateGrid:
    def test_first_run_covers_grid(self, small_grid):
        out_dir, _, _, result = small_grid
        assert result.new_runs == 2
        assert [(r.problem_id, r.variant) for r in result.records] == [
            ("cf-echo-101", "Code"), ("cf-echo-101", "Code_Reflection")]
        assert all(r.solved and r.verdict == "AllPassed" for r in result.records)
        assert (out_dir / "records.jsonl").exists()
        assert (out_dir / "cf-echo-101" / "Code" / "trace.log.gz").exists()

    def test_run_meta_contents(self, small_grid):
        out_dir, settings, _, _ = small_grid
        meta = read_run_meta(out_dir)
        assert meta["variants"] == ["Code", "Code_Reflection"]
        assert meta["cutoff"] == "2021-09-01"
        assert meta["problems"]["cf-echo-101"]["source"] == "codeforces"
        assert meta["variant_settings"]["model"] == "scripted"
        assert (meta["resamples"], meta["level"]) == (DEFAULT_RESAMPLES, DEFAULT_LEVEL)

    def test_resume_skips_existing(self, small_grid):
        out_dir, settings, problems, _ = small_grid
        again = evaluate_grid(problems, ["Code", "Code_Reflection"], settings)
        assert again.new_runs == 0
        assert len(again.records) == 2

    def test_unknown_variant_rejected_upfront(self, small_grid):
        out_dir, settings, problems, _ = small_grid
        with pytest.raises(ConfigError):
            evaluate_grid(problems, ["Telepathy-Code"], settings)

    @pytest.mark.parametrize("variants, message", [
        (["Code", "Code"], "variant 'Code' is listed more than once"),
        (["Plan-Code", "Code", "Plan-Code"], "variant 'Plan-Code' is listed more than once"),
        ([], "the variant list is empty"),
    ], ids=["repeated", "repeated-apart", "empty"])
    def test_repeated_or_empty_variants_rejected_upfront(self, tmp_path, problems_by_id,
                                                         variants, message):
        settings = EvalSettings(out_dir=tmp_path / "run", backend=ScriptedBackend(responses=[]),
                                variant_settings=VariantSettings(wall_time=2.0))
        with pytest.raises(ConfigError, match=message):
            evaluate_grid([problems_by_id["cf-echo-101"]], variants, settings)
        assert not settings.out_dir.exists()

    def test_resume_after_a_torn_append_reruns_that_pair(self, tmp_path, problems_by_id):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"]]
        variants = ["Code", "Code_Reflection", "Plan-Code"]
        evaluate_grid(problems, variants, settings)
        path = tmp_path / "records.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        torn = json.loads(lines[-1])["variant"]
        path.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2], encoding="utf-8")
        resumed = evaluate_grid(problems, variants, settings)
        assert resumed.new_runs == 1
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and len(text.splitlines()) == 3
        records = read_records(path)
        assert sorted(r.variant for r in records) == sorted(variants)
        assert [r.variant for r in records][-1] == torn

    def test_last_line_that_is_no_record_counts_as_torn(self, tmp_path, problems_by_id):
        """A last line that parses as JSON but is no record is torn for both
        reading and resuming: it is dropped, then cut off before appending."""
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"]]
        evaluate_grid(problems, ["Code"], settings)
        path = tmp_path / "records.jsonl"
        whole = path.read_text(encoding="utf-8")
        path.write_text(whole + '{"a": 1}', encoding="utf-8")
        assert [r.variant for r in read_records(path)] == ["Code"]
        assert evaluate_grid(problems, ["Code"], settings).new_runs == 0
        assert path.read_text(encoding="utf-8") == whole

    @pytest.mark.parametrize("change, named", [
        ({"seed": 1}, "seed: 0 -> 1"),
        ({"cutoff": dt.date(2022, 1, 1)}, 'cutoff: "2021-09-01" -> "2022-01-01"'),
        # resamples and level are constants now; a run directory can still record others.
        ({"run_meta": {"resamples": 500}}, "resamples: 500 -> 1000"),
        ({"run_meta": {"level": 0.9}}, "level: 0.9 -> 0.95"),
        ({"variants": ["Code", "Plan-Code"]}, 'variants: ["Code"] -> ["Code", "Plan-Code"]'),
        ({"variant_settings": VariantSettings(wall_time=2.0, model="scripted", max_rounds=1)},
         "variant_settings.max_rounds: 4 -> 1"),
    ], ids=["seed", "cutoff", "resamples", "level", "variants", "variant_settings"])
    def test_resume_with_other_settings_is_refused(self, tmp_path, problems_by_id, change, named):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"]]
        evaluate_grid(problems, ["Code"], settings)
        meta_path = tmp_path / "run_meta.json"
        recorded = change.pop("run_meta", {})
        if recorded:
            meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **recorded}))
        files = {path: (path.read_bytes(), path.stat().st_mtime_ns)
                 for path in tmp_path.rglob("*") if path.is_file()}
        variants = change.pop("variants", ["Code"])
        other = EvalSettings(**{**vars(settings), **change})
        with pytest.raises(ConfigError, match="cannot resume") as caught:
            evaluate_grid(problems, variants, other)
        assert str(caught.value).endswith(named)
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns)
                for path in tmp_path.rglob("*") if path.is_file()} == files
        other.resume = False
        assert evaluate_grid(problems, variants, other).new_runs == len(variants)
        other.resume = True
        assert evaluate_grid(problems, variants, other).new_runs == 0

    def test_fresh_start_discards_records(self, tmp_path, problems_by_id):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
            resume=False,
        )
        problems = [problems_by_id["cf-echo-101"]]
        first = evaluate_grid(problems, ["Code"], settings)
        second = evaluate_grid(problems, ["Code"], settings)
        assert first.new_runs == second.new_runs == 1
        assert len(read_records(tmp_path / "records.jsonl")) == 1

    def test_backend_failure_aborts_and_resume_reruns(self, tmp_path, problems_by_id,
                                                      unavailable_post):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=RemoteBackend("https://localhost/v1", "STUB_API_KEY", max_attempts=2,
                                  post=unavailable_post, sleep=lambda _: None),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"]]
        with pytest.raises(RetryBudgetExhaustedError):
            evaluate_grid(problems, ["Code"], settings)
        assert read_records(tmp_path / "records.jsonl") == []
        assert not list(tmp_path.rglob("trace.log*"))
        settings.backend = ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml")
        resumed = evaluate_grid(problems, ["Code"], settings)
        assert resumed.new_runs == 1
        assert resumed.records[0].solved

    def test_client_error_becomes_error_record(self, tmp_path, problems_by_id,
                                               unavailable_post):
        unavailable_post.status = 400
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=RemoteBackend("https://localhost/v1", "STUB_API_KEY", max_attempts=2,
                                  post=unavailable_post, sleep=lambda _: None),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"], problems_by_id["cf-pairsum-202"]]
        result = evaluate_grid(problems, ["Code"], settings)
        assert result.new_runs == 2
        assert unavailable_post.posts == 2
        for record in read_records(tmp_path / "records.jsonl"):
            assert not record.solved
            assert record.verdict is None
            assert "HTTP 400: unavailable" in record.error
        assert len(list(tmp_path.rglob("trace.log*"))) == 2

    def test_flow_failure_becomes_error_record(self, tmp_path, problems_by_id):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend(responses=["I refuse to write any code."]),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        result = evaluate_grid([problems_by_id["cf-echo-101"]], ["Code"], settings)
        record = result.records[0]
        assert not record.solved
        assert record.verdict is None
        assert record.error and "code" in record.error


class TestPipeline:
    """eval judges each pair's hidden tests beside the next pairs' flows."""

    def test_a_hidden_judgement_overlaps_a_later_flow(self, tmp_path, problems_by_id,
                                                      monkeypatch):
        """lc-countdown-505's Code program loops forever. Its hidden-test
        judgement waits out the wall time while Code_Debug, two pairs later,
        waits out the same wall time on the public tests."""
        monkeypatch.setattr(sandbox, "_MEMO", OrderedDict())  # every judgement runs
        calls = []
        judge = sandbox.run_tests

        def timed(stage):
            def run_tests(*args, **kwargs):
                start = time.monotonic()
                report = judge(*args, **kwargs)
                calls.append((stage, report.verdict, start, time.monotonic()))
                return report
            return run_tests

        monkeypatch.setattr(sandbox, "run_tests", timed("public"))
        monkeypatch.setattr(evalharness, "run_tests", timed("hidden"))
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=1.0, model="scripted"))
        threads = threading.active_count()
        result = evaluate_grid([problems_by_id["lc-countdown-505"]],
                               ["Code", "Code_Reflection", "Code_Debug"], settings)
        assert threading.active_count() == threads
        assert {r.variant: r.verdict for r in result.records} == {
            "Code": "Timeout", "Code_Reflection": "Timeout", "Code_Debug": "AllPassed"}
        (_, start_a, end_a), (_, start_b, end_b) = [
            next((stage, start, end) for stage, verdict, start, end in calls
                 if stage == name and verdict == sandbox.Verdict.TIMEOUT)
            for name in ("hidden", "public")]
        assert max(start_a, start_b) < min(end_a, end_b), calls

    def test_more_workers_than_cores_record_each_pair_once(self, tmp_path, problems):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=1.0, model="scripted"), workers=4)
        variants = ["Code", "Code_Reflection", "Code_Debug"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = evaluate_grid(problems, variants, settings)
        finally:
            sys.setswitchinterval(interval)
        pairs = sorted((p.id, v) for p in problems for v in variants)
        assert result.new_runs == len(pairs)
        assert [(r.problem_id, r.variant) for r in result.records] == pairs
        records = read_records(tmp_path / "records.jsonl")
        assert sorted((r.problem_id, r.variant) for r in records) == pairs
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("trace.log*")) \
            == sorted(r.trace_ref for r in records)

    def test_an_error_in_a_judgement_fails_the_grid_fast(self, tmp_path, problems,
                                                          monkeypatch):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=1.0, model="scripted"))
        completions = []
        complete = ScriptedBackend.complete

        def slow_complete(self, request):
            time.sleep(0.02)  # a flow takes longer than the failing judgement
            completions.append(request)
            return complete(self, request)

        seen_at = []

        def broken_judge(*args, **kwargs):
            seen_at.append(len(completions))
            raise SandboxEnvironmentError("judge runner failed: stub")

        threads = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(ScriptedBackend, "complete", slow_complete)
            patch.setattr(evalharness, "run_tests", broken_judge)
            with pytest.raises(SandboxEnvironmentError, match="stub"):
                evaluate_grid(problems, ["Code"], settings)
        assert threading.active_count() == threads
        # The first pair's judgement failed and the queued ones never ran.
        assert len(seen_at) == 1
        # A Code flow makes one backend call. Only the flow that was running
        # when the judgement failed (one worker) may have made one since.
        assert len(completions) <= seen_at[0] + settings.workers < len(problems)
        records = read_records(tmp_path / "records.jsonl")
        assert records == []
        assert not list(tmp_path.rglob("trace.log*"))
        resumed = evaluate_grid(problems, ["Code"], settings)
        assert resumed.new_runs == len(problems)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("trace.log*")) \
            == sorted(r.trace_ref for r in read_records(tmp_path / "records.jsonl"))


class TestWriteReport:
    def test_regeneration_is_byte_identical(self, small_grid):
        out_dir, _, _, _ = small_grid
        paths = write_report(out_dir)
        first = {name: path.read_bytes() for name, path in paths.items()}
        paths = write_report(out_dir)
        second = {name: path.read_bytes() for name, path in paths.items()}
        assert first == second
        table = (out_dir / "results_table.txt").read_text(encoding="utf-8")
        assert table.splitlines()[0].split() == ["Flow", "Codeforces"]
        assert "Code" in table

    def test_temporal_series_written(self, small_grid):
        out_dir, _, _, _ = small_grid
        write_report(out_dir)
        series = parse_temporal_csv(
            (out_dir / "temporal_series.csv").read_bytes().decode("utf-8"))
        assert set(series) == {"Code", "Code_Reflection"}
        for points in series.values():
            assert all(p.rate.n >= 1 for p in points)

    REPORT_FILES = ("results_table.txt", "results_table.csv", "temporal_series.csv")

    def report_copy(self, small_grid, tmp_path):
        """A copy of the small grid's run directory, its report files written."""
        out_dir = shutil.copytree(small_grid[0], tmp_path / "run")
        write_report(out_dir)
        return out_dir, {name: (out_dir / name).read_bytes() for name in self.REPORT_FILES}

    def test_a_report_file_that_cannot_be_replaced_leaves_no_temporary_file(self, small_grid,
                                                                            tmp_path):
        out_dir, before = self.report_copy(small_grid, tmp_path)
        (out_dir / "results_table.csv").unlink()
        (out_dir / "results_table.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            write_report(out_dir)
        assert not list(out_dir.glob("*.tmp"))
        # Each report file is whole: the one before the failure replaced, the one after kept.
        assert (out_dir / "results_table.txt").read_bytes() == before["results_table.txt"]
        assert (out_dir / "temporal_series.csv").read_bytes() == before["temporal_series.csv"]

    def test_a_rendering_error_touches_no_report_file(self, small_grid, tmp_path, monkeypatch):
        out_dir, before = self.report_copy(small_grid, tmp_path)
        inodes = {name: (out_dir / name).stat().st_ino for name in self.REPORT_FILES}

        def broken(by_variant):
            raise RuntimeError("stub")

        monkeypatch.setattr(evalharness, "temporal_series_csv", broken)
        with pytest.raises(RuntimeError, match="stub"):
            write_report(out_dir)
        assert {name: (out_dir / name).read_bytes() for name in self.REPORT_FILES} == before
        assert {name: (out_dir / name).stat().st_ino for name in self.REPORT_FILES} == inodes
        assert not list(out_dir.glob("*.tmp"))

    def test_report_of_a_large_sample_is_pinned(self, tmp_path):
        """A seeded run directory whose Code/codeforces-pre sample holds 300
        records, so its interval goes through the occurrence lanes (n >= 256)
        and the other samples through the byte columns."""
        shuffler = random.Random(28)
        problems, records = {}, []
        for index in range(420):
            source = "codeforces" if index < 360 else "leetcode"
            # 300 codeforces problems before the cutoff, 60 after, 60 leetcode ones anywhere.
            offset = (index * 4 // 5 if index < 300 else 250 + index - 300 if index < 360
                      else shuffler.randrange(300))
            day = dt.date(2021, 1, 1) + dt.timedelta(days=offset)
            problems[f"p{index:03d}"] = {"source": source, "release_date": day.isoformat(),
                                         "difficulty": shuffler.choice(["easy", "medium", "hard"])
                                         if source == "leetcode" else 800 + 100 * (index % 20)}
            for variant, share in (("Code", 0.3 + 0.4 * (day.month < 9)), ("Code_Debug", 0.55)):
                records.append({"problem_id": f"p{index:03d}", "variant": variant,
                                "solved": shuffler.random() < share, "rounds_used": 1,
                                "release_date": day.isoformat(), "trace_ref": "t", "wall_time": 0.1})
        meta = {"seed": 3, "cutoff": "2021-09-01", "resamples": 1000, "level": 0.95,
                "variants": ["Code", "Code_Debug"], "variant_settings": {}, "problems": problems}
        (tmp_path / "run_meta.json").write_text(json.dumps(meta), encoding="utf-8")
        (tmp_path / "records.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert sum(1 for r in records if r["variant"] == "Code" and r["release_date"] < "2021-09-01"
                   and problems[r["problem_id"]]["source"] == "codeforces") == 300
        paths = write_report(tmp_path)
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in paths.values()}
        assert digests == {
            "results_table.txt": "cb2b9fdb6553e6eec1ff1d008a5091a2dc91f63a838703078b0f4b3a6cba47e1",
            "results_table.csv": "83fc7926451d8f3ee433c4193a11890a4c0efbd51b3e5dded90bbd06fbc47ddb",
            "temporal_series.csv":
                "2db6d3ae201f9350ed8ed012e973aa32437eb1493516571bdaf543296916f85d",
        }


def test_files_get_the_mode_open_gives(tmp_path):
    """run_meta.json, a cache entry and the report files are made as
    ``Path.write_text`` makes a file: mode 0666 less the umask."""
    umask = os.umask(0o027)
    try:
        (tmp_path / "plain").write_text("", encoding="utf-8")
        write_run_meta(tmp_path, [], ["Code"], EvalSettings(out_dir=tmp_path, backend=None))
        ResponseCache(tmp_path / "cache").put("0123", "reply")
        paths = write_report(tmp_path)
    finally:
        os.umask(umask)
    mode = (tmp_path / "plain").stat().st_mode
    assert mode & 0o777 == 0o640
    made = [tmp_path / "run_meta.json", tmp_path / "cache" / "0123.resp", *paths.values()]
    assert {path.name: path.stat().st_mode for path in made} == dict.fromkeys(
        [path.name for path in made], mode)
