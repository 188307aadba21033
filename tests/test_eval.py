import csv
import datetime as dt
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestflow.backends import RemoteBackend, ScriptedBackend
from nestflow.ccflows import VariantSettings
from nestflow.dataset import load_problems
from nestflow.errors import ConfigError, RetryBudgetExhaustedError
from nestflow.evalharness import (
    EvalSettings,
    RunRecord,
    SolveRate,
    WindowPoint,
    append_record,
    bootstrap_ci,
    evaluate_grid,
    format_cell,
    pass_at_1,
    read_records,
    read_run_meta,
    read_temporal_csv,
    render_results_table,
    results_table_csv,
    sliding_window,
    solve_rate,
    stats_from_records,
    write_report,
    write_temporal_csv,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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


class TestBootstrapCi:
    def test_single_draw_equals_per_resample_loop(self):
        shuffler = random.Random(5)
        for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 500, 1000):
            for seed in range(4):
                outcomes = [shuffler.random() < 0.4 for _ in range(n)]
                for resamples in (1, 7, 1000):
                    assert bootstrap_ci(outcomes, resamples, 0.95, seed) == \
                        per_resample_ci(outcomes, resamples, 0.95, seed), (n, seed, resamples)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([True], resamples=0)
        with pytest.raises(ValueError):
            bootstrap_ci([True], level=1.0)
        with pytest.raises(ValueError):
            bootstrap_ci([True], level=0.0)

    def test_degenerate_vectors_have_zero_width(self):
        assert bootstrap_ci([True] * 8, seed=42) == (100.0, 100.0)
        assert bootstrap_ci([False] * 8, seed=42) == (0.0, 0.0)

    def test_deterministic_per_seed(self):
        # Reproducibility is the law; seed-sensitivity is demonstrated on
        # a vector large enough that the resample quantiles do not
        # coincide by accident.
        outcomes = [True] * 13 + [False] * 27
        first = bootstrap_ci(outcomes, resamples=200, seed=7)
        second = bootstrap_ci(outcomes, resamples=200, seed=7)
        third = bootstrap_ci(outcomes, resamples=200, seed=8)
        assert first == second
        assert first != third

    def test_interval_contains_point(self):
        outcomes = [True] * 3 + [False] * 9
        low, high = bootstrap_ci(outcomes, resamples=300, seed=1)
        point = pass_at_1(outcomes)
        assert low <= point <= high
        assert 0.0 <= low and high <= 100.0

    def test_solve_rate_wraps_everything(self):
        result = solve_rate([True, False], resamples=100, seed=3)
        assert result.point == 50.0
        assert result.n == 2
        assert result.ci_low <= 50.0 <= result.ci_high


class TestSlidingWindow:
    def dated(self, *pairs):
        return [(dt.date.fromisoformat(day), solved) for day, solved in pairs]

    def test_validation_and_empty(self):
        with pytest.raises(ValueError):
            sliding_window([("x", True)], span_months=0)
        with pytest.raises(ValueError):
            sliding_window([("x", True)], step_months=0)
        assert sliding_window([]) == []

    def test_empty_windows_skipped(self):
        data = self.dated(("2021-01-10", True), ("2021-01-20", True),
                          ("2021-03-05", False))
        points = sliding_window(data, span_months=1, step_months=1, resamples=50)
        assert [(p.start, p.end) for p in points] == [
            (dt.date(2021, 1, 1), dt.date(2021, 2, 1)),
            (dt.date(2021, 3, 1), dt.date(2021, 4, 1)),
        ]
        assert points[0].rate.point == 100.0 and points[0].rate.n == 2
        assert points[1].rate.point == 0.0 and points[1].rate.n == 1

    def test_span_two_mixes_adjacent_months(self):
        data = self.dated(("2021-01-10", True), ("2021-02-10", False))
        points = sliding_window(data, span_months=2, step_months=1, resamples=50)
        assert points[0].rate.n == 2 and points[0].rate.point == 50.0
        assert points[1].rate.n == 1 and points[1].rate.point == 0.0

    def test_window_end_is_exclusive(self):
        data = self.dated(("2021-01-15", True), ("2021-02-01", False))
        points = sliding_window(data, span_months=1, step_months=1, resamples=50)
        assert points[0].rate.n == 1
        assert points[0].rate.point == 100.0


class TestTemporalCsv:
    def test_lossless_round_trip(self, tmp_path):
        series = {
            "Code": [WindowPoint(dt.date(2021, 1, 1), dt.date(2021, 3, 1),
                                 solve_rate([True, False, True], resamples=100, seed=5))],
            "Code_Reflection": [WindowPoint(dt.date(2021, 2, 1), dt.date(2021, 4, 1),
                                            solve_rate([False] * 4, resamples=100, seed=5))],
        }
        path = tmp_path / "series.csv"
        write_temporal_csv(series, path)
        assert read_temporal_csv(path) == series

    def test_header(self, tmp_path):
        path = tmp_path / "series.csv"
        write_temporal_csv({}, path)
        assert path.read_text(encoding="utf-8").strip() == \
            "variant,window_start,window_end,point,ci_low,ci_high,n"


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
        with pytest.raises(json.JSONDecodeError):
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
        stats = stats_from_records(records, meta, cutoff=dt.date(2021, 9, 1),
                                   resamples=50)
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
        assert (out_dir / "cf-echo-101" / "Code" / "trace.log").exists()

    def test_run_meta_contents(self, small_grid):
        out_dir, settings, _, _ = small_grid
        meta = read_run_meta(out_dir)
        assert meta["variants"] == ["Code", "Code_Reflection"]
        assert meta["cutoff"] == "2021-09-01"
        assert meta["problems"]["cf-echo-101"]["source"] == "codeforces"
        assert meta["variant_settings"]["model"] == "scripted"
        assert meta["resamples"] == settings.resamples

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

    @pytest.mark.parametrize("change, named", [
        ({"seed": 1}, "seed: 0 -> 1"),
        ({"cutoff": dt.date(2022, 1, 1)}, 'cutoff: "2021-09-01" -> "2022-01-01"'),
        ({"resamples": 500}, "resamples: 1000 -> 500"),
        ({"level": 0.9}, "level: 0.95 -> 0.9"),
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

    def test_resume_accepts_the_old_python_language_tag(self, tmp_path, problems_by_id):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"]]
        evaluate_grid(problems, ["Code"], settings)
        path = tmp_path / "run_meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["variant_settings"]["language_tag"] = "python"
        path.write_text(json.dumps(meta), encoding="utf-8")
        assert evaluate_grid(problems, ["Code"], settings).new_runs == 0

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
                                                      unavailable_session):
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=RemoteBackend("https://localhost/v1", "STUB_API_KEY", max_attempts=2,
                                  session=unavailable_session, sleep=lambda _: None),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"]]
        with pytest.raises(RetryBudgetExhaustedError):
            evaluate_grid(problems, ["Code"], settings)
        assert read_records(tmp_path / "records.jsonl") == []
        assert not list(tmp_path.rglob("trace.log"))
        settings.backend = ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml")
        resumed = evaluate_grid(problems, ["Code"], settings)
        assert resumed.new_runs == 1
        assert resumed.records[0].solved

    def test_client_error_becomes_error_record(self, tmp_path, problems_by_id,
                                               unavailable_session):
        unavailable_session.status = 400
        settings = EvalSettings(
            out_dir=tmp_path,
            backend=RemoteBackend("https://localhost/v1", "STUB_API_KEY", max_attempts=2,
                                  session=unavailable_session, sleep=lambda _: None),
            variant_settings=VariantSettings(wall_time=2.0, model="scripted"),
        )
        problems = [problems_by_id["cf-echo-101"], problems_by_id["cf-pairsum-202"]]
        result = evaluate_grid(problems, ["Code"], settings)
        assert result.new_runs == 2
        assert unavailable_session.posts == 2
        for record in read_records(tmp_path / "records.jsonl"):
            assert not record.solved
            assert record.verdict is None
            assert "HTTP 400: unavailable" in record.error
        assert len(list(tmp_path.rglob("trace.log"))) == 2

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
        series = read_temporal_csv(out_dir / "temporal_series.csv")
        assert set(series) == {"Code", "Code_Reflection"}
        for points in series.values():
            assert all(p.rate.n >= 1 for p in points)
