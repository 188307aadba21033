import datetime as dt

import pytest
import yaml

from nestflow.dataset import (
    BUCKET_ORDER,
    DEFAULT_CUTOFF,
    Problem,
    bucket_key,
    load_problem_file,
    load_problems,
)
from nestflow.errors import DatasetError
from nestflow.sandbox import TestCase as IOCase


def base_doc(**overrides):
    doc = {
        "id": "cf-demo-1",
        "source": "codeforces",
        "difficulty": 800,
        "release_date": "2020-01-15",
        "problem_description": "Echo the number.",
        "input_description": "One integer n.",
        "output_description": "The integer n.",
        "public_examples": [{"input": "1\n", "expected_output": "1\n"}],
        "hidden_tests": [{"input": "2\n", "expected_output": "2\n"}],
    }
    doc.update(overrides)
    return {key: value for key, value in doc.items() if value is not ...}


def write_doc(tmp_path, doc, name="problem.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def make_problem(pid, source, difficulty, date):
    tests = (IOCase("1\n", "1\n"),)
    return Problem(id=pid, source=source, difficulty=difficulty,
                   release_date=dt.date.fromisoformat(date),
                   problem_description="d", input_description="i",
                   output_description="o", public_examples=tests,
                   hidden_tests=tests)


class TestLoadProblemFile:
    def test_valid_document(self, tmp_path):
        problem = load_problem_file(write_doc(tmp_path, base_doc()))
        assert problem.id == "cf-demo-1"
        assert problem.release_date == dt.date(2020, 1, 15)
        assert problem.public_examples == (IOCase("1\n", "1\n"),)
        assert problem.explanation is None and problem.human_plan is None

    def test_unknown_field_rejected(self, tmp_path):
        path = write_doc(tmp_path, base_doc(titel="oops"))
        with pytest.raises(DatasetError, match=r"unknown fields \['titel'\]"):
            load_problem_file(path)

    def test_missing_fields_listed_together(self, tmp_path):
        path = write_doc(tmp_path, base_doc(id=..., hidden_tests=...))
        with pytest.raises(DatasetError, match=r"\['hidden_tests', 'id'\]"):
            load_problem_file(path)

    def test_codeforces_difficulty_must_be_rating(self, tmp_path):
        with pytest.raises(DatasetError, match="numeric rating"):
            load_problem_file(write_doc(tmp_path, base_doc(difficulty="easy")))
        with pytest.raises(DatasetError, match="numeric rating"):
            load_problem_file(write_doc(tmp_path, base_doc(difficulty=True)))

    def test_leetcode_difficulty_must_be_band(self, tmp_path):
        doc = base_doc(source="leetcode", difficulty=800)
        with pytest.raises(DatasetError, match="must be one of"):
            load_problem_file(write_doc(tmp_path, doc))
        doc = base_doc(source="leetcode", difficulty="medium")
        assert load_problem_file(write_doc(tmp_path, doc)).difficulty == "medium"

    def test_unknown_source(self, tmp_path):
        with pytest.raises(DatasetError, match="'source' must be one of"):
            load_problem_file(write_doc(tmp_path, base_doc(source="atcoder")))

    def test_bad_release_date(self, tmp_path):
        with pytest.raises(DatasetError, match="not a valid date"):
            load_problem_file(write_doc(tmp_path, base_doc(release_date="last tuesday")))

    def test_blank_description_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="problem_description"):
            load_problem_file(write_doc(tmp_path, base_doc(problem_description="  ")))

    def test_test_entries_validated(self, tmp_path):
        doc = base_doc(public_examples=[{"input": "1\n", "answer": "1\n"}])
        with pytest.raises(DatasetError, match=r"unknown fields: \['answer'\]"):
            load_problem_file(write_doc(tmp_path, doc))
        doc = base_doc(hidden_tests=[{"input": 3, "expected_output": "1\n"}])
        with pytest.raises(DatasetError, match="text 'input'"):
            load_problem_file(write_doc(tmp_path, doc))
        doc = base_doc(hidden_tests=[])
        with pytest.raises(DatasetError, match="non-empty list"):
            load_problem_file(write_doc(tmp_path, doc))

    def test_hidden_tests_from_sibling_file(self, tmp_path):
        (tmp_path / "_hidden.yaml").write_text(
            yaml.safe_dump([{"input": "9\n", "expected_output": "9\n"}]), encoding="utf-8")
        doc = base_doc(hidden_tests="_hidden.yaml")
        problem = load_problem_file(write_doc(tmp_path, doc))
        assert problem.hidden_tests == (IOCase("9\n", "9\n"),)

    def test_missing_hidden_tests_file(self, tmp_path):
        doc = base_doc(hidden_tests="nowhere.yaml")
        with pytest.raises(DatasetError, match="cannot read hidden tests file"):
            load_problem_file(write_doc(tmp_path, doc))


class TestLoadProblems:
    def test_fixture_directory(self, problems):
        assert [p.id for p in problems] == [
            "cf-echo-101", "cf-pairsum-202", "cf-parity-303",
            "lc-countdown-505", "lc-double-404", "lc-maxpair-606"]
        for problem in problems:
            assert problem.public_examples and problem.hidden_tests
            assert problem.human_plan

    def test_sidecar_hidden_file_resolved(self, problems_by_id):
        maxpair = problems_by_id["lc-maxpair-606"]
        assert len(maxpair.hidden_tests) >= 2

    def test_underscore_files_skipped(self, tmp_path):
        write_doc(tmp_path, base_doc(), name="a.yaml")
        write_doc(tmp_path, base_doc(id="x"), name="_draft.yaml")
        (tmp_path / "notes.txt").write_text("not yaml", encoding="utf-8")
        loaded = load_problems(tmp_path)
        assert [p.id for p in loaded] == ["cf-demo-1"]

    def test_duplicate_ids_rejected(self, tmp_path):
        write_doc(tmp_path, base_doc(), name="a.yaml")
        write_doc(tmp_path, base_doc(), name="b.yaml")
        with pytest.raises(DatasetError, match="duplicate problem id 'cf-demo-1'"):
            load_problems(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="no problem files"):
            load_problems(tmp_path)

    def test_single_file_path(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        assert [p.id for p in load_problems(path)] == ["cf-demo-1"]


class TestCutoffAndBuckets:
    def test_boundary_day_counts_as_post(self):
        boundary = make_problem("p1", "codeforces", 800, "2021-09-01")
        before = make_problem("p2", "codeforces", 800, "2021-08-31")
        assert bucket_key(boundary) == "codeforces-post"
        assert bucket_key(before) == "codeforces-pre"
        late = make_problem("p3", "leetcode", "hard", "2021-09-01")
        assert bucket_key(late) == "leetcode-post-hard"

    def test_fixture_split(self, problems):
        sides = {p.id: bucket_key(p).split("-")[1] for p in problems}
        assert sides == {"cf-echo-101": "pre", "cf-parity-303": "pre", "lc-double-404": "pre",
                         "cf-pairsum-202": "post", "lc-countdown-505": "post",
                         "lc-maxpair-606": "post"}

    def test_bucket_key(self, problems_by_id):
        assert bucket_key(problems_by_id["cf-echo-101"]) == "codeforces-pre"
        assert bucket_key(problems_by_id["cf-pairsum-202"]) == "codeforces-post"
        assert bucket_key(problems_by_id["lc-double-404"]) == "leetcode-pre-easy"
        assert bucket_key(problems_by_id["lc-countdown-505"]) == "leetcode-post-medium"
        assert bucket_key(problems_by_id["lc-maxpair-606"]) == "leetcode-post-hard"

    def test_bucket_keys_cover_report_columns(self, problems):
        assert {bucket_key(p) for p in problems} <= set(BUCKET_ORDER)
        assert len(BUCKET_ORDER) == 8

    def test_custom_cutoff(self):
        problem = make_problem("p", "leetcode", "easy", "2021-03-15")
        assert bucket_key(problem, cutoff=dt.date(2021, 1, 1)) == "leetcode-post-easy"

    def test_default_cutoff_value(self):
        assert DEFAULT_CUTOFF == dt.date(2021, 9, 1)
