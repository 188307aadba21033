"""Problem ingestion and report buckets.

Problems are YAML documents with a fixed field set; unknown fields are
rejected so typos fail loudly. Hidden tests may be inline or a relative
path to a sibling YAML file holding the test list.
"""
from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass
from pathlib import Path

from ._util import load_yaml
from .errors import DatasetError
from .sandbox import TestCase

logger = logging.getLogger(__name__)

SOURCES = ("codeforces", "leetcode")
BANDS = ("easy", "medium", "hard")
DEFAULT_CUTOFF = dt.date(2021, 9, 1)

# Report columns in order (source, then pre/post, then band), each with
# its two header labels: the source group and the column itself.
BUCKET_LABELS = {
    "codeforces-pre": ("Codeforces", "Pre-cutoff"),
    "codeforces-post": ("Codeforces", "Post-cutoff"),
    "leetcode-pre-easy": ("LeetCode", "Pre Easy"),
    "leetcode-pre-medium": ("LeetCode", "Pre Medium"),
    "leetcode-pre-hard": ("LeetCode", "Pre Hard"),
    "leetcode-post-easy": ("LeetCode", "Post Easy"),
    "leetcode-post-medium": ("LeetCode", "Post Medium"),
    "leetcode-post-hard": ("LeetCode", "Post Hard"),
}
BUCKET_ORDER = tuple(BUCKET_LABELS)

_FIELDS = frozenset({
    "id", "source", "difficulty", "release_date",
    "problem_description", "input_description", "output_description",
    "public_examples", "explanation", "hidden_tests", "human_plan",
})


@dataclass(frozen=True)
class Problem:
    """One competitive-coding problem normalized to stdin/stdout form."""

    id: str
    source: str
    difficulty: int | str
    release_date: dt.date
    problem_description: str
    input_description: str
    output_description: str
    public_examples: tuple[TestCase, ...]
    hidden_tests: tuple[TestCase, ...]
    explanation: str | None = None
    human_plan: str | None = None


def _parse_tests(raw, *, where: str) -> tuple[TestCase, ...]:
    if not isinstance(raw, list) or not raw:
        raise DatasetError(f"{where} must be a non-empty list of tests")
    tests = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise DatasetError(f"{where}[{i}] must be a map with input/expected_output")
        unknown = set(entry) - {"input", "expected_output"}
        if unknown:
            raise DatasetError(f"{where}[{i}] has unknown fields: {sorted(unknown)}")
        if not isinstance(entry.get("input"), str):
            raise DatasetError(f"{where}[{i}] needs a text 'input' field")
        if not isinstance(entry.get("expected_output"), str):
            raise DatasetError(f"{where}[{i}] needs a text 'expected_output' field")
        tests.append(TestCase(input=entry["input"], expected_output=entry["expected_output"]))
    return tuple(tests)


def load_problem_file(path: str | Path) -> Problem:
    """Parse and validate one problem document."""
    path = Path(path)
    doc = load_yaml(path, error=DatasetError)
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: problem document must be a map")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise DatasetError(f"{path}: unknown fields {sorted(unknown)}")
    missing = {"id", "source", "difficulty", "release_date", "problem_description",
               "input_description", "output_description", "public_examples",
               "hidden_tests"} - set(doc)
    if missing:
        raise DatasetError(f"{path}: missing required fields {sorted(missing)}")

    problem_id = doc["id"]
    if not isinstance(problem_id, str) or not problem_id:
        raise DatasetError(f"{path}: 'id' must be a non-empty string")
    source = doc["source"]
    if source not in SOURCES:
        raise DatasetError(f"{path}: 'source' must be one of {SOURCES}, got {source!r}")

    difficulty = doc["difficulty"]
    if source == "codeforces":
        if not isinstance(difficulty, int) or isinstance(difficulty, bool):
            raise DatasetError(f"{path}: codeforces 'difficulty' must be a numeric rating")
    else:
        if difficulty not in BANDS:
            raise DatasetError(f"{path}: leetcode 'difficulty' must be one of {BANDS}")

    raw_date = doc["release_date"]
    if isinstance(raw_date, dt.date):
        release_date = raw_date
    else:
        try:
            release_date = dt.date.fromisoformat(str(raw_date))
        except ValueError as exc:
            raise DatasetError(f"{path}: 'release_date' is not a valid date: {exc}") from exc

    for key in ("problem_description", "input_description", "output_description"):
        if not isinstance(doc[key], str) or not doc[key].strip():
            raise DatasetError(f"{path}: {key!r} must be non-empty text")
    for key in ("explanation", "human_plan"):
        if key in doc and doc[key] is not None and not isinstance(doc[key], str):
            raise DatasetError(f"{path}: {key!r} must be text when present")

    hidden_raw = doc["hidden_tests"]
    if isinstance(hidden_raw, str):
        hidden_path = path.parent / hidden_raw
        try:
            hidden_doc = load_yaml(hidden_path, error=DatasetError)
        except OSError as exc:
            raise DatasetError(f"{path}: cannot read hidden tests file {hidden_raw!r}: {exc}") from exc
        hidden = _parse_tests(hidden_doc, where=f"{hidden_path}: hidden_tests")
    else:
        hidden = _parse_tests(hidden_raw, where=f"{path}: hidden_tests")

    return Problem(
        id=problem_id,
        source=source,
        difficulty=difficulty,
        release_date=release_date,
        problem_description=doc["problem_description"],
        input_description=doc["input_description"],
        output_description=doc["output_description"],
        public_examples=_parse_tests(doc["public_examples"], where=f"{path}: public_examples"),
        hidden_tests=hidden,
        explanation=doc.get("explanation"),
        human_plan=doc.get("human_plan"),
    )


def load_problems(path: str | Path) -> list[Problem]:
    """Load a problem directory (or a single file), checking id uniqueness."""
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir()
                       if p.suffix in (".yaml", ".yml") and not p.name.startswith("_"))
        if not files:
            raise DatasetError(f"{path}: no problem files found")
        problems = [load_problem_file(p) for p in files]
    else:
        problems = [load_problem_file(path)]
    seen: dict[str, Problem] = {}
    for problem in problems:
        if problem.id in seen:
            raise DatasetError(f"duplicate problem id {problem.id!r}")
        seen[problem.id] = problem
    logger.debug("loaded %d problems from %s", len(problems), path)
    return problems


def bucket_key(problem: Problem, cutoff: dt.date = DEFAULT_CUTOFF) -> str:
    """Report column for a problem: source, cutoff side, and band for leetcode.

    The cutoff day itself counts as post-cutoff. Reads only ``source``,
    ``difficulty`` and ``release_date``, so any object carrying those three
    works in place of a Problem.
    """
    side = "pre" if problem.release_date < cutoff else "post"
    if problem.source == "codeforces":
        return f"codeforces-{side}"
    return f"leetcode-{side}-{problem.difficulty}"

