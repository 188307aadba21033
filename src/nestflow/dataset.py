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

from ._util import check_fields, load_yaml
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

_REQUIRED = ("id", "source", "difficulty", "release_date", "problem_description",
             "input_description", "output_description", "public_examples", "hidden_tests")
_FIELDS = frozenset((*_REQUIRED, "explanation", "human_plan"))
# What these fields of a problem document must hold; difficulty and
# release_date are checked in load_problem_file.
_RULES = {
    "id": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "source": (f"one of {SOURCES}", lambda v: v in SOURCES),
    **dict.fromkeys(("problem_description", "input_description", "output_description"),
                    ("non-empty text", lambda v: isinstance(v, str) and v.strip() != "")),
    **dict.fromkeys(("explanation", "human_plan"),
                    ("text when present", lambda v: v is None or isinstance(v, str))),
}


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
    doc = load_yaml(path, "problem file", error=DatasetError)
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: problem document must be a map")
    unknown = set(doc) - _FIELDS
    if unknown:
        raise DatasetError(f"{path}: unknown fields {sorted(unknown)}")
    missing = set(_REQUIRED) - set(doc)
    if missing:
        raise DatasetError(f"{path}: missing required fields {sorted(missing)}")
    check_fields(doc, _RULES, str(path), error=DatasetError)

    difficulty = doc["difficulty"]
    if doc["source"] == "codeforces":
        if not isinstance(difficulty, int) or isinstance(difficulty, bool):
            raise DatasetError(f"{path}: codeforces 'difficulty' must be a numeric rating")
    elif difficulty not in BANDS:
        raise DatasetError(f"{path}: leetcode 'difficulty' must be one of {BANDS}")

    release_date = doc["release_date"]
    if not isinstance(release_date, dt.date):
        try:
            release_date = dt.date.fromisoformat(str(release_date))
        except ValueError as exc:
            raise DatasetError(f"{path}: 'release_date' is not a valid date: {exc}") from exc

    hidden, hidden_where = doc["hidden_tests"], path
    if isinstance(hidden, str):  # the name of a sidecar file that holds them
        hidden_where = path.parent / hidden
        hidden = load_yaml(hidden_where, "hidden tests file", error=DatasetError)
    fields = {key: doc.get(key) for key in _FIELDS}
    fields.update(release_date=release_date,
                  public_examples=_parse_tests(doc["public_examples"], where=f"{path}: public_examples"),
                  hidden_tests=_parse_tests(hidden, where=f"{hidden_where}: hidden_tests"))
    return Problem(**fields)


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

