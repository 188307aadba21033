"""Seeded input generators for the benchmark workloads.

Everything the program receives is written here from ``--seed``: the
distinct-grid problems with their scripted rules, the report run
directory, and the replay problem set. The expected outcome of every
pair is derived here, in plain Python, from the behaviour shape the
problem was given; nothing is read back from the program.
"""
from __future__ import annotations

import calendar
import datetime as dt
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

# Behaviour shapes, as in fixtures/oracle.yaml: what the round-1 program
# does and what a Code_Debug loop then ends with.
SHAPES = ("correct", "wrong_then_fixed", "public_only", "crash_then_fixed", "syntax_then_fixed")
# shape -> (hidden verdict, solved, rounds_used) under Code_Debug.
CODE_DEBUG_EXPECTED = {
    "correct": ("AllPassed", True, 1),
    "wrong_then_fixed": ("AllPassed", True, 2),
    "public_only": ("WrongAnswer", False, 1),
    "crash_then_fixed": ("AllPassed", True, 2),
    "syntax_then_fixed": ("AllPassed", True, 2),
}

PUBLIC_TESTS = 2
HIDDEN_TESTS = 5
# Public inputs keep x below this; the public_only program is wrong at or above it.
PUBLIC_X_LIMIT = 50

NON_SANDBOX_VARIANTS = (
    "Code",
    "Code_Reflection",
    "Code_Collaboration",
    "Plan-Code",
    "Plan_Reflection-Code",
    "Plan_Collaboration-Code",
    "Plan_Oracle-Code",
)
ALL_VARIANTS = ("Code", "Code_Reflection", "Code_Collaboration", "Code_Debug",
                "Code_Debug_Collab") + NON_SANDBOX_VARIANTS[3:]

CODE_NEEDLE = "provide executable Python code"
PLAN_NEEDLE = "Your goal is to provide a high-level conceptual solution"


@dataclass(frozen=True)
class GenProblem:
    id: str
    tag: str
    shape: str
    a: int
    b: int
    c: int
    public: tuple[tuple[int, int], ...]
    hidden: tuple[tuple[int, int], ...]

    def value(self, x: int, y: int) -> int:
        return self.a * x + self.b * y + self.c

    def correct_program(self) -> str:
        return f"x, y = map(int, input().split())\nprint({self.a} * x + {self.b} * y + {self.c})"

    def first_program(self) -> str:
        body = f"{self.a} * x + {self.b} * y + {self.c}"
        head = "x, y = map(int, input().split())\n"
        return head + {
            "correct": f"print({body})",
            "wrong_then_fixed": f"print({body} + 1)",
            "public_only": f"print({body} if x < {PUBLIC_X_LIMIT} else {body} - 1)",
            "crash_then_fixed": f"print(({body}) // (x - x))",
            "syntax_then_fixed": f"print({body}",
        }[self.shape]


def make_problems(seed: int, count: int, prefix: str) -> list[GenProblem]:
    """``count`` problems cycling through SHAPES; constants and tests from ``seed``."""
    rng = random.Random(f"{prefix}:{seed}")
    used: set[tuple[int, int, int]] = set()
    problems = []
    for index in range(count):
        while True:
            consts = (rng.randint(2, 99), rng.randint(2, 99), rng.randint(100, 999))
            if consts not in used:
                used.add(consts)
                break
        public = tuple((rng.randrange(PUBLIC_X_LIMIT), rng.randrange(100))
                       for _ in range(PUBLIC_TESTS))
        # Two hidden inputs at or above the limit, so public_only always fails there.
        hidden = [(rng.randrange(PUBLIC_X_LIMIT, 100), rng.randrange(100)) for _ in range(2)]
        hidden += [(rng.randrange(100), rng.randrange(100)) for _ in range(HIDDEN_TESTS - 2)]
        rng.shuffle(hidden)
        pid = f"{prefix}-{index:03d}"
        problems.append(GenProblem(id=pid, tag=f"[{pid}]", shape=SHAPES[index % len(SHAPES)],
                                   a=consts[0], b=consts[1], c=consts[2],
                                   public=public, hidden=tuple(hidden)))
    return problems


def _tests(problem: GenProblem, inputs) -> list[dict]:
    return [{"input": f"{x} {y}\n", "expected_output": f"{problem.value(x, y)}\n"}
            for x, y in inputs]


def _fenced(lead: str, program: str) -> str:
    return f"{lead}\n```python\n{program}\n```"


def write_problem_set(problems: list[GenProblem], directory: Path, rules_path: Path,
                      seed: int) -> None:
    """Write one problem YAML per problem into ``directory`` and the scripted rules."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"dates:{seed}")
    rules = [
        {"turns": 4, "contains": [CODE_NEEDLE, "Are you sure that the solution is provided"],
         "response": "The solution stands. Final answer."},
        {"turns": 4, "contains": [CODE_NEEDLE, "[collab-critique]"],
         "response": "The solution stands. Final answer."},
        {"turns": 4, "contains": [PLAN_NEEDLE, "Are you sure that the conceptual solution"],
         "response": "The conceptual solution stands. Final answer."},
        {"turns": 4, "contains": [PLAN_NEEDLE, "[plan-critique]"],
         "response": "The conceptual solution stands. Final answer."},
        {"turns": 2, "contains": ["identify potential issues with a competitive programming"],
         "response": "[collab-critique] Check the arithmetic against every example."},
        {"turns": 2, "contains": ["identify potential issues with a high-level conceptual"],
         "response": "[plan-critique] The plan is plausible; check the corner cases."},
    ]
    for index, problem in enumerate(problems):
        formula = f"{problem.a}*x + {problem.b}*y + {problem.c}"
        source = "codeforces" if index % 2 == 0 else "leetcode"
        doc = {
            "id": problem.id,
            "source": source,
            "difficulty": 800 + 100 * (index % 10) if source == "codeforces"
                          else ("easy", "medium", "hard")[index % 3],
            "release_date": (dt.date(2020, 1, 1) + dt.timedelta(days=rng.randrange(1400))).isoformat(),
            "problem_description": f"{problem.tag} Weighted Sum. Given two integers x and y, "
                                   f"print {formula}.",
            "input_description": "One line with two integers x and y (0 <= x, y < 100).",
            "output_description": "Print the value on its own line.",
            "public_examples": _tests(problem, problem.public),
            "hidden_tests": _tests(problem, problem.hidden),
            "human_plan": f"Read x and y, then print {formula}.",
        }
        (directory / f"{problem.id}.yaml").write_text(
            yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        rules.append({"turns": 2, "contains": [PLAN_NEEDLE, problem.tag],
                      "response": f"# Conceptual solution\nEvaluate {formula} and print it."})
        rules.append({"turns": 2, "contains": [CODE_NEEDLE, problem.tag],
                      "response": _fenced("Computing the weighted sum:", problem.first_program())})
        rules.append({"turns": 4, "contains": [problem.tag, "resolves the issue"],
                      "response": _fenced("Fixed:", problem.correct_program())})
    rules_path.write_text(yaml.safe_dump({"rules": rules}, sort_keys=False), encoding="utf-8")


_PROGRAM = re.compile(r"(```python\n.*?)(\n```)", re.DOTALL)


def write_round_rules(source: Path, target: Path, index: int) -> None:
    """Copy scripted rules with a ``# round <index>`` line ending every program.

    The comment changes no verdict, line number or rule match; it only makes
    each round's programs new to the process running the rounds.
    """
    doc = yaml.safe_load(source.read_text(encoding="utf-8"))
    for rule in doc["rules"]:
        rule["response"] = _PROGRAM.sub(lambda m: f"{m.group(1)}\n# round {index}{m.group(2)}",
                                        rule["response"])
    target.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")


def write_profiles(path: Path, rules_file: Path, cache_dir: Path | None = None) -> None:
    profile = {"kind": "scripted", "model": "scripted", "rules_file": str(rules_file.resolve())}
    if cache_dir is not None:
        profile["cache_dir"] = str(cache_dir.resolve())
    path.write_text(yaml.safe_dump({"profiles": {"scripted": profile}}), encoding="utf-8")


# --- report run directory -------------------------------------------------

REPORT_MONTHS = 48
REPORT_FIRST_MONTH = dt.date(2019, 9, 1)
REPORT_CUTOFF = dt.date(2021, 9, 1)
# Chance of solving, per variant, before the cutoff; after it, 0.2 lower.
SOLVE_CHANCE = {"Code": 0.55, "Code_Reflection": 0.57, "Code_Collaboration": 0.6,
                "Code_Debug": 0.7, "Code_Debug_Collab": 0.72, "Plan-Code": 0.58,
                "Plan_Reflection-Code": 0.59, "Plan_Collaboration-Code": 0.61,
                "Plan_Oracle-Code": 0.75}
FAIL_VERDICTS = ("WrongAnswer", "RuntimeError", "Timeout", "CompilationError")


def _add_months(day: dt.date, months: int) -> dt.date:
    index = day.year * 12 + day.month - 1 + months
    return dt.date(index // 12, index % 12 + 1, 1)


def write_report_run(directory: Path, seed: int, problem_count: int) -> list[dict]:
    """Write ``records.jsonl`` and ``run_meta.json``; return the records written.

    Problem i has source/difficulty kind i % 4 (codeforces, then the three
    leetcode bands) and release month (i // 4) % 48 from September 2019, so
    the bucket sizes and the sliding windows do not depend on the seed;
    days and outcomes do.
    """
    rng = random.Random(f"report:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    problems = {}
    records = []
    for index in range(problem_count):
        kind = index % 4
        month = _add_months(REPORT_FIRST_MONTH, (index // 4) % REPORT_MONTHS)
        day = month.replace(day=rng.randint(1, calendar.monthrange(month.year, month.month)[1]))
        pid = f"rp-{index:04d}"
        problems[pid] = {
            "source": "codeforces" if kind == 0 else "leetcode",
            "difficulty": rng.choice((800, 1200, 1600, 2000)) if kind == 0
                          else ("easy", "medium", "hard")[kind - 1],
            "release_date": day.isoformat(),
        }
        post = day >= REPORT_CUTOFF
        for variant in ALL_VARIANTS:
            solved = rng.random() < SOLVE_CHANCE[variant] - (0.2 if post else 0.0)
            records.append({
                "problem_id": pid,
                "variant": variant,
                "solved": solved,
                "rounds_used": rng.randint(1, 4),
                "release_date": day.isoformat(),
                "trace_ref": f"{pid}/{variant}/trace.log",
                "wall_time": round(rng.uniform(0.05, 3.0), 3),
                "verdict": "AllPassed" if solved else rng.choice(FAIL_VERDICTS),
            })
    rng.shuffle(records)  # completion order, as a threaded grid leaves it
    with (directory / "records.jsonl").open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    meta = {
        "seed": seed,
        "cutoff": REPORT_CUTOFF.isoformat(),
        "resamples": 1000,
        "level": 0.95,
        "variants": list(ALL_VARIANTS),
        "variant_settings": {},
        "problems": problems,
    }
    (directory / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return records
