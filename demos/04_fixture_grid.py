# Evaluating flow variants over a problem set
#
# evaluate_grid runs every (problem, variant) pair, judges each
# extracted program on the problem's hidden tests, and appends one
# record per pair to records.jsonl. Records persist, so re-running the
# same grid resumes instead of recomputing. This demo uses the bundled
# fixture problems and the scripted backend, so it is fully offline.

import tempfile
from pathlib import Path

from nestflow.backends import ScriptedBackend
from nestflow.ccflows import VariantSettings
from nestflow.dataset import load_problems
from nestflow.evalharness import (
    DEFAULT_LEVEL,
    DEFAULT_RESAMPLES,
    BootstrapDraws,
    EvalSettings,
    evaluate_grid,
    render_results_table,
    stats_from_records,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

problems = load_problems(FIXTURES / "problems")
print("problems:", [p.id for p in problems])

# Variant names compose a plan part and a code part: "Code_Debug" is
# the debugging loop alone, "Plan-Code" drafts a conceptual solution
# first and conditions code generation on it.

variants = ["Code", "Code_Debug", "Plan-Code"]

out_dir = Path(tempfile.mkdtemp(prefix="nestflow-grid-"))
settings = EvalSettings(
    out_dir=out_dir,
    backend=ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml"),
    variant_settings=VariantSettings(wall_time=1.0, model="scripted"),
    workers=2,
)

result = evaluate_grid(problems, variants, settings)
print(f"{len(result.records)} records, {result.new_runs} new runs")

for record in sorted(result.records, key=lambda r: (r.variant, r.problem_id)):
    mark = "solved" if record.solved else f"unsolved ({record.verdict})"
    print(f"  {record.variant:>10}  {record.problem_id:<15} {mark}  rounds={record.rounds_used}")

# Running the same grid again finds every pair already recorded.

again = evaluate_grid(problems, variants, settings)
print("on resume:", again.new_runs, "new runs")

# Aggregation buckets problems by source, training-cutoff side, and
# difficulty, then prints the baseline row as absolute solve rates and
# every other variant as a delta against it. Every interval of a report
# takes its resamples from one BootstrapDraws, made from the resample
# count and the seed, which draws each sample size once.

meta = {p.id: {"source": p.source, "difficulty": p.difficulty,
               "release_date": p.release_date.isoformat()} for p in problems}
draws = BootstrapDraws(DEFAULT_RESAMPLES, settings.seed)
stats = stats_from_records(result.records, meta, settings.cutoff, draws, DEFAULT_LEVEL)
print()
print(render_results_table(stats, variants=variants))
