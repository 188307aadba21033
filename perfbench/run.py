"""nestflow benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fixture-grid --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench_work"
SETUPS = 5


def seconds_since_process_start() -> float:
    """Time since the kernel started this process, falling back to script start."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _STARTED


def fresh_import_s() -> float:
    """Process start to ``import nestflow.cli`` done, in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import nestflow.cli, run; print(run.seconds_since_process_start())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nestflow" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no nestflow checkout at {ROOT} (need src/nestflow and fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Program warnings go to the real stderr, not to a captured command's.
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    import nestflow.cli  # noqa: F401

    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # The sandbox's scratch directories, like everything else, stay in the checkout.
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = os.environ["TMPDIR"] = str(work / "tmp")

    from layers import Tracer, install, layer_metrics
    from workloads import Cli

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, Cli(tracer))
    # Each set-up: importing nestflow in a fresh interpreter, then preparing inputs.
    imports, prepare = [], []
    for attempt in range(SETUPS):
        imports.append(fresh_import_s())
        started = time.perf_counter()
        workload.setup(attempt)
        prepare.append(time.perf_counter() - started)
    setup_s = statistics.median(i + p for i, p in zip(imports, prepare))
    workload.before_timing()
    if tracer is not None:
        install(tracer)
        tracer.reset()

    rounds = []
    loop_start = time.perf_counter()
    while True:
        rounds.append(workload.round(len(rounds)))
        elapsed = time.perf_counter() - loop_start
        # Whole rounds only; start another one only if it should end in time.
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    workload.finish()

    pairs = sum(r.pairs for r in rounds)
    timed_s = sum(r.timed_s for r in rounds)
    per_pair_kb = statistics.mean(r.run_dir_bytes / r.pairs for r in rounds if r.pairs) / 1024.0 \
        if pairs else 0.0
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pairs_per_s": (pairs / timed_s, "pairs/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "run_dir_kb_per_pair": (per_pair_kb, "KB"),
        }
    else:
        metrics = layer_metrics(tracer, pairs, timed_s, workload.workers,
                                sum(r.trace_bytes for r in rounds),
                                sum(r.cache_bytes for r in rounds))
        tracer.write(work / "trace")
    for entry in work.iterdir():
        if entry.name != "trace":
            shutil.rmtree(entry, ignore_errors=True)

    for error in workload.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"timed_s={timed_s:.3f} pairs={pairs} pairs_per_s={pairs / timed_s:.4f} "
          f"round_s={[round(r.timed_s, 3) for r in rounds][:40]} "
          f"import_s={[round(i, 4) for i in imports]} prepare_s={[round(p, 4) for p in prepare]}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
