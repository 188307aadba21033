"""Kill-and-resume of ``eval`` at the kill points that Tier-1 leaves out.

Tier-1 (``test_cli.py``) kills the fixture grid's ``eval`` once 27 of its 54
records are written. These cases kill it in its first burst of records, and
after its last record but before it writes any report file. Each takes a few
seconds, so the file is not named ``test_*.py`` and the default run does not
collect it; CI runs it by name:

    PYTHONPATH=src python -m pytest -q tests/kill_resume_cases.py
"""
from test_cli import grid_process, sigkill_then_resume  # noqa: F401

# Runs ``nestflow <args>`` with the report replaced by a SIGKILL of the
# process itself: eval dies after its last record and before any report file.
KILL_BEFORE_REPORT = """\
import os, signal, sys
import nestflow.cli as cli
cli.write_report = lambda out_dir: os.kill(os.getpid(), signal.SIGKILL)
cli.main.main(args=sys.argv[1:], prog_name="nestflow")
"""


def test_sigkill_in_the_first_burst(grid_process, tmp_path):  # noqa: F811
    """eval killed once its records file holds 9 of 54 lines."""
    sigkill_then_resume(grid_process[0], tmp_path, ["-m", "nestflow.cli"], 9)


def test_sigkill_after_the_last_record_before_the_reports(grid_process, tmp_path):  # noqa: F811
    """eval killed after its 54th record, where it would write the report files."""
    sigkill_then_resume(grid_process[0], tmp_path, ["-c", KILL_BEFORE_REPORT], 54)
