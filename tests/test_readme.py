"""The README names only modules that exist, lists the real trace event kinds,
and its Python blocks run."""
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nestflow.trace import EVENT_KINDS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(set(re.findall(r"`(nestflow\.\w+)`", README)))
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)


def test_readme_names_modules():
    assert "nestflow.core" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_named_module_imports(module):
    importlib.import_module(module)


def test_event_kinds_match():
    sentence = re.search(r"The event kinds are (.*?)\.\s", README, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == EVENT_KINDS


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


# Each block runs in a fresh interpreter from the repository root, as a reader
# would paste it, with only the documented import paths available.
@pytest.mark.parametrize("source", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(source):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", source], cwd=ROOT, capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
