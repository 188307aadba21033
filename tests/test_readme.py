"""The README names only modules that exist and lists the real trace event kinds."""
import importlib
import re
from pathlib import Path

import pytest

from nestflow.trace import EVENT_KINDS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = sorted(set(re.findall(r"`(nestflow\.\w+)`", README)))


def test_readme_names_modules():
    assert "nestflow.core" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_named_module_imports(module):
    importlib.import_module(module)


def test_event_kinds_match():
    sentence = re.search(r"The event kinds are (.*?)\.\s", README, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == EVENT_KINDS
