from pathlib import Path
from types import SimpleNamespace

import pytest

from nestflow.backends import ScriptedBackend
from nestflow.ccflows import VariantSettings
from nestflow.dataset import load_problems

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def problems():
    return load_problems(FIXTURES / "problems")


@pytest.fixture(scope="session")
def problems_by_id(problems):
    return {p.id: p for p in problems}


@pytest.fixture()
def scripted_backend():
    return ScriptedBackend.from_rules_file(FIXTURES / "scripted_responses.yaml")


@pytest.fixture(scope="session")
def fixture_settings():
    # Tight wall time keeps the deliberate-timeout fixture problem cheap.
    return VariantSettings(wall_time=1.0, model="scripted")


class FailingSession:
    """A stub HTTP session that answers every request with one status code."""

    def __init__(self, status: int):
        self.status = status
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        return SimpleNamespace(status_code=self.status, text="unavailable")


@pytest.fixture()
def unavailable_session(monkeypatch):
    """A credential in STUB_API_KEY, and a session on which every request gets HTTP 503."""
    monkeypatch.setenv("STUB_API_KEY", "stub-token")
    return FailingSession(503)
