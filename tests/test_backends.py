import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from nestflow.backends import (
    BackendRequest,
    ChatTurn,
    RemoteBackend,
    ResponseCache,
    ResponseRule,
    ScriptedBackend,
    cached_complete,
    render_template,
)
from nestflow.errors import (
    ENVIRONMENT_ERRORS,
    AuthError,
    BackendError,
    ReplayDivergenceError,
    RetryBudgetExhaustedError,
    ScriptExhaustedError,
    TemplateError,
)
from nestflow.evalharness import _Unrecorded


def request_with(*contents, model="m"):
    roles = ["system", "user", "assistant", "user", "assistant", "user"]
    turns = tuple(ChatTurn(role, text) for role, text in zip(roles, contents))
    return BackendRequest(model=model, turns=turns)


class TestRenderTemplate:
    def test_substitutes_values(self):
        out = render_template("{{a}}-{{b}}-{{c}}-{{d}}",
                              {"a": "x", "b": 3, "c": 2.5, "d": True})
        assert out == "x-3-2.5-true"

    def test_missing_variables_reported_together(self):
        with pytest.raises(TemplateError) as exc_info:
            render_template("{{one}} {{two}}", {})
        assert "one" in str(exc_info.value) and "two" in str(exc_info.value)

    def test_non_renderable_type(self):
        with pytest.raises(TemplateError, match="non-renderable"):
            render_template("{{items}}", {"items": [1, 2]})

    def test_single_pass_never_rescans(self):
        out = render_template("{{outer}}", {"outer": "{{inner}}", "inner": "nope"})
        assert out == "{{inner}}"

    def test_unknown_braces_left_alone(self):
        assert render_template("not a {placeholder}", {}) == "not a {placeholder}"


class TestBackendRequest:
    def test_rejects_unknown_roles(self):
        with pytest.raises(ValueError, match="role"):
            BackendRequest(model="m", turns=(ChatTurn("tool", "x"),))

    def test_system_only_first(self):
        with pytest.raises(ValueError, match="position 0"):
            BackendRequest(model="m", turns=(ChatTurn("user", "a"), ChatTurn("system", "b")))

    def test_fingerprint_is_content_addressed(self):
        a = request_with("sys", "hello")
        b = request_with("sys", "hello")
        c = request_with("sys", "other")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != request_with("sys", "hello", model="m2").fingerprint()

    def test_full_text_joins_turns(self):
        assert request_with("sys", "one", "two").full_text() == "sys\none\ntwo"


class TestScriptedBackend:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            ScriptedBackend()
        with pytest.raises(ValueError):
            ScriptedBackend(responses=["a"], rules=[])

    def test_queue_mode_in_order_then_exhausted(self):
        backend = ScriptedBackend(responses=["first", "second"])
        assert backend.complete(request_with("s", "q1")) == "first"
        assert backend.complete(request_with("s", "q2")) == "second"
        with pytest.raises(ScriptExhaustedError):
            backend.complete(request_with("s", "q3"))
        assert len(backend.requests) == 3

    def test_keyed_mode_and_divergence(self):
        # Keyed lookup is the response cache: recorded responses keyed by
        # fingerprint, in front of replay's backend, which answers nothing.
        known = request_with("s", "known")
        recorded = {known.fingerprint(): "answer"}
        assert cached_complete(_Unrecorded(), request_with("s", "known"),
                               recorded) == ("answer", True)
        with pytest.raises(ReplayDivergenceError, match="not present in recorded responses"):
            cached_complete(_Unrecorded(), request_with("s", "unknown"), recorded)

    def test_rules_match_first_on_text_and_turns(self):
        backend = ScriptedBackend(rules=[
            ResponseRule(response="late", contains=("hello",), turns=4),
            ResponseRule(response="early", contains=("hello",)),
        ])
        assert backend.complete(request_with("s", "hello")) == "early"
        four_turns = request_with("s", "hello", "mid", "again")
        assert backend.complete(four_turns) == "late"
        with pytest.raises(ScriptExhaustedError, match="no scripted rule"):
            backend.complete(request_with("s", "goodbye"))

    def test_rules_file_round_trip(self, fixtures_dir):
        backend = ScriptedBackend.from_rules_file(fixtures_dir / "scripted_responses.yaml")
        request = request_with(
            "Your goal is to provide executable Python code that ...",
            "# Problem statement\nEcho Machine. ...")
        assert "print(int(input()))" in backend.complete(request)


class FakeResponse:
    def __init__(self, status_code, content=None, text=""):
        self.status_code = status_code
        self._content = content
        self.text = text

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def remote(outcomes, monkeypatch, **kwargs):
    monkeypatch.setenv("TEST_API_KEY", "secret-token")
    session = FakeSession(outcomes)
    sleeps = []
    backend = RemoteBackend("https://example.invalid/v1/chat", "TEST_API_KEY",
                            session=session, sleep=sleeps.append, **kwargs)
    return backend, session, sleeps


class TestRemoteBackend:
    def test_missing_credential(self, monkeypatch):
        monkeypatch.delenv("TEST_API_KEY", raising=False)
        backend = RemoteBackend("https://example.invalid", "TEST_API_KEY",
                                session=FakeSession([]))
        with pytest.raises(AuthError, match="TEST_API_KEY"):
            backend.complete(request_with("s", "q"))

    def test_success_sends_bearer_and_body(self, monkeypatch):
        backend, session, _ = remote([FakeResponse(200, content="reply")], monkeypatch)
        request = request_with("sys prompt", "user prompt")
        assert backend.complete(request) == "reply"
        call = session.calls[0]
        assert call["headers"]["Authorization"] == "Bearer secret-token"
        assert call["json"]["messages"][0] == {"role": "system", "content": "sys prompt"}

    def test_rejected_credentials_do_not_retry(self, monkeypatch):
        backend, session, sleeps = remote([FakeResponse(401)], monkeypatch)
        with pytest.raises(AuthError):
            backend.complete(request_with("s", "q"))
        assert len(session.calls) == 1 and sleeps == []

    def test_transient_failures_back_off_then_succeed(self, monkeypatch):
        backend, session, sleeps = remote(
            [FakeResponse(429), FakeResponse(503), FakeResponse(200, content="ok")],
            monkeypatch, backoff_base=0.5)
        assert backend.complete(request_with("s", "q")) == "ok"
        assert sleeps == [0.5, 1.0]
        assert len(session.calls) == 3

    def test_retry_budget_exhausted(self, monkeypatch):
        outcomes = [requests.ConnectionError("down")] * 3
        backend, session, sleeps = remote(outcomes, monkeypatch,
                                          max_attempts=3, backoff_base=0.1)
        with pytest.raises(RetryBudgetExhaustedError, match="3 attempts"):
            backend.complete(request_with("s", "q"))
        assert len(session.calls) == 3
        assert sleeps == [0.1, 0.2]

    def test_client_errors_fail_fast(self, monkeypatch):
        backend, session, _ = remote([FakeResponse(404, text="missing")], monkeypatch)
        with pytest.raises(BackendError, match="404") as caught:
            backend.complete(request_with("s", "q"))
        assert not isinstance(caught.value, ENVIRONMENT_ERRORS)
        assert len(session.calls) == 1


class TestResponseCache:
    def test_round_trip_preserves_bytes(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        body = "line one\r\n\nline three\r\n"
        cache.put("k1", body)
        assert cache.get("k1") == body
        assert cache.hits == 1

    def test_miss_counted(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        assert cache.get("absent") is None
        assert cache.misses == 1

    # Each tears the stored entry; an entry without a hash cannot be checked.
    @pytest.mark.parametrize("tear", [lambda stored: b"{torn",
                                      lambda stored: b"\xff\xfe{}\nbody",
                                      lambda stored: b"[]\nold",
                                      lambda stored: stored[:-1],
                                      lambda stored: b'{"fingerprint":"k"}\nold'],
                             ids=["bad-json", "bad-utf8", "header-not-a-map", "cut-body", "no-hash"])
    def test_torn_entry_is_a_miss_and_gets_overwritten(self, tmp_path, tear, caplog):
        cache = ResponseCache(tmp_path / "cache")
        request = request_with("hello")
        cache.put(request.fingerprint(), "old")
        entry = tmp_path / "cache" / f"{request.fingerprint()}.resp"
        entry.write_bytes(tear(entry.read_bytes()))
        response, cached = cached_complete(ScriptedBackend(responses=["fresh"]), request, cache)
        assert (response, cached) == ("fresh", False)
        assert cache.misses == 1 and cache.hits == 0
        assert "is torn, treating it as a miss" in caplog.text
        assert cache.get(request.fingerprint()) == "fresh"

    def test_concurrent_writers_of_one_key_never_tear_it(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        bodies = [f"{writer}" * 200_000 for writer in range(8)]
        start = threading.Barrier(len(bodies))

        def write_and_read(body):
            start.wait(timeout=10)
            seen = []
            for _ in range(50):
                cache.put("shared", body)
                seen.append(cache.get("shared"))
            return seen

        with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
            seen = [got for batch in pool.map(write_and_read, bodies, timeout=120)
                    for got in batch]
        assert len(seen) == 400
        assert set(seen) <= set(bodies)
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["shared.resp"]

    def test_stats_and_clear(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        cache.put("a", "x")
        cache.put("b", "y")
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0


class BrokenCache(ResponseCache):
    def __init__(self, directory, fail_on):
        super().__init__(directory)
        self.fail_on = fail_on

    def get(self, key):
        if self.fail_on == "get":
            raise OSError("disk unplugged")
        return super().get(key)

    def put(self, key, response):
        if self.fail_on == "put":
            raise OSError("disk full")
        super().put(key, response)


class TestCachedComplete:
    def test_hit_skips_backend(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        backend = ScriptedBackend(responses=["fresh"])
        request = request_with("s", "q")
        cache.put(request.fingerprint(), "stored")
        response, was_cached = cached_complete(backend, request, cache)
        assert (response, was_cached) == ("stored", True)
        assert backend.requests == []

    def test_miss_calls_backend_and_stores(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        backend = ScriptedBackend(responses=["fresh"])
        request = request_with("s", "q")
        response, was_cached = cached_complete(backend, request, cache)
        assert (response, was_cached) == ("fresh", False)
        assert cache.get(request.fingerprint()) == "fresh"

    @pytest.mark.parametrize("fail_on, verb", [("get", "read"), ("put", "write")])
    def test_cache_failure_degrades_to_backend(self, tmp_path, fail_on, verb):
        cache = BrokenCache(tmp_path / "cache", fail_on)
        backend = ScriptedBackend(responses=["fresh"])
        warnings = []
        response, was_cached = cached_complete(backend, request_with("s", "q"), cache,
                                               on_warning=warnings.append)
        assert (response, was_cached) == ("fresh", False)
        assert len(warnings) == 1 and f"cache {verb} failed" in warnings[0]

    def test_no_cache_passes_through(self):
        backend = ScriptedBackend(responses=["fresh"])
        assert cached_complete(backend, request_with("s", "q")) == ("fresh", False)
