import json
import os
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from nestflow.backends import (
    BackendRequest,
    ChatTurn,
    RemoteBackend,
    ResponseCache,
    ResponseRule,
    ScriptedBackend,
    cached_complete,
    http_post,
    render_template,
)
from nestflow.errors import (
    ENVIRONMENT_ERRORS,
    AuthError,
    BackendError,
    ConfigError,
    ReplayDivergenceError,
    RetryBudgetExhaustedError,
    ScriptExhaustedError,
    TemplateError,
)
from nestflow.evalharness import _Unrecorded

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def reply(content):
    """A chat-completions response body carrying ``content``."""
    return json.dumps({"choices": [{"message": {"content": content}}]})


class FakePost:
    """A ``post`` for RemoteBackend that gives each outcome in turn: a
    (status, text) pair, or an exception to raise."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, body, headers, timeout):
        self.calls.append({"url": url, "json": json.loads(body), "headers": headers,
                           "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def remote(outcomes, monkeypatch, **kwargs):
    monkeypatch.setenv("TEST_API_KEY", "secret-token")
    post = FakePost(outcomes)
    sleeps = []
    backend = RemoteBackend("https://example.invalid/v1/chat", "TEST_API_KEY",
                            post=post, sleep=sleeps.append, **kwargs)
    return backend, post, sleeps


def test_importing_the_cli_leaves_requests_unloaded(fixtures_dir):
    # Nor does building a local backend load an HTTP stack. A fresh
    # interpreter, because this one has imported http.client already.
    code = ("import sys, nestflow.cli; "
            f"nestflow.cli.load_backend_profile({str(fixtures_dir / 'profiles.yaml')!r}, 'scripted'); "
            "print(sorted({'requests', 'urllib3', 'urllib.request', 'http.client', 'ssl'}"
            " & set(sys.modules)))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestRemoteBackend:
    def test_default_post_is_http_post(self):
        backend = RemoteBackend("https://example.invalid", "TEST_API_KEY")
        assert backend._post is http_post

    @pytest.mark.parametrize("endpoint", ["example.invalid/v1", "ftp://example.invalid", ""])
    def test_endpoint_must_be_http(self, endpoint):
        with pytest.raises(ConfigError, match="http:// or https://"):
            RemoteBackend(endpoint, "TEST_API_KEY")

    def test_missing_credential(self, monkeypatch):
        monkeypatch.delenv("TEST_API_KEY", raising=False)
        backend = RemoteBackend("https://example.invalid", "TEST_API_KEY",
                                post=FakePost([]))
        with pytest.raises(AuthError, match="TEST_API_KEY"):
            backend.complete(request_with("s", "q"))

    def test_success_sends_bearer_and_body(self, monkeypatch):
        backend, post, _ = remote([(200, reply("reply"))], monkeypatch)
        request = request_with("sys prompt", "user prompt")
        assert backend.complete(request) == "reply"
        call = post.calls[0]
        assert call["url"] == "https://example.invalid/v1/chat"
        assert call["headers"]["Authorization"] == "Bearer secret-token"
        assert call["headers"]["Content-Type"] == "application/json"
        assert call["json"] == {"model": "m", "temperature": 0.0, "max_tokens": 2048,
                                "messages": [{"role": "system", "content": "sys prompt"},
                                             {"role": "user", "content": "user prompt"}]}
        assert call["timeout"] == 60.0

    def test_rejected_credentials_do_not_retry(self, monkeypatch):
        for status in (401, 403):
            backend, post, sleeps = remote([(status, "")], monkeypatch)
            with pytest.raises(AuthError, match=str(status)):
                backend.complete(request_with("s", "q"))
            assert len(post.calls) == 1 and sleeps == []

    def test_transient_failures_back_off_then_succeed(self, monkeypatch):
        backend, post, sleeps = remote(
            [(429, ""), (503, ""), (200, reply("ok"))], monkeypatch, backoff_base=0.5)
        assert backend.complete(request_with("s", "q")) == "ok"
        assert sleeps == [0.5, 1.0]
        assert len(post.calls) == 3

    def test_retry_budget_exhausted(self, monkeypatch):
        outcomes = [ConnectionRefusedError("down"), TimeoutError("slow"), (500, "")]
        backend, post, sleeps = remote(outcomes, monkeypatch,
                                       max_attempts=3, backoff_base=0.1)
        with pytest.raises(RetryBudgetExhaustedError, match="3 attempts: HTTP 500"):
            backend.complete(request_with("s", "q"))
        assert len(post.calls) == 3
        assert sleeps == [0.1, 0.2]

    def test_network_error_is_the_last_error_named(self, monkeypatch):
        backend, _, _ = remote([(502, ""), ConnectionResetError("reset")], monkeypatch,
                               max_attempts=2)
        with pytest.raises(RetryBudgetExhaustedError, match="network error: reset"):
            backend.complete(request_with("s", "q"))

    @pytest.mark.parametrize("text", [
        "<html>busy</html>", "", "[1, 2]", json.dumps({"id": "x"}), json.dumps({"choices": []}),
        json.dumps({"choices": [{"message": {}}]}),
        json.dumps({"choices": [{"message": {"content": None}}]}),
    ], ids=["not-json", "empty", "a-list", "no-choices", "empty-choices", "no-content",
            "null-content"])
    def test_reply_that_is_not_a_chat_completion_is_retried(self, monkeypatch, text):
        backend, post, sleeps = remote([(200, text), (200, reply("ok"))], monkeypatch,
                                       backoff_base=0.5)
        assert backend.complete(request_with("s", "q")) == "ok"
        assert len(post.calls) == 2 and sleeps == [0.5]

    def test_replies_that_are_not_chat_completions_exhaust_the_budget(self, monkeypatch):
        outcomes = [(200, "<html>"), (201, "{}"), (200, '{"choices": [{}]}')]
        backend, post, _ = remote(outcomes, monkeypatch, max_attempts=3)
        with pytest.raises(RetryBudgetExhaustedError) as caught:
            backend.complete(request_with("s", "q"))
        assert str(caught.value) == ("backend failed after 3 attempts: HTTP 200 is not a chat "
                                     """completion: '{"choices": [{}]}'""")
        assert len(post.calls) == 3

    def test_client_errors_fail_fast(self, monkeypatch):
        backend, post, _ = remote([(404, "missing")], monkeypatch)
        with pytest.raises(BackendError, match="404: missing") as caught:
            backend.complete(request_with("s", "q"))
        assert not isinstance(caught.value, ENVIRONMENT_ERRORS)
        assert len(post.calls) == 1


class ChatServer(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1 that answers each POST with
    the next of ``answers``: (status, body text), or None to send bytes that
    are not HTTP. It records each request as (path, headers, body)."""

    def __init__(self, answers):
        self.answers, self.requests = list(answers), []
        super().__init__(("127.0.0.1", 0), ChatHandler)

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat"


class ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((self.path, dict(self.headers), body))
        answer = self.server.answers.pop(0)
        if answer is None:
            self.wfile.write(b"not a status line\r\n\r\n")
            return
        status, text = answer
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server(monkeypatch):
    """Start a ChatServer with proxies turned off, so that requests reach it."""
    for name in ("http_proxy", "https_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("no_proxy", "*")
    servers = []

    def start(answers):
        server = ChatServer(answers)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestHttpPost:
    """The real request path, against a server on 127.0.0.1."""

    def test_round_trip(self, chat_server):
        server = chat_server([(200, "caf\u00e9")])
        body = b'{"model": "m"}'
        assert http_post(server.url, body, {"Authorization": "Bearer t"}, 5.0) == (200, "caf\u00e9")
        path, headers, sent = server.requests[0]
        assert (path, sent, headers["Authorization"]) == ("/v1/chat", body, "Bearer t")

    @pytest.mark.parametrize("status", [400, 401, 429, 503])
    def test_error_status_is_returned_with_its_text(self, chat_server, status):
        server = chat_server([(status, "no")])
        assert http_post(server.url, b"{}", {}, 5.0) == (status, "no")

    def test_garbled_response_is_a_network_error(self, chat_server):
        server = chat_server([None])
        with pytest.raises(OSError, match="BadStatusLine"):
            http_post(server.url, b"{}", {}, 5.0)

    def test_refused_connection_is_a_network_error(self, chat_server):
        with socket.socket() as unused:  # bound, never listening: connections are refused
            unused.bind(("127.0.0.1", 0))
            with pytest.raises(OSError):
                http_post(f"http://127.0.0.1:{unused.getsockname()[1]}/", b"{}", {}, 5.0)

    def test_backend_retries_then_reads_the_reply(self, chat_server, monkeypatch):
        server = chat_server([(503, "busy"), None, (200, reply("done"))])
        monkeypatch.setenv("TEST_API_KEY", "secret-token")
        sleeps = []
        backend = RemoteBackend(server.url, "TEST_API_KEY", request_timeout=5.0,
                                sleep=sleeps.append)
        assert backend.complete(request_with("s", "q")) == "done"
        assert sleeps == [0.5, 1.0]
        _, headers, body = server.requests[-1]
        assert headers["Authorization"] == "Bearer secret-token"
        assert json.loads(body)["messages"][1] == {"role": "user", "content": "q"}

    def test_backend_fails_fast_on_a_client_error(self, chat_server, monkeypatch):
        server = chat_server([(403, "forbidden"), (422, "too long")])
        monkeypatch.setenv("TEST_API_KEY", "secret-token")
        backend = RemoteBackend(server.url, "TEST_API_KEY", sleep=lambda _: None)
        with pytest.raises(AuthError, match="403"):
            backend.complete(request_with("s", "q"))
        with pytest.raises(BackendError, match="422: too long"):
            backend.complete(request_with("s", "q"))
        assert len(server.requests) == 2


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

    def test_directory_is_made_by_the_first_put(self, tmp_path):
        cache = ResponseCache(tmp_path / "runs" / "cache")
        assert cache.get("k") is None
        assert cache.stats()["entries"] == 0 and cache.clear() == 0
        assert not (tmp_path / "runs").exists()
        cache.put("k", "body")
        assert cache.get("k") == "body"

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
