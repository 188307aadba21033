"""Completion backends, prompt templating, and the response cache.

All backends expose one method, ``complete(request) -> str``. Requests are
value objects with a canonical byte serialization; their SHA-256
fingerprint keys the response cache, which replay fills from a trace.
"""
from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ._util import canonical_bytes, fingerprint, load_yaml, replace_file, sha256_hex, utc_now_iso
from .errors import (
    AuthError,
    BackendError,
    ConfigError,
    RetryBudgetExhaustedError,
    ScriptExhaustedError,
    TemplateError,
)

logger = logging.getLogger(__name__)

_PLACEHOLDER = re.compile(r"\{\{(\w+)\}\}")

ROLES = ("system", "user", "assistant")


def render_template(template: str, variables: dict) -> str:
    """Substitute every ``{{name}}`` placeholder in a single pass.

    Values are converted to text (booleans as ``true``/``false``); text
    substituted for one placeholder is never rescanned, so values may
    safely contain ``{{...}}`` themselves. Unresolved or non-renderable
    placeholders raise a TemplateError naming every offender.
    """
    problems: list[str] = []

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in variables:
            problems.append(f"missing variable {name!r}")
            return match.group(0)
        value = variables[name]
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, float)):
            return json.dumps(value)
        problems.append(f"variable {name!r} has non-renderable type {type(value).__name__}")
        return match.group(0)

    rendered = _PLACEHOLDER.sub(substitute, template)
    if problems:
        raise TemplateError("; ".join(problems))
    return rendered


@dataclass(frozen=True)
class ChatTurn:
    role: str
    content: str


@dataclass(frozen=True)
class BackendRequest:
    """One chat completion request. Canonical form excludes nothing."""

    model: str
    turns: tuple[ChatTurn, ...]
    temperature: float = 0.0
    max_tokens: int = 2048

    def __post_init__(self):
        roles = [t.role for t in self.turns]
        if any(r not in ROLES for r in roles):
            raise ValueError(f"unknown turn role in {roles}")
        if "system" in roles[1:]:
            raise ValueError("system turn allowed only at position 0")

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "turns": [{"role": t.role, "content": t.content} for t in self.turns],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }

    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())

    def full_text(self) -> str:
        return "\n".join(t.content for t in self.turns)


@dataclass
class ResponseRule:
    """Rule for scripted backends: match on substrings and turn count."""

    response: str
    contains: tuple[str, ...] = ()
    turns: int | None = None

    def matches(self, request: BackendRequest) -> bool:
        if self.turns is not None and len(request.turns) != self.turns:
            return False
        text = request.full_text()
        return all(needle in text for needle in self.contains)


class ScriptedBackend:
    """Deterministic backend for tests and fixtures.

    Exactly one mode is active:
      * queue  - responses consumed in order;
      * rules  - first matching ResponseRule wins.
    Every request handled is appended to ``requests``.
    """

    def __init__(self, responses: list[str] | None = None,
                 rules: list[ResponseRule] | None = None):
        if (responses is None) == (rules is None):
            raise ValueError("exactly one of responses/rules must be given")
        self._queue = list(responses) if responses is not None else None
        self._rules = list(rules) if rules is not None else None
        self.requests: list[BackendRequest] = []
        self._lock = threading.Lock()

    def complete(self, request: BackendRequest) -> str:
        with self._lock:
            self.requests.append(request)
            if self._queue is not None:
                if not self._queue:
                    raise ScriptExhaustedError(
                        f"scripted backend queue is empty (request {len(self.requests)})")
                return self._queue.pop(0)
            for rule in self._rules:
                if rule.matches(request):
                    return rule.response
            raise ScriptExhaustedError(
                f"no scripted rule matched request with {len(request.turns)} turns; "
                f"last turn: {request.turns[-1].content[:200]!r}")

    @classmethod
    def from_rules_file(cls, path: str | Path) -> "ScriptedBackend":
        doc = load_yaml(path, "rules file")
        entries = doc.get("rules") if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ConfigError(f"rules file {path} must be a map holding a 'rules' list")
        rules = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict) or not isinstance(entry.get("response"), str):
                raise ConfigError(f"rules file {path}: rule {index} needs a text 'response'")
            contains, turns = entry.get("contains", []), entry.get("turns")
            if (not isinstance(contains, list) or not all(isinstance(c, str) for c in contains)
                    or not (turns is None or type(turns) is int)):
                raise ConfigError(f"rules file {path}: rule {index} needs 'contains' to be "
                                  f"a list of text and 'turns' an integer")
            rules.append(ResponseRule(response=entry["response"], contains=tuple(contains),
                                      turns=turns))
        return cls(rules=rules)


def http_post(url: str, body: bytes, headers: dict[str, str], timeout: float) -> tuple[int, str]:
    """POST ``body`` to ``url``: the HTTP status and the response text.

    A failure to get any response (refused, reset, timed out, garbled)
    raises OSError.
    """
    # Imported here, not at module level, so that commands on local
    # backends never load an HTTP stack (http.client, and ssl with it).
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as exc:  # a status urllib does not pass (any but 2xx)
        with exc:
            return exc.code, exc.read().decode("utf-8", errors="replace")
    except http.client.HTTPException as exc:  # a response that is not HTTP, or cut short
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


class RemoteBackend:
    """HTTP chat-completions backend with bounded exponential backoff.

    The API credential is read from the environment variable named in the
    profile; it is never written to configs, traces or logs. ``post`` makes
    the request (see ``http_post``); tests pass their own.
    """

    def __init__(self, endpoint: str, api_key_env: str, *, max_attempts: int = 5,
                 backoff_base: float = 0.5, request_timeout: float = 60.0,
                 post=http_post, sleep=time.sleep):
        if not endpoint.startswith(("http://", "https://")):
            raise ConfigError(f"remote endpoint must be an http:// or https:// URL, got {endpoint!r}")
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.request_timeout = request_timeout
        self._post = post
        self._sleep = sleep

    def complete(self, request: BackendRequest) -> str:
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise AuthError(f"environment variable {self.api_key_env} is not set")
        body = json.dumps({
            "model": request.model,
            "messages": [{"role": t.role, "content": t.content} for t in request.turns],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }).encode("utf-8")
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        last_error = ""  # the last retryable failure: a rate limit, server, network or reply error
        for attempt in range(1, self.max_attempts + 1):
            try:
                status, text = self._post(self.endpoint, body, headers, self.request_timeout)
            except OSError as exc:
                last_error = f"network error: {exc}"
            else:
                if status in (401, 403):
                    raise AuthError(f"backend rejected credentials (HTTP {status})")
                if status == 429 or status >= 500:
                    last_error = f"HTTP {status}"
                elif status >= 400:
                    # Another client error is the request's own fault (say, a
                    # prompt too long): no retry mends it, and the pair records it.
                    raise BackendError(f"HTTP {status}: {text[:200]}")
                else:
                    # A 2xx reply that is not a chat completion is garbled: retried.
                    try:
                        reply = json.loads(text)["choices"][0]["message"]["content"]
                    except (ValueError, LookupError, TypeError):
                        reply = None
                    if isinstance(reply, str):
                        return reply
                    last_error = f"HTTP {status} is not a chat completion: {text[:200]!r}"
            if attempt < self.max_attempts:
                delay = self.backoff_base * (2 ** (attempt - 1))
                logger.warning("backend attempt %d/%d failed (%s); retrying in %.1fs",
                               attempt, self.max_attempts, last_error, delay)
                self._sleep(delay)
        raise RetryBudgetExhaustedError(
            f"backend failed after {self.max_attempts} attempts: {last_error}")


class ResponseCache:
    """Content-addressed response store: one file per request fingerprint.

    The file holds a small JSON header line (fingerprint, the sha256 of
    the body, stored_at) followed by the response text in UTF-8. Writes
    go through a temp file and atomic replace. Cache failures must never
    fail a run; callers treat them as misses (see cached_complete). The
    directory is made when the first response is stored.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.resp"

    def get(self, key: str) -> str | None:
        """The stored response, or None on a miss.

        A torn entry counts as a miss, so the fresh response overwrites it:
        one whose header does not parse, or whose body does not match the
        sha256 in its header (a body cut short, say). An entry without that
        hash cannot be checked, so it is a miss too.
        """
        path = self._path(key)
        body = None
        if path.exists():
            header, _, data = path.read_bytes().partition(b"\n")
            try:
                stored = json.loads(header)
                if not isinstance(stored, dict) or stored.get("sha256") != sha256_hex(data):
                    raise ValueError("its body does not match the sha256 in its header")
                body = data.decode("utf-8")
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
                logger.warning("cache entry %s is torn, treating it as a miss: %s", path.name, exc)
        with self._lock:
            if body is None:
                self.misses += 1
            else:
                self.hits += 1
        return body

    def put(self, key: str, response: str) -> None:
        """Store a response; concurrent writers of one key each replace the
        entry whole, from a temporary file of their own."""
        data = response.encode("utf-8")
        header = canonical_bytes({"fingerprint": key, "sha256": sha256_hex(data),
                                  "stored_at": utc_now_iso()})
        self.directory.mkdir(parents=True, exist_ok=True)
        replace_file(self._path(key), header + b"\n" + data)

    def stats(self) -> dict:
        entries = list(self.directory.glob("*.resp"))
        return {
            "entries": len(entries),
            "bytes": sum(p.lstat().st_size for p in entries),
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> int:
        """Remove every entry and return how many there were. Each is tried;
        if any could not be removed, OSError says how many were and names
        the first failure."""
        entries = list(self.directory.glob("*.resp"))
        failures = []
        for path in entries:
            try:
                path.unlink()
            except OSError as exc:
                failures.append(exc)
        if failures:
            raise OSError(f"removed {len(entries) - len(failures)} of {len(entries)} entries; "
                          f"the first that failed: {failures[0]}")
        return len(entries)


def cached_complete(backend, request: BackendRequest, cache: ResponseCache | None = None,
                    on_warning=None, key: str | None = None) -> tuple[str, bool]:
    """Answer a request through the cache; returns (response, was_cached).

    ``cache`` is anything with ``get(key)`` (None on a miss) and
    ``put(key, response)``; ``key`` is the request's fingerprint, computed
    here unless the caller already has it. An unreadable or unwritable
    cache degrades to a direct backend call with a warning, never an error.
    """
    if key is None:
        key = request.fingerprint()
    degraded = False
    if cache is not None:
        try:
            hit = cache.get(key)
        except OSError as exc:
            degraded = True
            logger.warning("cache read failed for %s: %s", key, exc)
            if on_warning:
                on_warning(f"cache read failed: {exc}")
        else:
            if hit is not None:
                return hit, True
    response = backend.complete(request)
    if cache is not None and not degraded:
        try:
            cache.put(key, response)
        except OSError as exc:
            logger.warning("cache write failed for %s: %s", key, exc)
            if on_warning:
                on_warning(f"cache write failed: {exc}")
    return response, False
