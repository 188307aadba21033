"""Append-only run tracing and trace normalization.

A trace is a JSONL file whose first line is a header and whose remaining
lines are events, one per line, in the order they were recorded. Format 4
writes each event whole, as ``{seq, t, instance_id, kind, body}``, where
``t`` is the event's time in microseconds from the header's ``t0``. A
trace whose path ends in ``.gz`` is one gzip stream, sync-flushed at every
``flow_end``, so that ``gzip -dc`` reads it up to the last flow that
ended; any other path is written as plain text. ``read_trace`` tells the
two apart by the gzip magic bytes and rebuilds the events, so that a run
can be re-executed from its trace alone (see ``evalharness.replay_pair``).

Older plain traces still read. Format 3 left out of each line what the
file already held, named by the line's ``enc``: a message (``delta``) is
the keys it changes from its last parent, and a ``message_out`` also
leaves out its creator when that is the event's own instance; a request
(``call``) is the turns it adds to its flow's conversation, and a response
(``resp``) the keys of its call left out. A key that a line does carry
wins over the one rebuilt. Format 2 wrote deltas against the first parent,
and format 1 every event in full with an ISO ``timestamp``. Formats 1 and
2 are read without their ``state_update`` events, which repeat the
conversations and messages around them.
"""
from __future__ import annotations

import datetime as dt
import json
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ._util import canonical_json
from .errors import NestflowError

TRACE_FORMAT_VERSION = 4
_FULL_FORMAT_VERSION = 1
# Formats whose lines may carry an ``enc``: what a reader rebuilds them from.
_ENCODED_FORMATS = (2, 3)
_GZIP_MAGIC = b"\x1f\x8b"

EVENT_KINDS = frozenset({
    "flow_start",
    "flow_end",
    "message_in",
    "message_out",
    "backend_call",
    "backend_response",
    "warning",
})

# Body keys holding identifiers that get renumbered during normalization.
_ID_KEYS = ("id", "created_by", "instance_id")
_TIME_KEYS = ("timestamp", "created_at")
# Event kinds, and body keys per event kind, that describe the run's
# environment rather than its behaviour: a replay serves every response
# from the cache, whose failures are all that ``warning`` reports.
_ENVIRONMENT_KINDS = frozenset({"warning"})
_ENVIRONMENT_KEYS = {"backend_response": ("cached",)}
# What a format-3 response leaves out: the same as in the call it answers.
_CALL_KEYS = ("backend", "fingerprint")

_MESSAGE_KEYS = frozenset({"id", "created_at", "created_by", "payload", "parents"})
_MESSAGE_KINDS = ("message_in", "message_out")
_MICROSECOND = dt.timedelta(microseconds=1)


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    timestamp: str
    instance_id: str
    kind: str
    body: dict = field(default_factory=dict)


def _is_message(node) -> bool:
    return (isinstance(node, dict) and node.keys() == _MESSAGE_KEYS
            and isinstance(node["id"], str) and isinstance(node["created_at"], str)
            and isinstance(node["payload"], dict)
            and isinstance(node["parents"], list)
            and all(isinstance(parent, str) for parent in node["parents"]))


def _stamp(t0: dt.datetime, offset) -> str:
    if type(offset) is not int:
        raise ValueError(f"time offset {offset!r} is not an integer")
    return (t0 + offset * _MICROSECOND).isoformat()


class _Held:
    """What a format-2 or -3 trace holds so far, for its reader to rebuild encoded lines.

    The reader ``observe``s every full event body, so an encoding always
    refers to state that it has rebuilt. Bodies are held by reference,
    never copied.
    """

    def __init__(self, t0: dt.datetime, base: int = -1):
        self.t0 = t0
        # Which parent a message is a delta against: the last, or in format 2 the first.
        self.base = base
        self.messages: dict[str, dict] = {}
        # Per instance: its last request's turns, plus the response once it came.
        self.conversations: dict[str, list] = {}
        # Per instance: its last backend_call's body.
        self.calls: dict[str, dict] = {}

    def observe(self, kind: str, instance_id: str, body: dict) -> None:
        if kind in _MESSAGE_KINDS:
            message = body.get("message")
            if _is_message(message):
                self.messages[message["id"]] = message
        elif kind == "backend_call":
            self.calls[instance_id] = body
            request = body.get("request")
            if isinstance(request, dict) and isinstance(request.get("turns"), list):
                self.conversations[instance_id] = request["turns"]
        elif kind == "backend_response":
            turns = self.conversations.get(instance_id)
            if turns is not None and isinstance(body.get("response"), str):
                self.conversations[instance_id] = [
                    *turns, {"role": "assistant", "content": body["response"]}]

    def decode(self, encoding: str | None, kind: str, instance_id: str, body: dict) -> dict:
        if encoding is None:
            return body
        if encoding in ("message", "delta"):
            return {"message": self._decode_message(encoding, kind, instance_id, body["message"])}
        if encoding == "call":
            return self._decode_call(instance_id, body)
        if encoding == "resp":
            call = self.calls.get(instance_id)
            if call is None:
                raise ValueError(f"response of {instance_id} answers no call of its instance")
            return {**{key: call[key] for key in _CALL_KEYS if key in call}, **body}
        raise ValueError(f"unknown encoding {encoding!r}")

    def _decode_message(self, encoding: str, kind: str, instance_id: str, written: dict) -> dict:
        message = {key: written[key] for key in ("id", "parents")}
        message["created_by"] = (written.get("created_by", instance_id) if kind == "message_out"
                                 else written["created_by"])
        created_at = written["created_at"]
        if not isinstance(created_at, str):
            created_at = _stamp(self.t0, created_at)
        message["created_at"] = created_at
        if encoding == "message":
            message["payload"] = written["payload"]
        else:
            parent = message["parents"][self.base]
            if parent not in self.messages:
                raise ValueError(f"message {message['id']!r} is a delta against {parent!r}, "
                                 f"which the trace does not hold")
            payload = {**self.messages[parent]["payload"], **written.get("set", {})}
            for key in written.get("del", ()):
                del payload[key]
            message["payload"] = payload
        if not _is_message(message):
            raise ValueError(f"message {message['id']!r} is malformed")
        return message

    def _decode_call(self, instance_id: str, body: dict) -> dict:
        request = dict(body["request"])
        keep = request.pop("keep")
        conversation = self.conversations.get(instance_id, [])
        if type(keep) is not int or not 0 < keep <= len(conversation):
            raise ValueError(f"request of {instance_id} keeps {keep!r} turns of a conversation "
                             f"of {len(conversation)}")
        request["turns"] = conversation[:keep] + request["turns"]
        return {**body, "request": request}


class _GzipText:
    """A text file written as one gzip stream. ``flush`` ends a deflate block,
    so that everything written so far decompresses."""

    def __init__(self, path: Path):
        self._fh = path.open("wb")
        # A 16 KB window at memLevel 6: about 105 KB of zlib state, against
        # about 265 KB at the defaults, for the same size on the fixture traces.
        self._zip = zlib.compressobj(6, zlib.DEFLATED, 16 + 14, 6)

    def write(self, text: str) -> None:
        self._fh.write(self._zip.compress(text.encode("utf-8")))

    def flush(self) -> None:
        self._fh.write(self._zip.flush(zlib.Z_SYNC_FLUSH))
        self._fh.flush()

    def close(self) -> None:
        if self._fh.closed:
            return
        try:
            self._fh.write(self._zip.flush())
        finally:
            self._fh.close()


class TraceSink:
    """Event sink. Assigns seq numbers and validates event kinds.

    ``TraceSink(path)`` writes the format-4 header and then one line per
    event to ``path``, flushing on every flow_end: a gzip stream when the
    path ends in ``.gz``, and plain text otherwise. ``TraceSink()`` keeps
    the events in ``events`` instead.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.events: list[TraceEvent] = []
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._t0 = dt.datetime.now(dt.timezone.utc)
            self._fh = (_GzipText(self.path) if self.path.suffix == ".gz"
                        else self.path.open("w", encoding="utf-8"))
            self._fh.write(canonical_json({"t0": self._t0.isoformat(),
                                           "trace_format": TRACE_FORMAT_VERSION}) + "\n")
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, kind: str, instance_id: str, body: dict | None = None) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise NestflowError(f"unknown trace event kind {kind!r}")
        body = body or {}
        with self._lock:
            self._seq += 1
            now = dt.datetime.now(dt.timezone.utc)
            event = TraceEvent(self._seq, now.isoformat(), instance_id, kind, body)
            if self._fh is None:
                self.events.append(event)
            else:
                self._fh.write(canonical_json({
                    "seq": self._seq, "t": (now - self._t0) // _MICROSECOND,
                    "instance_id": instance_id, "kind": kind, "body": body}) + "\n")
                if kind == "flow_end":
                    self._fh.flush()
        return event

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _read_text(path: str | Path) -> str:
    """A trace file's text, decompressed when it starts with the gzip magic bytes."""
    data = Path(path).read_bytes()
    try:
        if data.startswith(_GZIP_MAGIC):
            data = zlib.decompress(data, 16 + zlib.MAX_WBITS)
        return data.decode("utf-8")
    except zlib.error as exc:
        raise NestflowError(f"trace file {path} is not a whole gzip stream: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise NestflowError(f"trace file {path}: not UTF-8 at byte {exc.start}") from None


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a trace file of any format that reads, checking the version header.

    A file that is not a whole gzip stream or not UTF-8, or a line that
    cannot be decoded, raises NestflowError naming the file (and the line).
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise NestflowError(f"trace file {path} is empty")
    number = 1
    try:
        header = json.loads(lines[0])
        version = header.get("trace_format") if isinstance(header, dict) else None
        if version not in (_FULL_FORMAT_VERSION, *_ENCODED_FORMATS, TRACE_FORMAT_VERSION):
            raise NestflowError(f"trace file {path} has unsupported format version {version!r}")
        t0 = None if version == _FULL_FORMAT_VERSION else dt.datetime.fromisoformat(header["t0"])
        held = _Held(t0, 0 if version == 2 else -1) if version in _ENCODED_FORMATS else None
        events = []
        for number, line in enumerate(lines[1:], start=2):
            raw = json.loads(line)
            if version < 3 and raw["kind"] == "state_update":
                continue
            if t0 is None:
                event = TraceEvent(raw["seq"], raw["timestamp"], raw["instance_id"], raw["kind"],
                                   raw["body"])
            else:
                body = raw["body"] if held is None else held.decode(
                    raw.get("enc"), raw["kind"], raw["instance_id"], raw["body"])
                event = TraceEvent(raw["seq"], _stamp(t0, raw["t"]), raw["instance_id"],
                                   raw["kind"], body)
            if not isinstance(event.body, dict):
                raise ValueError("event body is not a map")
            if held is not None:
                held.observe(event.kind, event.instance_id, event.body)
            events.append(event)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            detail = f"not JSON: {exc.msg} at column {exc.colno}"
        elif isinstance(exc, KeyError):
            detail = f"missing key {exc}"
        else:
            detail = str(exc)
        raise NestflowError(f"trace file {path}, line {number}: {detail}") from exc
    return events


def normalize_trace(events: list[TraceEvent]) -> list[dict]:
    """Rewrite ids to first-occurrence ordinals; drop timestamps, ``cached`` and warnings.

    Two runs of the same flow on the same input are equivalent iff their
    normalized traces are equal, regardless of process-level id counters,
    wall-clock times, or whether a response came from the cache or the
    cache failed.
    """
    mapping: dict[str, str] = {}

    def norm_id(value: str) -> str:
        if value not in mapping:
            mapping[value] = f"#{len(mapping) + 1}"
        return mapping[value]

    def walk(node):
        if isinstance(node, dict):
            # Visit keys in sorted order so ordinal assignment does not
            # depend on dict insertion order (in-memory events vs events
            # re-read from disk, where json.dumps sorted the keys).
            out = {}
            for key in sorted(node):
                value = node[key]
                if key in _TIME_KEYS:
                    continue
                if key in _ID_KEYS and isinstance(value, str):
                    out[key] = norm_id(value)
                elif key == "parents" and isinstance(value, list):
                    out[key] = [norm_id(v) for v in value]
                else:
                    out[key] = walk(value)
            return out
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    normalized = []
    kept = (event for event in events if event.kind not in _ENVIRONMENT_KINDS)
    for position, event in enumerate(kept, start=1):
        dropped = _ENVIRONMENT_KEYS.get(event.kind, ())
        normalized.append({
            "seq": position,
            "kind": event.kind,
            "instance_id": norm_id(event.instance_id),
            "body": walk({k: v for k, v in event.body.items() if k not in dropped}),
        })
    return normalized
