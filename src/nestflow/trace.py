"""Append-only run tracing and trace normalization.

A trace is a JSONL file whose first line is a header and whose remaining
lines are events, one per line, in the order they were recorded. Format 2
writes each event against what the file already holds: a message as the
keys it changes from its first parent, a request as the turns it adds to
its flow's conversation, a state equal to that conversation by name, and
times as microsecond offsets from the header's ``t0``. ``read_trace``
rebuilds the full events, message payloads and backend request/response
bodies included, so that a run can be re-executed from its trace alone
(see ``evalharness.replay_pair``).
Format-1 traces, which hold every event in full, still read.
"""
from __future__ import annotations

import datetime as dt
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ._util import canonical_json
from .errors import NestflowError

TRACE_FORMAT_VERSION = 2
_FULL_FORMAT_VERSION = 1

EVENT_KINDS = frozenset({
    "flow_start",
    "flow_end",
    "message_in",
    "message_out",
    "backend_call",
    "backend_response",
    "state_update",
    "warning",
})

# Body keys holding identifiers that get renumbered during normalization.
_ID_KEYS = ("id", "created_by", "instance_id")
_TIME_KEYS = ("timestamp", "created_at")
# Body keys, per event kind, that describe the run's environment rather
# than its behaviour: a replay serves every response from the cache.
_ENVIRONMENT_KEYS = {"backend_response": ("cached",)}

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


def _shared_prefix(first: list, second: list) -> int:
    count = 0
    for a, b in zip(first, second):
        if a != b:
            break
        count += 1
    return count


class _Held:
    """What a format-2 trace holds so far, kept alike by its writer and reader.

    Both sides ``observe`` every full event body, so an encoding always
    refers to state that the reader has rebuilt. Bodies are held by
    reference, never copied.
    """

    def __init__(self, t0: dt.datetime):
        self.t0 = t0
        self.messages: dict[str, dict] = {}
        # Per instance: its last request's turns, plus the response once it came.
        self.conversations: dict[str, list] = {}

    def observe(self, kind: str, instance_id: str, body: dict) -> None:
        if kind in _MESSAGE_KINDS:
            message = body.get("message")
            if _is_message(message):
                self.messages[message["id"]] = message
        elif kind == "backend_call":
            request = body.get("request")
            if isinstance(request, dict) and isinstance(request.get("turns"), list):
                self.conversations[instance_id] = request["turns"]
        elif kind == "backend_response":
            turns = self.conversations.get(instance_id)
            if turns is not None and isinstance(body.get("response"), str):
                self.conversations[instance_id] = [
                    *turns, {"role": "assistant", "content": body["response"]}]

    def stamp(self, offset) -> str:
        if type(offset) is not int:
            raise ValueError(f"time offset {offset!r} is not an integer")
        return (self.t0 + offset * _MICROSECOND).isoformat()

    def offset(self, stamp):
        """``stamp`` as microseconds from t0, or unchanged where that would not read back equal."""
        try:
            offset = (dt.datetime.fromisoformat(stamp) - self.t0) // _MICROSECOND
        except (TypeError, ValueError):
            return stamp
        return offset if self.stamp(offset) == stamp else stamp

    # -- writing ------------------------------------------------------------

    def encode(self, kind: str, instance_id: str, body: dict) -> tuple[str | None, dict]:
        """The encoding's name (None: the body as it is) and the body to write."""
        if kind in _MESSAGE_KINDS and body.keys() == {"message"} and _is_message(body["message"]):
            return self._encode_message(body["message"])
        if kind == "backend_call":
            return self._encode_call(instance_id, body)
        if (kind == "state_update" and body.keys() == {"key", "value"}
                and isinstance(body["key"], str) and isinstance(body["value"], list)
                and body["value"] == self.conversations.get(instance_id)):
            return "conv", {"key": body["key"]}
        return None, body

    def _encode_message(self, message: dict) -> tuple[str, dict]:
        out = {key: message[key] for key in ("id", "created_by", "parents")}
        out["created_at"] = self.offset(message["created_at"])
        parents, payload = message["parents"], message["payload"]
        base = self.messages.get(parents[0]) if parents else None
        if base is None:
            out["payload"] = payload
            return "message", {"message": out}
        before = base["payload"]
        changed = {k: v for k, v in payload.items() if k not in before or before[k] != v}
        removed = [k for k in before if k not in payload]
        if changed:
            out["set"] = changed
        if removed:
            out["del"] = removed
        return "delta", {"message": out}

    def _encode_call(self, instance_id: str, body: dict) -> tuple[str | None, dict]:
        request = body.get("request")
        conversation = self.conversations.get(instance_id)
        if (conversation is None or not isinstance(request, dict) or "keep" in request
                or not isinstance(request.get("turns"), list)):
            return None, body
        turns = request["turns"]
        keep = _shared_prefix(conversation, turns)
        if not keep:
            return None, body
        return "call", {**body, "request": {**request, "keep": keep, "turns": turns[keep:]}}

    # -- reading ------------------------------------------------------------

    def decode(self, encoding: str | None, instance_id: str, body: dict) -> dict:
        if encoding is None:
            return body
        if encoding in ("message", "delta"):
            return {"message": self._decode_message(encoding, body["message"])}
        if encoding == "call":
            return self._decode_call(instance_id, body)
        if encoding == "conv":
            conversation = self.conversations.get(instance_id)
            if conversation is None:
                raise ValueError(f"state of {instance_id} refers to a conversation it never had")
            return {"key": body["key"], "value": list(conversation)}
        raise ValueError(f"unknown encoding {encoding!r}")

    def _decode_message(self, encoding: str, written: dict) -> dict:
        message = {key: written[key] for key in ("id", "created_by", "parents")}
        created_at = written["created_at"]
        if not isinstance(created_at, str):
            created_at = self.stamp(created_at)
        message["created_at"] = created_at
        if encoding == "message":
            message["payload"] = written["payload"]
        else:
            parent = message["parents"][0]
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


class TraceSink:
    """Event sink. Assigns seq numbers and validates event kinds.

    ``TraceSink(path)`` writes the format-2 header and then one line per
    event to ``path``, flushing on every flow_end. ``TraceSink()`` keeps
    the events in ``events`` instead.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.events: list[TraceEvent] = []
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._held = _Held(dt.datetime.now(dt.timezone.utc))
            self._fh = self.path.open("w", encoding="utf-8")
            self._fh.write(canonical_json({"t0": self._held.t0.isoformat(),
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
                encoding, written = self._held.encode(kind, instance_id, body)
                self._held.observe(kind, instance_id, body)
                line = {"seq": self._seq, "t": (now - self._held.t0) // _MICROSECOND,
                        "instance_id": instance_id, "kind": kind, "body": written}
                if encoding is not None:
                    line["enc"] = encoding
                self._fh.write(canonical_json(line) + "\n")
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


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a trace file of either format, checking the version header.

    A line that cannot be decoded raises NestflowError naming the file and
    the line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise NestflowError(f"trace file {path} is empty")
    number = 1
    try:
        header = json.loads(lines[0])
        version = header.get("trace_format") if isinstance(header, dict) else None
        if version not in (_FULL_FORMAT_VERSION, TRACE_FORMAT_VERSION):
            raise NestflowError(f"trace file {path} has unsupported format version {version!r}")
        held = None
        if version == TRACE_FORMAT_VERSION:
            held = _Held(dt.datetime.fromisoformat(header["t0"]))
        events = []
        for number, line in enumerate(lines[1:], start=2):
            raw = json.loads(line)
            if held is None:
                event = TraceEvent(raw["seq"], raw["timestamp"], raw["instance_id"], raw["kind"],
                                   raw["body"])
            else:
                body = held.decode(raw.get("enc"), raw["instance_id"], raw["body"])
                event = TraceEvent(raw["seq"], held.stamp(raw["t"]), raw["instance_id"],
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
    """Rewrite ids to first-occurrence ordinals; drop timestamps and ``cached``.

    Two runs of the same flow on the same input are equivalent iff their
    normalized traces are equal, regardless of process-level id counters,
    wall-clock times, or whether a response came from the cache.
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
    for position, event in enumerate(events, start=1):
        dropped = _ENVIRONMENT_KEYS.get(event.kind, ())
        normalized.append({
            "seq": position,
            "kind": event.kind,
            "instance_id": norm_id(event.instance_id),
            "body": walk({k: v for k, v in event.body.items() if k not in dropped}),
        })
    return normalized
