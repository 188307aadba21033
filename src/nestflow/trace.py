"""Append-only run tracing and trace normalization.

A trace is a JSONL file whose first line is a format-version header and
whose remaining lines are events, one per line, in the order they were
recorded. Events carry full message payloads and backend request/response
bodies so that a run can be re-executed from its trace alone (see
``evalharness.replay_pair``).
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from ._util import canonical_json, utc_now_iso
from .errors import NestflowError

TRACE_FORMAT_VERSION = 1

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
_TIME_KEYS = ("timestamp", "created_at", "stored_at")
# Body keys, per event kind, that describe the run's environment rather
# than its behaviour: a replay serves every response from the cache.
_ENVIRONMENT_KEYS = {"backend_response": ("cached",)}


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    timestamp: str
    instance_id: str
    kind: str
    body: dict = field(default_factory=dict)

    def to_line(self) -> str:
        return canonical_json({
            "seq": self.seq,
            "timestamp": self.timestamp,
            "instance_id": self.instance_id,
            "kind": self.kind,
            "body": self.body,
        })


class TraceSink:
    """Event sink. Assigns seq numbers and validates event kinds.

    ``TraceSink(path)`` writes the version header and then one line per
    event to ``path``, flushing on every flow_end. ``TraceSink()`` keeps
    the events in ``events`` instead.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.events: list[TraceEvent] = []
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
            self._fh.write(canonical_json({"trace_format": TRACE_FORMAT_VERSION}) + "\n")
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, kind: str, instance_id: str, body: dict | None = None) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise NestflowError(f"unknown trace event kind {kind!r}")
        with self._lock:
            self._seq += 1
            event = TraceEvent(self._seq, utc_now_iso(), instance_id, kind, body or {})
            if self._fh is None:
                self.events.append(event)
            else:
                self._fh.write(event.to_line() + "\n")
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
    """Load a trace file, checking the version header."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise NestflowError(f"trace file {path} is empty")
    header = json.loads(lines[0])
    version = header.get("trace_format")
    if version != TRACE_FORMAT_VERSION:
        raise NestflowError(f"trace file {path} has unsupported format version {version!r}")
    events = []
    for line in lines[1:]:
        raw = json.loads(line)
        events.append(TraceEvent(raw["seq"], raw["timestamp"], raw["instance_id"], raw["kind"], raw["body"]))
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

