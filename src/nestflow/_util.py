"""Low-level helpers: canonical serialization, YAML loading, payload validation, month math."""
from __future__ import annotations

import calendar
import datetime as dt
import hashlib
import json
import os
import tempfile
from pathlib import Path

import yaml

from .errors import ConfigError

# Payload values form a closed set: text, number, boolean, list, map.
_SCALARS = (str, bool, int, float)


def canonical_json(obj) -> str:
    """Canonical text form used for hashing, equality and trace files.

    Sorted keys, no whitespace, ASCII escapes. Equal structures always
    serialize to equal bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(obj) -> str:
    return sha256_hex(canonical_bytes(obj))


def replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``. A reader sees the old file or the new one, never a
    torn mix, and concurrent writers each replace it whole. A failed write
    removes its temporary file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_yaml(path, *, error: type[Exception] = ConfigError):
    """Parse one YAML file, with libyaml when PyYAML was built with it.

    A document that does not parse raises ``error`` naming the path, line
    and column, and one that is not UTF-8 names the first byte that is not.
    A file that cannot be read raises OSError, for the caller to word.
    """
    data = Path(path).read_bytes()
    try:
        # Newlines translated as a text-mode read would.
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 at byte {exc.start}") from None
    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.reader.ReaderError as exc:
        # An unacceptable character. Its reported offset counts UTF-8 bytes
        # under libyaml and characters otherwise, so find it here.
        offset = yaml.reader.Reader.NON_PRINTABLE.search(text).start()
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        problem = exc.reason
    except yaml.MarkedYAMLError as exc:
        line, column = exc.problem_mark.line + 1, exc.problem_mark.column + 1
        problem = exc.problem
    raise error(f"{path}: invalid YAML at line {line}, column {column}: {problem}")


def validate_payload(payload, *, where: str = "payload") -> dict:
    """Validate a payload map against the closed value set and deep-copy it."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a map, got {type(payload).__name__}")
    return _copy_map(payload, where)


def _copy_map(mapping: dict, where: str) -> dict:
    out = {}
    for key, value in mapping.items():
        if not isinstance(key, str) or not key:
            raise ConfigError(f"{where} keys must be non-empty strings, got {key!r}")
        out[key] = _copy_value(value, f"{where}.{key}")
    return out


def _copy_value(value, where: str):
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_copy_value(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        return _copy_map(value, where)
    raise ConfigError(f"{where} has unsupported value type {type(value).__name__}")


def utc_now_iso() -> str:
    return dt.datetime.now(dt.timezone.utc).isoformat()


def add_months(day: dt.date, months: int) -> dt.date:
    """Shift a date by whole months, clamping the day to the target month."""
    index = day.year * 12 + (day.month - 1) + months
    year, month = divmod(index, 12)
    month += 1
    last = calendar.monthrange(year, month)[1]
    return dt.date(year, month, min(day.day, last))


def month_floor(day: dt.date) -> dt.date:
    return day.replace(day=1)
