"""Low-level helpers: canonical serialization, YAML loading, payload validation, month math."""
from __future__ import annotations

import calendar
import datetime as dt
import json
import os
from pathlib import Path

import yaml

from .errors import ConfigError

try:  # CPython's own sha256; hashlib's loads OpenSSL, about 3.5 MB more
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

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
    return _sha256(data).hexdigest()


def fingerprint(obj) -> str:
    return sha256_hex(canonical_bytes(obj))


def replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``. A reader sees the old file or the new one, never a
    torn mix, and concurrent writers each replace it whole. A failed write
    removes its temporary file. The file gets the mode ``open()`` gives,
    0666 less the umask.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_yaml(path, what: str = "file", *, error: type[Exception] = ConfigError):
    """Parse one YAML file, ``what`` it is, with libyaml when PyYAML was built with it.

    A file that cannot be read raises ``error`` as ``cannot read <what>
    <path>: ...``. A document that does not parse raises it naming the
    path, line and column, and one that is not UTF-8 names the first byte
    that is not.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
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


# Field rules for the documents the package reads: what a field must hold,
# and the check of a value.
TEXT = ("text", lambda v: isinstance(v, str))
TEXT_LIST = ("a list of text", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
MAP = ("a map", lambda v: isinstance(v, dict))
TEXT_MAP = ("a map of text to text", lambda v: isinstance(v, dict) and all(
    isinstance(k, str) and isinstance(x, str) for k, x in v.items()))
INTEGER = ("an integer", lambda v: type(v) is int)
POSITIVE_INTEGER = ("an integer of at least 1", lambda v: type(v) is int and v >= 1)
NUMBER = ("a number", lambda v: type(v) in (int, float))
POSITIVE_NUMBER = ("a positive number", lambda v: type(v) in (int, float) and v > 0)
BOOLEAN = ("a boolean", lambda v: type(v) is bool)


def _is_date(value) -> bool:
    try:
        return dt.date.fromisoformat(value) is not None
    except (TypeError, ValueError):
        return False


DATE = ("a date as YYYY-MM-DD", _is_date)


def check_fields(doc: dict, rules: dict, where: str, *, required=(), closed: bool = False,
                 what: str = "fields", error: type[Exception] = ConfigError) -> None:
    """Raise ``error``, prefixed with ``where``, if ``doc`` holds fields with
    no rule when ``closed``, lacks ``required`` ones, or holds one that breaks
    its rule in ``rules``, naming them (``what`` they are). An absent field
    breaks no rule, and null breaks every rule that does not allow it."""
    unknown = sorted(set(doc) - set(rules), key=str) if closed else []
    if unknown:
        raise error(f"{where} has unknown {what}: {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise error(f"{where} lacks required {what}: {missing}")
    for key, (kind, valid) in rules.items():
        if key in doc and not valid(doc[key]):
            raise error(f"{where}: {key!r} must be {kind}, got {json.dumps(doc[key], default=str)}")


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
