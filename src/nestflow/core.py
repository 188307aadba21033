"""Flow runtime: messages, configs, per-instance state, and the run loop.

A flow is a computational unit that holds isolated local state and
interacts with the rest of the system only through messages. Atomic
flows do work in a single step; composite flows own child instances and
route messages between them. Every flow kind registers itself in a
process-wide registry, and instances form a tree whose nodes never share
state.

Message exchange is synchronous request-reply: ``run(flow, message,
ctx)`` blocks until the flow produces its output message. The output
payload is the input payload overlaid with the flow's own outputs, so
composing flows never loses upstream keys.
"""
from __future__ import annotations

import copy
import itertools
import threading
from dataclasses import dataclass, field

from ._util import MAP, TEXT, TEXT_LIST, check_fields, utc_now_iso, validate_payload
from .backends import BackendRequest, cached_complete
from .errors import ENVIRONMENT_ERRORS, ConfigError, FlowError, MissingInputKeysError, NestflowError
from .trace import TraceSink

RESERVED_PREFIX = "_"
ROUNDS_USED_KEY = "_rounds_used"

_message_counter = itertools.count(1)
_instance_counter = itertools.count(1)


@dataclass(frozen=True, eq=False)
class Message:
    """Immutable unit of communication between flows. Messages compare by
    identity; replay compares normalized traces, not messages."""

    id: str
    created_at: str
    created_by: str
    payload: dict
    parents: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "created_at": self.created_at,
            "created_by": self.created_by,
            "payload": self.payload,
            "parents": list(self.parents),
        }


def _message(message_id: str, payload: dict, created_by: str,
             parents: tuple[str, ...]) -> Message:
    return Message(id=message_id, created_at=utc_now_iso(), created_by=created_by,
                   payload=validate_payload(payload), parents=tuple(parents))


def package_input(payload: dict, created_by: str = "caller",
                  parents: tuple[str, ...] = ()) -> Message:
    """Wrap a plain payload map as a root input message."""
    return _message(f"g{next(_message_counter):06d}", payload, created_by, parents)


@dataclass(frozen=True)
class FlowConfig:
    """Declarative description of a flow: kind, key contracts, parameters.

    Composite kinds nest child configs inside ``params``. Configs are
    value objects; building twice from the same config yields independent
    instances.
    """

    name: str
    kind: str
    input_keys: tuple[str, ...] = ()
    output_keys: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    # What each field of a config map must hold, where it is given.
    _FIELDS = {"name": TEXT, "kind": TEXT, "input_keys": TEXT_LIST, "output_keys": TEXT_LIST,
               "params": MAP}

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("flow config needs a non-empty name")
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigError(f"flow config {self.name!r} needs a kind")
        for attr in ("input_keys", "output_keys"):
            keys = getattr(self, attr)
            if len(set(keys)) != len(keys):
                raise ConfigError(f"flow config {self.name!r} has duplicate {attr}")
            for key in keys:
                if not isinstance(key, str) or not key:
                    raise ConfigError(f"flow config {self.name!r} has invalid {attr} entry {key!r}")
                if key.startswith(RESERVED_PREFIX):
                    raise ConfigError(
                        f"flow config {self.name!r} declares reserved key {key!r}; "
                        f"keys starting with {RESERVED_PREFIX!r} are runtime annotations")

    @classmethod
    def from_dict(cls, doc: dict) -> "FlowConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"flow config must be a map, got {type(doc).__name__}")
        name, kind = doc.get("name"), doc.get("kind")
        named = isinstance(name, str) and isinstance(kind, str)
        check_fields(doc, cls._FIELDS, f"{kind} flow {name!r}" if named else "flow config",
                     closed=True)
        return cls(
            name=doc.get("name", ""),
            kind=doc.get("kind", ""),
            input_keys=tuple(doc.get("input_keys", ())),
            output_keys=tuple(doc.get("output_keys", ())),
            params=dict(doc.get("params", {})),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "input_keys": list(self.input_keys),
            "output_keys": list(self.output_keys),
            "params": copy.deepcopy(self.params),
        }


class FlowState:
    """Key-value store owned by exactly one flow instance."""

    def __init__(self, owner: str):
        self.owner = owner
        self._store: dict = {}

    def get(self, key: str, default=None):
        return self._store.get(key, default)

    def set(self, key: str, value) -> None:
        self._store[key] = value

    def snapshot(self) -> dict:
        return copy.deepcopy(self._store)


class RunContext:
    """Per-run services: tracing, message ids, backends, response cache.

    ``cache`` is a ResponseCache or any map from request fingerprint to
    response; replay passes the responses recorded in a trace.
    """

    def __init__(self, trace=None, backends=None, cache=None):
        self.trace = trace if trace is not None else TraceSink()
        if backends is not None and hasattr(backends, "complete"):
            backends = {"default": backends}
        self.backends = dict(backends or {})
        self.cache = cache
        self._msg_counter = itertools.count(1)

    def new_message(self, payload: dict, created_by: str,
                    parents: tuple[str, ...] = ()) -> Message:
        return _message(f"m{next(self._msg_counter):06d}", payload, created_by, parents)

    def complete(self, instance_id: str, backend_name: str, request: BackendRequest) -> str:
        backend = self.backends.get(backend_name)
        if backend is None:
            raise FlowError(f"no backend named {backend_name!r} is configured",
                            instance_id=instance_id)
        fingerprint = request.fingerprint()
        self.trace.emit("backend_call", instance_id, {
            "backend": backend_name,
            "fingerprint": fingerprint,
            "request": request.to_dict(),
        })
        response, cached = cached_complete(
            backend, request, self.cache,
            on_warning=lambda msg: self.trace.emit("warning", instance_id, {"message": msg}),
            key=fingerprint)
        self.trace.emit("backend_response", instance_id, {
            "backend": backend_name,
            "fingerprint": fingerprint,
            "response": response,
            "cached": cached,
        })
        return response


# The rule of a composite's ``children`` param: its child configs, which
# FlowInstance.__init__ builds.
CHILDREN = ("a non-empty list of flow config maps",
            lambda v: isinstance(v, list) and v != [] and all(isinstance(c, dict) for c in v))


class FlowInstance:
    """Base class for runnable flows. Subclasses implement ``_step``.

    A kind declares each param it accepts once, as ``{param: rule}`` in
    ``accepted_params`` (rules as in ``_util.check_fields``), and those it
    needs in ``required_params``. Building an instance refuses a config with
    an unknown, missing or mistyped param, null included, in one ConfigError
    that begins ``<kind> flow '<name>'``; a kind reads a param it was given
    as it is. A composite's ``children`` param holds its child configs, which
    are built before the composite itself.

    ``_step`` returns either an updates map or ``(updates, extra_parents)``;
    the run loop overlays updates onto the input payload and wraps the
    result as the output message.
    """

    kind: str = ""
    accepted_params: dict = {}
    required_params: tuple[str, ...] = ()

    def __init__(self, config: FlowConfig):
        check_fields(config.params, self.accepted_params, f"{self.kind} flow {config.name!r}",
                     required=self.required_params, closed=True, what="params")
        self.config = config
        self.children = [create_flow(child) for child in config.params.get("children", ())]
        self.instance_id = f"{config.name}#{next(_instance_counter)}"
        self.state = FlowState(owner=self.instance_id)
        self._lock = threading.Lock()

    def _step(self, message: Message, ctx: RunContext):
        raise NotImplementedError


_REGISTRY: dict[str, type[FlowInstance]] = {}


def register_flow_kind(cls: type[FlowInstance]) -> type[FlowInstance]:
    """Class decorator adding a flow kind to the registry."""
    if not cls.kind:
        raise ConfigError(f"{cls.__name__} does not declare a kind")
    _REGISTRY[cls.kind] = cls
    return cls


def registered_kinds() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def create_flow(config: FlowConfig | dict) -> FlowInstance:
    """Instantiate a flow (and, recursively, its children) from a config."""
    if isinstance(config, dict):
        config = FlowConfig.from_dict(config)
    cls = _REGISTRY.get(config.kind)
    if cls is None:
        raise ConfigError(
            f"unknown flow kind {config.kind!r}; registered kinds: {', '.join(registered_kinds())}")
    return cls(config)


def run(flow: FlowInstance, message: Message, ctx: RunContext | None = None) -> Message:
    """Deliver one message to a flow and return its output message.

    Validates the input against ``input_keys`` (reporting every missing
    key), traces the exchange, and checks ``output_keys`` on the result.
    Package errors become a FlowError, except environment errors (a
    missing credential or interpreter, a failed backend request), which
    propagate unwrapped. A flow instance processes one message at a time;
    re-entrant delivery is an error rather than a deadlock.
    """
    if ctx is None:
        ctx = RunContext()
    if not flow._lock.acquire(blocking=False):
        raise FlowError("flow instance is already processing a message",
                        instance_id=flow.instance_id)
    try:
        ctx.trace.emit("flow_start", flow.instance_id,
                       {"name": flow.config.name, "kind": flow.config.kind})
        try:
            missing = [k for k in flow.config.input_keys if k not in message.payload]
            if missing:
                raise MissingInputKeysError(missing, instance_id=flow.instance_id)
            ctx.trace.emit("message_in", flow.instance_id, {"message": message.to_dict()})
            try:
                result = flow._step(message, ctx)
            except FlowError as exc:
                if exc.instance_id is None:
                    exc.instance_id = flow.instance_id
                raise
            except ENVIRONMENT_ERRORS:
                raise
            except NestflowError as exc:
                raise FlowError(str(exc), instance_id=flow.instance_id) from exc
            updates, extra_parents = result if isinstance(result, tuple) else (result, ())
            payload = {**message.payload, **updates}
            missing_out = [k for k in flow.config.output_keys if k not in payload]
            if missing_out:
                raise FlowError(f"output payload is missing declared keys: {missing_out}",
                                instance_id=flow.instance_id)
            out = ctx.new_message(payload, created_by=flow.instance_id,
                                  parents=(message.id, *extra_parents))
            ctx.trace.emit("message_out", flow.instance_id, {"message": out.to_dict()})
            return out
        finally:
            ctx.trace.emit("flow_end", flow.instance_id, {})
    finally:
        flow._lock.release()


def walk_instances(flow: FlowInstance):
    """Yield a flow and every descendant, depth-first."""
    yield flow
    for child in flow.children:
        yield from walk_instances(child)


def snapshot_states(flow: FlowInstance) -> dict[str, dict]:
    return {inst.instance_id: inst.state.snapshot() for inst in walk_instances(flow)}


@register_flow_kind
class FixedReplyFlow(FlowInstance):
    """Atomic flow that replies with configured text, ignoring the input."""

    kind = "fixed_reply"
    accepted_params = {"reply": TEXT, "output_key": TEXT}
    required_params = ("reply",)

    def _step(self, message: Message, ctx: RunContext) -> dict:
        return {self.config.params.get("output_key", "reply"): self.config.params["reply"]}
