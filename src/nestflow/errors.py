"""Exception types shared across the package.

Flow failures carry the originating instance id plus structured details;
composites annotate the same exception with step/round context as it
propagates, so the original origin is never lost.
"""
from __future__ import annotations


class NestflowError(Exception):
    """Base class for all package errors."""


class ConfigError(NestflowError):
    """A flow configuration is malformed: unknown kind, bad params, reserved keys."""


class TemplateError(NestflowError):
    """A prompt template references variables that are missing or not renderable."""


class FlowError(NestflowError):
    """A flow run failed.

    ``instance_id`` names the instance where the failure originated and
    ``details`` accumulates context (step index, round, role) while the
    error propagates through enclosing composites.
    """

    def __init__(self, message: str, *, instance_id: str | None = None, details: dict | None = None):
        super().__init__(message)
        self.instance_id = instance_id
        self.details = dict(details or {})

    def annotate(self, **context) -> "FlowError":
        for key, value in context.items():
            self.details.setdefault(key, value)
        return self

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        parts = []
        if self.instance_id:
            parts.append(f"instance={self.instance_id}")
        parts.extend(f"{k}={v}" for k, v in self.details.items())
        return f"{base} [{', '.join(parts)}]" if parts else base


class MissingInputKeysError(FlowError):
    """An input message lacks keys the flow declared in input_keys."""

    def __init__(self, missing: list[str], *, instance_id: str | None = None):
        super().__init__(f"input message is missing required keys: {sorted(missing)}", instance_id=instance_id)
        self.missing = sorted(missing)


class MalformedCompletionError(FlowError):
    """A completion did not contain the expected structured reply."""


class BackendError(NestflowError):
    """Base class for completion backend failures."""


class AuthError(BackendError):
    """Authentication was rejected; retrying cannot help."""


class TransientBackendError(BackendError):
    """A retryable backend failure (rate limit, server error, network)."""


class RetryBudgetExhaustedError(BackendError):
    """All retry attempts for one request failed."""


class ScriptExhaustedError(BackendError):
    """A scripted backend had no response left (or no rule matched) for a request."""


class ReplayDivergenceError(BackendError):
    """A replayed run issued a request that the recorded trace never saw."""


class SandboxEnvironmentError(NestflowError):
    """The sandbox cannot run at all: missing interpreter."""


class DatasetError(NestflowError):
    """A problem document is malformed or violates dataset invariants."""


# Failures of the machine rather than of a run: they abort with exit code 3
# instead of being recorded as an unsolved outcome, so resume runs the pair again.
ENVIRONMENT_ERRORS = (AuthError, TransientBackendError, RetryBudgetExhaustedError,
                      SandboxEnvironmentError)
