"""Exception hierarchy for the approXQL reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """A failure inside the embedded storage engine."""


class KeyNotFoundError(StorageError, KeyError):
    """A key was requested from a store that does not contain it."""


class XMLSyntaxError(ReproError):
    """The XML parser encountered malformed input."""

    def __init__(self, message: str, position: int = -1) -> None:
        self.position = position
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class QuerySyntaxError(ReproError):
    """The approXQL parser encountered malformed input."""

    def __init__(self, message: str, position: int = -1) -> None:
        self.position = position
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class CostModelError(ReproError):
    """An invalid cost specification (negative cost, bad cost file, ...)."""


class EvaluationError(ReproError):
    """A query could not be evaluated against the given data tree."""


class SchemaError(ReproError):
    """The schema (DataGuide) is inconsistent with the data tree."""


class GenerationError(ReproError):
    """The synthetic data or query generator received invalid parameters."""


class ShardError(StorageError):
    """A sharded database's manifest and its shard stores disagree, or a
    shard-level operation could not be routed."""


class ServerError(ReproError):
    """A failure inside the query server (protocol, lifecycle)."""


class AdmissionError(ServerError):
    """The server's bounded admission queue is full; the request was
    rejected without being enqueued.  Clients should back off and retry."""
