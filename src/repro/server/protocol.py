"""The query server's wire protocol: JSON objects, one per line.

Requests and responses are UTF-8 JSON documents terminated by ``\\n`` —
trivially speakable from any language, ``netcat`` included.  A request
carries an ``op`` plus op-specific fields and an optional ``id`` the
response echoes verbatim (clients that pipeline match responses by it):

    {"id": 1, "op": "query", "query": "cd[title[\\"piano\\"]]", "n": 5}
    {"id": 1, "ok": true, "results": [{"root": 2, "cost": 0.0, "label": "cd"}],
     "report": {"method": "direct", "counters": {"server.queue_seconds": 2e-06,
     "server.queue_depth": 1, "server.rejections": 0}}}

Ops
---
``query``
    Fields: ``query`` (required), ``n`` (an integer >= 0, default 10,
    ``null`` = all), ``method`` (default ``"auto"``), ``max_cost``,
    ``collect`` (default ``"off"``).  Response: ``results`` — a list of
    ``{"root", "cost", "label"}`` objects in rank order (plus ``"shard"``
    against a sharded database) — and ``report``.  Under ``collect="off"``
    the report is ``{"method", "counters"}``: the method that ran and the
    counters every mode carries (a sharded database's ``shard.*``) with
    the ``server.*`` counters injected.  Under ``"counters"`` or
    ``"timings"`` it is the
    :meth:`~repro.telemetry.report.QueryReport.to_dict` rendering, with
    the ``server.*`` counters injected.
``count``
    Fields: ``query``.  Response: ``count``.
``insert`` / ``delete`` / ``replace``
    Fields: ``xml`` and/or ``root``.  Response: ``root`` (the new
    document's root for insert/replace), ``generation``.
``describe`` / ``stats`` / ``ping``
    No fields.  ``describe`` returns the database summary, ``stats`` the
    server's lifetime counters, ``ping`` just answers (liveness).

Every response carries ``ok``: ``true`` with the op's payload, or
``false`` with ``error = {"type", "message"}`` where ``type`` is the
:mod:`repro.errors` class name (``AdmissionError`` for queue-full
rejections — clients should back off and retry).  The door
(:func:`validate_request`) refuses an unknown op, a field of the wrong
type and — with the library's own :class:`~repro.errors.EvaluationError`
— an unknown ``method`` or ``collect`` or a NaN ``max_cost``, before the
request is admitted.  A line the server cannot frame (over
:data:`MAX_LINE`) or parse, and a request whose ``id`` holds NaN or
Infinity, is answered with ``"id": null``: responses are strict JSON.
"""

from __future__ import annotations

import json

from .. import errors as _errors
from ..core.pipeline import validate
from ..errors import ReproError, ServerError
from ..telemetry.collector import MODE_OFF

#: longest accepted request/response line (bytes, newline included)
MAX_LINE = 4 * 1024 * 1024

#: ops the server accepts
OPS = ("query", "count", "insert", "delete", "replace", "describe", "stats", "ping")


#: the one encoder of every line: ``json.dumps(payload, separators=(",", ":"))``
#: builds an identical encoder per call
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: refuses NaN and Infinity, which strict JSON cannot carry
_STRICT_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode_message(payload: dict) -> bytes:
    """One protocol line: compact JSON plus the terminating newline."""
    return _ENCODER.encode(payload).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one protocol line into a message dict (typed error on
    anything that is not a JSON object)."""
    if len(line) > MAX_LINE:
        raise ServerError(f"protocol line exceeds {MAX_LINE} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers invalid UTF-8, invalid JSON and integers past
        # the interpreter's digit limit; RecursionError too deep a nesting
        raise ServerError(f"malformed protocol line ({error})") from error
    if not isinstance(message, dict):
        raise ServerError("protocol line must be a JSON object")
    return message


def echo_id(message: dict):
    """The request's ``id``, to be echoed verbatim: typed
    :class:`~repro.errors.ServerError` when it holds NaN or Infinity,
    which a strict JSON reader could not take back."""
    value = message.get("id")
    if value is None or type(value) is int or type(value) is str:
        return value
    try:
        _STRICT_ENCODER.encode(value)
    except (ValueError, RecursionError) as error:
        raise ServerError(f"'id' cannot be echoed as strict JSON ({error})") from error
    return value


def validate_request(message: dict) -> None:
    """Check a request's op and its op-specific fields before it is
    admitted: a typed :class:`~repro.errors.ServerError` on an unknown op
    or the first field of the wrong type, then the library's own query
    argument checks (:func:`repro.core.pipeline.validate`, a typed
    :class:`~repro.errors.EvaluationError`) on the values of ``n``,
    ``method``, ``collect`` and ``max_cost``.

    A malformed field must be refused at the door: past admission the
    request holds the engine lock, where a surprise ``TypeError`` would
    cost far more than one rejected message.
    """
    op = message.get("op")
    if op not in OPS:
        raise ServerError(f"unknown op {op!r}; expected one of {OPS}")
    if op in ("query", "count"):
        query = message.get("query")
        if not isinstance(query, str):
            raise ServerError(
                f"'query' must be a string, got {type(query).__name__}"
            )
    if op == "query":
        n = message.get("n", 10)
        if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
            raise ServerError(f"'n' must be an integer >= 0 or null, got {n!r}")
        max_cost = message.get("max_cost")
        if max_cost is not None and (
            isinstance(max_cost, bool) or not isinstance(max_cost, (int, float))
        ):
            raise ServerError(f"'max_cost' must be a number or null, got {max_cost!r}")
        for field in ("method", "collect"):
            value = message.get(field)
            if value is not None and not isinstance(value, str):
                raise ServerError(f"'{field}' must be a string, got {value!r}")
        validate(
            message.get("method", "auto"), message.get("collect", MODE_OFF), n, max_cost
        )
    if op in ("insert", "replace"):
        xml = message.get("xml")
        if not isinstance(xml, str):
            raise ServerError(f"'xml' must be a string, got {type(xml).__name__}")
    if op in ("delete", "replace"):
        root = message.get("root")
        if isinstance(root, bool) or not isinstance(root, int):
            raise ServerError(f"'root' must be an integer, got {root!r}")


def error_response(request_id, error: BaseException) -> dict:
    """The failure response for ``error``, typed by class name."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


def ok_response(request_id, **payload) -> dict:
    """A success response carrying ``payload``."""
    response = {"id": request_id, "ok": True}
    response.update(payload)
    return response


def raise_error_payload(error: dict) -> None:
    """Client side: re-raise a response's error as the library exception
    it was on the server (unknown names degrade to
    :class:`~repro.errors.ServerError`)."""
    name = str(error.get("type", "ServerError"))
    message = str(error.get("message", "server error"))
    exception_type = getattr(_errors, name, None)
    if not (
        isinstance(exception_type, type) and issubclass(exception_type, ReproError)
    ):
        exception_type = ServerError
    raise exception_type(message)
