"""A small synchronous client for the query server.

:class:`ServeClient` speaks the JSON-lines protocol over one TCP
connection — requests are serial per client; concurrency comes from
opening more clients (each server connection is handled independently).
Server-side errors re-raise as the :mod:`repro.errors` exception they
were on the server, so ``except AdmissionError`` works across the wire
exactly as it does in-process.
"""

from __future__ import annotations

import itertools
import socket

from ..errors import ServerError
from .protocol import decode_message, encode_message, raise_error_payload


class ServeClient:
    """One connection to a :class:`~repro.server.app.QueryServer`."""

    def __init__(self, host: str, port: int, timeout: "float | None" = 30.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._file = self._socket.makefile("rwb")
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def request(self, op: str, **fields) -> dict:
        """Send one request, wait for its response, return the payload
        (raising the server's typed error on ``ok: false``)."""
        request_id = next(self._ids)
        message = {"id": request_id, "op": op}
        message.update(fields)
        self._file.write(encode_message(message))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServerError("server closed the connection")
        response = decode_message(line)
        if not response.get("ok") and response.get("id") is None:
            # the server could not read this request's id (an oversized
            # line): its error is the answer to this request
            raise_error_payload(response.get("error", {}))
        if response.get("id") != request_id:
            raise ServerError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}"
            )
        if not response.get("ok"):
            raise_error_payload(response.get("error", {}))
        return response

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------

    def query(
        self,
        text: str,
        n: "int | None" = 10,
        method: str = "auto",
        max_cost: "float | None" = None,
        collect: str = "off",
    ) -> dict:
        """The ``query`` op; the response dict carries ``results`` (rank
        order ``{"root", "cost", "label"[, "shard"]}``) and ``report``
        (``{"method", "counters"}`` under ``collect="off"``, the full
        report rendering otherwise)."""
        return self.request(
            "query", query=text, n=n, method=method, max_cost=max_cost, collect=collect
        )

    def count(self, text: str) -> int:
        return int(self.request("count", query=text)["count"])

    def insert(self, xml: str) -> dict:
        return self.request("insert", xml=xml)

    def delete(self, root: int) -> dict:
        return self.request("delete", root=root)

    def replace(self, root: int, xml: str) -> dict:
        return self.request("replace", root=root, xml=xml)

    def describe(self) -> str:
        return str(self.request("describe")["description"])

    def stats(self) -> dict:
        return self.request("stats")["counters"]

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
