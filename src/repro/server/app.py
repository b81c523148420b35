"""The threaded query front door.

:class:`QueryServer` puts a socket in front of a
:class:`~repro.core.database.Database` or
:class:`~repro.shard.database.ShardedDatabase` — the ``repro serve`` CLI
command — speaking the JSON-lines protocol of
:mod:`repro.server.protocol`.  Each connection has one thread, which
reads a request line, checks it, runs it and writes the response itself:
no queue and no hand-off between threads.

Admission control
    A request that needs the engine (``query``, ``count``, mutations) is
    admitted while at most ``max_pending`` others are admitted and not
    yet answered — one running, the rest waiting.  Beyond that it is
    refused *immediately* with a typed ``AdmissionError`` — the client
    backs off and retries — instead of piling latency onto everything
    already admitted.  The ``server.rejections`` counter records every
    refusal.

The engine lock
    Admitted requests run one at a time under one lock, so one
    evaluation's memory is live at a time and one insert-cost table is
    encoded at a time (``docs/CONCURRENCY.md``).  ``ping``, ``describe``
    and ``stats`` never take it: the server stays observable while a long
    query runs.

Snapshot-pinned reads
    The engine pins every query to the generation current at its start
    (MVCC-lite), so a mutation never tears a response.

Graceful shutdown (:meth:`QueryServer.stop`) closes the listening
socket, lets every request in flight finish and flush its response,
refuses new work with a typed error and closes idle connections —
in-flight work is drained, never dropped.

Telemetry: query responses carry a report with a ``server.*`` family
injected (``server.queue_seconds`` — admission until the engine lock is
held, ``server.queue_depth`` — requests admitted and not yet answered,
this one included, ``server.rejections``).  The full ``QueryReport`` is
rendered only when the request's ``collect`` asks for it; under
``collect="off"`` the report is the method and the counters
(:mod:`repro.server.protocol`).  :meth:`QueryServer.stats` exposes the
server-lifetime counters the ``stats`` op serves; a request refused at
the door counts in ``server.protocol_errors`` and nowhere else.
"""

from __future__ import annotations

import socket
import threading
import time

from ..errors import AdmissionError, ReproError, ServerError
from ..telemetry.collector import MODE_OFF
from .protocol import (
    MAX_LINE,
    decode_message,
    echo_id,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)


class QueryServer:
    """A threaded JSON-lines query server over one database.

    ``database`` is a :class:`~repro.core.database.Database` or
    :class:`~repro.shard.database.ShardedDatabase` (anything with the
    shared query surface).  ``max_pending`` bounds how many admitted
    requests may wait for the engine behind the one running.
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 64,
    ) -> None:
        if max_pending < 1:
            raise ServerError(f"max_pending must be >= 1, got {max_pending}")
        self._database = database
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._max_pending = max_pending
        self._listener: "socket.socket | None" = None
        self._acceptor: "threading.Thread | None" = None
        #: held by every engine call; never by ping / describe / stats
        self._engine = threading.Lock()
        #: guards the counters, the in-flight count and the connections
        self._state = threading.Lock()
        self._in_flight = 0
        self._connections: "dict[socket.socket, threading.Thread]" = {}
        self._busy: "set[socket.socket]" = set()
        self._stopping = False
        self._counters: dict[str, float] = {
            "server.requests": 0,
            "server.queries": 0,
            "server.mutations": 0,
            "server.rejections": 0,
            "server.protocol_errors": 0,
            "server.dispatch_errors": 0,
            "server.connections": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open(self) -> None:
        """Bind the listening socket and start accepting; the bound port
        (useful with ``port=0``) is in :attr:`port` afterwards."""
        if self._listener is not None:
            raise ServerError("server already started")
        try:
            listener = socket.create_server((self.host, self.port))
        except OSError as error:
            raise ServerError(f"server failed to start: {error}") from error
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._stopping = False
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(listener,), name="repro-serve-accept", daemon=True
        )
        self._acceptor.start()

    def close(self) -> None:
        """Graceful shutdown: stop accepting, let every request in flight
        finish and flush, close idle connections (idempotent)."""
        with self._state:
            listener, self._listener = self._listener, None
            if listener is None:
                return
            self._stopping = True
        # shutdown() wakes the accept() blocked on the listener at once
        try:
            listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        listener.close()
        self._acceptor.join()
        with self._state:
            idle = [c for c in self._connections if c not in self._busy]
            threads = list(self._connections.values())
        # an idle connection's blocked read returns end-of-file; a busy
        # one answers its request, sees the flag and closes itself
        for connection in idle:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in threads:
            thread.join()

    async def start(self) -> None:
        """:meth:`open`, for asyncio callers (binding does not block)."""
        self.open()

    async def stop(self) -> None:
        """:meth:`close`, for asyncio callers; returns once drained."""
        self.close()

    def serve_forever(self) -> None:
        """:meth:`open` (when needed) and serve until :meth:`close` runs
        on another thread or the caller is interrupted (Ctrl-C), in which
        case this drains the server before the interrupt propagates."""
        if self._listener is None:
            self.open()
        try:
            self._acceptor.join()
        finally:
            self.close()

    def stats(self) -> dict[str, float]:
        """Server-lifetime counters (the ``stats`` op's payload),
        including the database's hot-query cache family when the served
        database exposes one."""
        with self._state:
            counters = dict(self._counters)
            counters["server.queue_depth"] = self._in_flight
        counters["server.max_pending"] = self._max_pending
        cache_stats = getattr(self._database, "query_cache_stats", None)
        if cache_stats is not None:
            counters.update(cache_stats())
        return counters

    def _count(self, name: str) -> None:
        with self._state:
            self._counters[name] += 1

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                if self._stopping:
                    return
                continue  # the peer gave up before the accept
            thread = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="repro-serve-connection",
                daemon=True,
            )
            with self._state:
                self._connections[connection] = thread
            self._count("server.connections")
            thread.start()

    def _serve_connection(self, connection: socket.socket) -> None:
        reader = connection.makefile("rb")
        try:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stopping:
                line = reader.readline(MAX_LINE + 1)
                if len(line) > MAX_LINE:
                    # read the rest of the line before answering: closing
                    # with input unread would reset the connection and
                    # lose the answer; the stream past it is unframeable
                    self._count("server.protocol_errors")
                    while line and not line.endswith(b"\n"):
                        line = reader.readline(MAX_LINE)
                    too_long = ServerError(f"protocol line exceeds {MAX_LINE} bytes")
                    connection.sendall(encode_message(error_response(None, too_long)))
                    break
                if not line:
                    break
                with self._state:
                    self._busy.add(connection)
                try:
                    connection.sendall(encode_message(self._serve_line(line)))
                finally:
                    with self._state:
                        self._busy.discard(connection)
        except OSError:
            pass  # the peer went away
        finally:
            with self._state:
                self._connections.pop(connection, None)
            reader.close()
            connection.close()

    def _serve_line(self, line: bytes) -> dict:
        request_id = None
        try:
            try:
                message = decode_message(line)
                request_id = echo_id(message)
                validate_request(message)
            except ReproError:
                self._count("server.protocol_errors")
                raise
            self._count("server.requests")
            op = message["op"]
            if op == "ping":
                return ok_response(request_id, pong=True)
            if op == "describe":
                return ok_response(request_id, description=self._database.describe())
            if op == "stats":
                return ok_response(request_id, counters=self.stats())
            return self._admit(message)
        except ReproError as error:
            return error_response(request_id, error)
        except Exception as error:
            # the exception barrier: an unexpected engine failure answers
            # its own request and the connection keeps serving
            self._count("server.dispatch_errors")
            failure = ServerError(
                f"internal dispatch error ({type(error).__name__}: {error})"
            )
            return error_response(request_id, failure)

    # ------------------------------------------------------------------
    # admission and the engine
    # ------------------------------------------------------------------

    def _admit(self, message: dict) -> dict:
        """Admission control, then one engine call under the lock."""
        with self._state:
            if self._stopping:
                raise ServerError("server is shutting down; not accepting requests")
            if self._in_flight > self._max_pending:
                self._counters["server.rejections"] += 1
                raise AdmissionError(
                    f"admission queue full ({self._max_pending} pending); retry later"
                )
            self._in_flight += 1
            queue_depth = self._in_flight
        admitted = time.perf_counter()
        try:
            with self._engine:
                queue_seconds = time.perf_counter() - admitted
                answer = self._call_engine(message)
        finally:
            with self._state:
                self._in_flight -= 1
        request_id = message.get("id")
        if isinstance(answer, dict):
            return ok_response(request_id, **answer)
        report = answer.report
        counters = report.counters
        counters["server.queue_seconds"] = queue_seconds
        counters["server.queue_depth"] = queue_depth
        counters["server.rejections"] = self._counters["server.rejections"]
        results = []
        for result in answer:
            entry = {"root": result.root, "cost": result.cost, "label": result.label}
            shard = getattr(result, "shard", None)
            if shard is not None:
                entry["shard"] = shard
            results.append(entry)
        if report.collect == MODE_OFF:
            # the client asked for no report: name the method, pass the
            # counters every mode carries, and skip the rendering
            rendered = {"method": report.method, "counters": counters}
        else:
            rendered = report.to_dict()
        return ok_response(request_id, results=results, report=rendered)

    def _call_engine(self, message: dict):
        """A query's :class:`~repro.core.results.ResultSet`, or the
        payload of any other admitted op (fields already validated)."""
        database, op = self._database, message["op"]
        if op == "query":
            self._count("server.queries")
            return database.query(
                message["query"],
                n=message.get("n", 10),
                method=message.get("method", "auto"),
                max_cost=message.get("max_cost"),
                collect=message.get("collect", "off"),
            )
        if op == "count":
            self._count("server.queries")
            return {"count": database.count_results(message["query"])}
        self._count("server.mutations")
        if op == "insert":
            report = database.insert_document(message["xml"])
            return {"root": report.root, "generation": report.generation}
        if op == "delete":
            report = database.delete_document(message["root"])
            return {"removed_root": message["root"], "generation": report.generation}
        report = database.replace_document(message["root"], message["xml"])
        return {"root": report.root, "generation": report.generation}


class ServerThread:
    """A :class:`QueryServer` for callers that are not async — the
    harness tests and benchmarks drive a live server through this.  The
    server runs on its own threads; the caller's thread stays free.

    Use as a context manager::

        with ServerThread(database) as address:
            client = ServeClient(*address)
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0, **options) -> None:
        self.server = QueryServer(database, host, port, **options)

    @property
    def address(self) -> "tuple[str, int]":
        return (self.server.host, self.server.port)

    def start(self) -> "tuple[str, int]":
        """Start serving; returns the bound ``(host, port)``."""
        self.server.open()
        return self.address

    def stop(self) -> None:
        """Graceful shutdown, blocking until the drain completes."""
        self.server.close()

    def __enter__(self) -> "tuple[str, int]":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
