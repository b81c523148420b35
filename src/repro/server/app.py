"""The asyncio query front door.

:class:`QueryServer` puts a socket in front of a
:class:`~repro.core.database.Database` or
:class:`~repro.shard.database.ShardedDatabase` — the ``repro serve`` CLI
command — speaking the JSON-lines protocol of
:mod:`repro.server.protocol`.  Three mechanisms turn many concurrent
clients into efficient engine work:

Admission control
    Accepted requests enter one bounded queue.  When the queue is full
    the request is rejected *immediately* with a typed
    ``AdmissionError`` response — the client backs off and retries —
    instead of piling latency onto everything already admitted.  The
    ``server.rejections`` counter records every rejection.

Batching
    One dispatcher drains the queue in arrival order, groups adjacent
    query requests that share evaluation parameters ``(n, method,
    max_cost, collect)``, and serves each group through one
    ``query_many`` call on a worker thread — concurrent clients asking
    comparable questions become one batched engine pass.
    Mutations ride the same queue (admission and shutdown cover them
    uniformly) but always run alone, in order.

Snapshot-pinned reads
    The engine pins every query to the generation current at its start
    (MVCC-lite), so a mutation arriving mid-batch never tears a
    response; queries admitted after the mutation see the new
    generation.

Graceful shutdown (:meth:`QueryServer.stop`) closes the listening
socket, lets every admitted request finish and flush its response, then
closes the connections — in-flight work is drained, never dropped.

Telemetry: responses carry the engine's ``QueryReport`` with a
``server.*`` family injected (``server.queue_seconds`` — time spent
admitted-but-waiting, ``server.batch_size``, ``server.queue_depth`` at
admission); :meth:`QueryServer.stats` exposes the server-lifetime
counters the ``stats`` op serves.
"""

from __future__ import annotations

import asyncio
import threading
import time

from ..errors import AdmissionError, EvaluationError, ReproError, ServerError
from .protocol import (
    MAX_LINE,
    OPS,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)

#: dispatcher sentinel: drain is complete, exit
_STOP = object()


class _Job:
    """One admitted request: the parsed message, the future its handler
    awaits, and the timestamps the ``server.*`` telemetry is built from."""

    __slots__ = ("message", "future", "enqueued_at", "queue_depth")

    def __init__(self, message: dict, future: "asyncio.Future") -> None:
        self.message = message
        self.future = future
        self.enqueued_at = time.perf_counter()
        self.queue_depth = 0

    def batch_key(self):
        """Requests sharing this key are served by one ``query_many``
        call; mutations never batch (``None`` key groups of one)."""
        message = self.message
        if message.get("op") != "query":
            return None
        max_cost = message.get("max_cost")
        return (
            message.get("n", 10),
            message.get("method", "auto"),
            float(max_cost) if max_cost is not None else None,
            message.get("collect", "off"),
        )


class QueryServer:
    """An asyncio JSON-lines query server over one database.

    ``database`` is a :class:`~repro.core.database.Database` or
    :class:`~repro.shard.database.ShardedDatabase` (anything with the
    shared query surface).  ``max_pending`` bounds the admission queue;
    ``batch_max`` caps how many queued requests one dispatcher pass
    serves.
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_pending: int = 64,
        batch_max: int = 16,
    ) -> None:
        if max_pending < 1:
            raise ServerError(f"max_pending must be >= 1, got {max_pending}")
        if batch_max < 1:
            raise ServerError(f"batch_max must be >= 1, got {batch_max}")
        self._database = database
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._max_pending = max_pending
        self._batch_max = batch_max
        self._queue: "asyncio.Queue[_Job | object] | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._dispatcher: "asyncio.Task | None" = None
        self._handlers: "set[asyncio.Task]" = set()
        self._stopping = False
        self._counters: dict[str, float] = {
            "server.requests": 0,
            "server.queries": 0,
            "server.mutations": 0,
            "server.rejections": 0,
            "server.batches": 0,
            "server.batched_requests": 0,
            "server.protocol_errors": 0,
            "server.connections": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher; the bound
        port (useful with ``port=0``) is in :attr:`port` afterwards."""
        if self._server is not None:
            raise ServerError("server already started")
        self._queue = asyncio.Queue(self._max_pending)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def serve_forever(self) -> None:
        """:meth:`start` (when needed) and serve until cancelled; on
        cancellation the server drains and stops gracefully."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            await self.stop()
            raise

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain every admitted
        request, flush responses, close connections (idempotent)."""
        if self._server is None:
            return
        self._stopping = True
        self._server.close()
        await self._server.wait_closed()
        # drain: everything admitted before the flag flipped is served
        await self._queue.join()
        await self._queue.put(_STOP)
        await self._dispatcher
        # handlers whose futures just resolved still need to flush their
        # responses — give them a grace window, then cancel the rest
        # (idle keep-alive connections blocked at the read)
        if self._handlers:
            _, pending = await asyncio.wait(list(self._handlers), timeout=5.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._server = None

    def stats(self) -> dict[str, float]:
        """Server-lifetime counters (the ``stats`` op's payload),
        including the database's hot-query cache family when the served
        database exposes one."""
        counters = dict(self._counters)
        if self._queue is not None:
            counters["server.queue_size"] = self._queue.qsize()
        counters["server.max_pending"] = self._max_pending
        counters["server.batch_max"] = self._batch_max
        cache_stats = getattr(self._database, "query_cache_stats", None)
        if cache_stats is not None:
            counters.update(cache_stats())
        return counters

    def _count(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._count("server.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except ValueError:
                    # StreamReader.readline re-raises its internal
                    # LimitOverrunError as ValueError when a line
                    # exceeds the transport limit (MAX_LINE): answer
                    # with the typed refusal, then drop the connection
                    # — the rest of the oversized line is unframeable.
                    self._count("server.protocol_errors")
                    too_long = ServerError(
                        f"protocol line exceeds {MAX_LINE} bytes"
                    )
                    writer.write(encode_message(error_response(None, too_long)))
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                    break
                if not line:
                    break
                response = await self._serve_line(line)
                writer.write(encode_message(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_line(self, line: bytes) -> dict:
        request_id = None
        try:
            message = decode_message(line)
            request_id = message.get("id")
            op = message.get("op")
            if op not in OPS:
                raise ServerError(f"unknown op {op!r}; expected one of {OPS}")
            validate_request(message)
            self._count("server.requests")
            if op == "ping":
                return ok_response(request_id, pong=True)
            if op == "describe":
                return ok_response(request_id, description=self._database.describe())
            if op == "stats":
                return ok_response(request_id, counters=self.stats())
            return await self._admit(message)
        except ReproError as error:
            if isinstance(error, ServerError) and not isinstance(error, AdmissionError):
                self._count("server.protocol_errors")
            return error_response(request_id, error)

    async def _admit(self, message: dict) -> dict:
        """Admission control: bounded enqueue or immediate rejection."""
        if self._stopping:
            raise ServerError("server is shutting down; not accepting requests")
        future = asyncio.get_running_loop().create_future()
        job = _Job(message, future)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._count("server.rejections")
            raise AdmissionError(
                f"admission queue full ({self._max_pending} pending); retry later"
            ) from None
        job.queue_depth = self._queue.qsize()
        return await future

    # ------------------------------------------------------------------
    # dispatching
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        queue = self._queue
        while True:
            job = await queue.get()
            if job is _STOP:
                queue.task_done()
                return
            batch = [job]
            stopping = False
            while len(batch) < self._batch_max:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    queue.task_done()
                    stopping = True
                    break
                batch.append(extra)
            # exception barrier: the dispatcher is the server's single
            # point of progress — anything escaping a batch must resolve
            # that batch's futures and mark the queue entries done, or
            # every subsequent request hangs and stop() deadlocks
            try:
                await self._run_batch(batch)
            except Exception as error:
                self._count("server.dispatch_errors")
                failure = ServerError(
                    f"internal dispatch error "
                    f"({type(error).__name__}: {error})"
                )
                for item in batch:
                    if not item.future.done():
                        item.future.set_result(
                            error_response(item.message.get("id"), failure)
                        )
            finally:
                for item in batch:
                    queue.task_done()
            if stopping:
                return

    async def _run_batch(self, batch: "list[_Job]") -> None:
        """Serve one drained batch: group adjacent compatible queries,
        one ``query_many`` per group, mutations alone in arrival order."""
        self._count("server.batches")
        self._count("server.batched_requests", len(batch))
        groups: "list[tuple[object, list[_Job]]]" = []
        for job in batch:
            key = job.batch_key()
            if key is not None and groups and groups[-1][0] == key:
                groups[-1][1].append(job)
            else:
                groups.append((key, [job]))
        for key, jobs in groups:
            if key is None:
                for job in jobs:
                    await self._run_mutation(job)
            else:
                await self._run_query_group(key, jobs)

    async def _run_query_group(self, key, jobs: "list[_Job]") -> None:
        loop = asyncio.get_running_loop()
        n, method, max_cost, collect = key
        texts = [str(job.message.get("query", "")) for job in jobs]
        dispatched = time.perf_counter()
        self._count("server.queries", len(jobs))

        def serve():
            try:
                return self._database.query_many(
                    texts, n=n, method=method, max_cost=max_cost, collect=collect
                ), None
            except ReproError as error:
                return None, error

        result_sets, batch_error = await loop.run_in_executor(None, serve)
        if batch_error is not None:
            # one bad query fails a batched call whole; re-serve each
            # request alone so the others still get their answers
            self._count("server.batch_splits")
            for job, text in zip(jobs, texts):
                await self._run_single_query(job, text, key, dispatched)
            return
        for job, result_set in zip(jobs, result_sets):
            self._finish_query(job, result_set, len(jobs), dispatched)

    async def _run_single_query(self, job: "_Job", text, key, dispatched) -> None:
        loop = asyncio.get_running_loop()
        n, method, max_cost, collect = key

        def serve():
            try:
                return self._database.query(
                    text, n=n, method=method, max_cost=max_cost, collect=collect
                ), None
            except ReproError as error:
                return None, error

        result_set, error = await loop.run_in_executor(None, serve)
        if error is not None:
            if not job.future.done():
                job.future.set_result(error_response(job.message.get("id"), error))
            return
        self._finish_query(job, result_set, 1, dispatched)

    def _finish_query(self, job: "_Job", result_set, batch_size, dispatched) -> None:
        report = result_set.report
        report.counters["server.queue_seconds"] = dispatched - job.enqueued_at
        report.counters["server.batch_size"] = batch_size
        report.counters["server.queue_depth"] = job.queue_depth
        report.counters["server.rejections"] = self._counters["server.rejections"]
        results = []
        for result in result_set:
            entry = {"root": result.root, "cost": result.cost, "label": result.label}
            shard = getattr(result, "shard", None)
            if shard is not None:
                entry["shard"] = shard
            results.append(entry)
        if not job.future.done():
            job.future.set_result(
                ok_response(
                    job.message.get("id"),
                    results=results,
                    report=report.to_dict(),
                )
            )

    async def _run_mutation(self, job: "_Job") -> None:
        loop = asyncio.get_running_loop()
        message = job.message
        op = message.get("op")
        self._count("server.mutations" if op != "count" else "server.queries")

        def serve():
            try:
                if op == "count":
                    return {"count": self._database.count_results(
                        str(message.get("query", ""))
                    )}, None
                if op == "insert":
                    report = self._database.insert_document(str(message.get("xml", "")))
                    return {"root": report.root, "generation": report.generation}, None
                if op == "delete":
                    root = message.get("root")
                    if not isinstance(root, int):
                        raise EvaluationError("delete needs an integer 'root'")
                    report = self._database.delete_document(root)
                    return {"removed_root": root, "generation": report.generation}, None
                if op == "replace":
                    root = message.get("root")
                    if not isinstance(root, int):
                        raise EvaluationError("replace needs an integer 'root'")
                    report = self._database.replace_document(
                        root, str(message.get("xml", ""))
                    )
                    return {"root": report.root, "generation": report.generation}, None
                raise ServerError(f"unroutable op {op!r}")
            except ReproError as error:
                return None, error

        payload, error = await loop.run_in_executor(None, serve)
        if job.future.done():
            return
        if error is not None:
            job.future.set_result(error_response(message.get("id"), error))
        else:
            job.future.set_result(ok_response(message.get("id"), **payload))


class ServerThread:
    """A :class:`QueryServer` on a background thread with its own event
    loop — the harness tests and benchmarks drive a live server through
    this without being async themselves.

    Use as a context manager::

        with ServerThread(database) as address:
            client = ServeClient(*address)
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0, **options) -> None:
        self._server = QueryServer(database, host, port, **options)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._startup_error: "BaseException | None" = None

    @property
    def server(self) -> QueryServer:
        return self._server

    @property
    def address(self) -> "tuple[str, int]":
        return (self._server.host, self._server.port)

    def start(self) -> "tuple[str, int]":
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-serve")
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServerError("server thread failed to start")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            self._thread = None
            error = self._startup_error
            if isinstance(error, ReproError):
                raise error
            raise ServerError(f"server failed to start: {error}") from error
        return self.address

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            try:
                self._loop.run_until_complete(self._server.start())
            except BaseException as error:
                # surfaced by start() on the launching thread — without
                # this the caller waits the full timeout and the real
                # failure (port in use, ...) goes to the excepthook
                self._startup_error = error
                return
            finally:
                self._started.set()
            self._loop.run_forever()
            # stop() was requested: drain gracefully on this loop
            self._loop.run_until_complete(self._server.stop())
        finally:
            self._loop.close()

    def stop(self) -> None:
        """Graceful shutdown, blocking until the drain completes."""
        if self._loop is None or self._thread is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:
            pass  # loop already closed (startup failed)
        self._thread.join(timeout=60)
        self._thread = None

    def __enter__(self) -> "tuple[str, int]":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
