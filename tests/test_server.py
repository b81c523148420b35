"""Tests for the threaded query front door.

The server is driven end to end over real TCP sockets via
:class:`~repro.server.ServerThread` (the server on its own threads) and
:class:`~repro.server.ServeClient`.  The load test is the
acceptance gate: at least 8 concurrent reader clients against a sharded
database with a live mutating writer, zero divergences after quiesce,
and a clean graceful shutdown.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.core.database import Database
from repro.errors import AdmissionError, EvaluationError, QuerySyntaxError, ServerError
from repro.server import MAX_LINE, ServeClient, ServerThread
from repro.shard import ShardedDatabase

from .strategies import generated_case

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
  <cd><title>cello sonata</title><composer>chopin</composer></cd>
</catalog>
"""

LIBRARY = """
<library>
  <book><title>piano technique</title><author>neuhaus</author></book>
</library>
"""

NEW_DOC = "<catalog><cd><title>nocturnes</title><composer>field</composer></cd></catalog>"

QUERIES = ["title", 'cd[title["piano"]]', "book", "composer"]


def _sharded():
    return ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------


def test_round_trip_over_the_wire():
    database = _sharded()
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            assert client.ping()
            assert "2 shards" in client.describe()
            response = client.query('cd[title["piano"]]', n=5)
            expected = [
                (r.cost, r.root) for r in database.query('cd[title["piano"]]', n=5)
            ]
            got = [(r["cost"], r["root"]) for r in response["results"]]
            assert got == expected
            assert all("shard" in r for r in response["results"])
            report = response["report"]
            assert "server.queue_seconds" in report["counters"]
            assert report["counters"]["server.queue_depth"] == 1
            assert "server.batch_size" not in report["counters"]
            assert report["counters"]["shard.fanout"] == 2
    database.close()


def test_works_over_plain_database_too():
    database = Database.from_xml(CATALOG)
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            response = client.query("title", n=3)
            expected = [(r.cost, r.root) for r in database.query("title", n=3)]
            assert [(r["cost"], r["root"]) for r in response["results"]] == expected
            assert client.count("title") == database.count_results("title")


def test_mutations_over_the_wire():
    database = _sharded()
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            before = database.documents()
            inserted = client.insert(NEW_DOC)
            assert inserted["root"] not in before
            assert inserted["root"] in database.documents()
            client.delete(inserted["root"])
            assert database.documents() == before
    database.close()


def test_typed_errors_cross_the_wire():
    database = _sharded()
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            with pytest.raises(QuerySyntaxError):
                client.query("cd[")
            with pytest.raises(EvaluationError):
                client.delete(99999)
            with pytest.raises(ServerError):
                client.request("frobnicate")
    database.close()


def test_malformed_line_gets_protocol_error():
    database = Database.from_xml(CATALOG)
    with ServerThread(database) as (host, port):
        with socket.create_connection((host, port), timeout=10) as raw:
            handle = raw.makefile("rwb")
            handle.write(b"this is not json\n")
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ServerError"
        stats_client = ServeClient(host, port)
        assert stats_client.stats()["server.protocol_errors"] >= 1
        stats_client.close()


def test_stats_counters_accumulate():
    database = _sharded()
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            for query in QUERIES:
                client.query(query, n=3)
            counters = client.stats()
            assert counters["server.queries"] == len(QUERIES)
            # the stats request itself is counted before it answers
            assert counters["server.requests"] == len(QUERIES) + 1
            assert counters["server.queue_depth"] == 0
            assert counters["server.rejections"] == 0
            assert "server.batches" not in counters
    database.close()


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


def _gate_queries(database):
    """Make ``database.query`` wait for the returned ``gate`` event;
    ``entered`` is set once a query is inside."""
    gate = threading.Event()
    entered = threading.Event()
    original = database.query

    def gated_query(*args, **kwargs):
        entered.set()
        assert gate.wait(30), "test gate never opened"
        return original(*args, **kwargs)

    database.query = gated_query
    return gate, entered


def _wait_in_flight(server, count):
    deadline = time.time() + 30
    while server.stats()["server.queue_depth"] < count:
        assert time.time() < deadline, "requests never reached the server"
        time.sleep(0.01)


def test_queue_full_rejects_with_admission_error():
    database = Database.from_xml(CATALOG)
    gate, entered = _gate_queries(database)
    server_thread = ServerThread(database, max_pending=1)
    with server_thread as (host, port):
        outcomes = []

        def blocked_query():
            with ServeClient(host, port) as client:
                outcomes.append(client.query("title", n=1)["results"])

        # A is admitted and holds the engine lock (it blocks on the gate
        # inside query), B is admitted and waits for the lock, C must
        # then bounce with a typed AdmissionError.
        worker_a = threading.Thread(target=blocked_query)
        worker_a.start()
        assert entered.wait(30)
        worker_b = threading.Thread(target=blocked_query)
        worker_b.start()
        _wait_in_flight(server_thread.server, 2)
        with ServeClient(host, port) as client:
            with pytest.raises(AdmissionError):
                client.query("title", n=1)
            counters = client.stats()
            assert counters["server.rejections"] == 1
        gate.set()
        worker_a.join(timeout=30)
        worker_b.join(timeout=30)
        assert len(outcomes) == 2
        # served queries record the lifetime rejection count (satellite
        # telemetry for `query --stats` via the server)
        with ServeClient(host, port) as client:
            report = client.query("title", n=1)["report"]
            assert report["counters"]["server.rejections"] == 1


# ----------------------------------------------------------------------
# concurrent load with a live writer (acceptance gate)
# ----------------------------------------------------------------------


def _handle(kind, tmp_path):
    """A memory, a stored or a 2-shard handle over CATALOG and LIBRARY."""
    if kind == "sharded":
        return _sharded()
    database = Database.from_documents([CATALOG, LIBRARY])
    if kind == "memory":
        return database
    path = str(tmp_path / "served.apxq")
    database.save(path)
    return Database.open(path)


@pytest.mark.parametrize("kind", ["memory", "stored", "sharded"])
def test_concurrent_clients_with_live_writer(kind, tmp_path):
    database = _handle(kind, tmp_path)
    errors = []
    divergences = []
    mutations = []
    stop_writer = threading.Event()

    def reader(worker: int):
        try:
            with ServeClient(*address) as client:
                for round_number in range(12):
                    query = QUERIES[(worker + round_number) % len(QUERIES)]
                    response = client.query(query, n=5)
                    costs = [r["cost"] for r in response["results"]]
                    if costs != sorted(costs):
                        divergences.append((query, costs))
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    def writer():
        try:
            with ServeClient(*address) as client:
                inserted = []
                while not stop_writer.is_set() or len(mutations) < 3:
                    inserted.append(client.insert(NEW_DOC)["root"])
                    mutations.append("insert")
                    if len(inserted) >= 3:
                        client.delete(inserted.pop(0))
                        mutations.append("delete")
                    time.sleep(0.002)
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    # a short switch interval makes the connection threads interleave
    # inside the server's counter and in-flight bookkeeping
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServerThread(database, max_pending=256) as address:
            writer_thread = threading.Thread(target=writer)
            reader_threads = [
                threading.Thread(target=reader, args=(worker,)) for worker in range(8)
            ]
            writer_thread.start()
            for thread in reader_threads:
                thread.start()
            for thread in reader_threads:
                thread.join(timeout=120)
            stop_writer.set()
            writer_thread.join(timeout=60)
            assert not any(t.is_alive() for t in reader_threads + [writer_thread])

            assert not errors, errors
            assert not divergences, divergences

            # quiesced: the server's answers must now equal direct queries
            with ServeClient(*address) as client:
                for query in QUERIES:
                    response = client.query(query, n=None)
                    expected = [
                        (r.cost, r.root) for r in database.query(query, n=None)
                    ]
                    got = [(r["cost"], r["root"]) for r in response["results"]]
                    assert got == expected, query
                counters = client.stats()
            # no update to the shared bookkeeping was lost
            assert counters["server.queries"] == 8 * 12 + len(QUERIES)
            assert counters["server.mutations"] == len(mutations)
            assert counters["server.queue_depth"] == 0
    finally:
        sys.setswitchinterval(interval)
    database.close()


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------


def test_graceful_shutdown_drains_and_rejects_new_work():
    database = _sharded()
    server_thread = ServerThread(database)
    host, port = server_thread.start()
    with ServeClient(host, port) as client:
        assert client.ping()
    server_thread.stop()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=2)
    # idempotent
    server_thread.stop()
    database.close()


def test_inline_ops_answer_while_a_query_holds_the_engine_and_stop_drains_it():
    database = Database.from_xml(CATALOG)
    expected = [(r.cost, r.root) for r in database.query("title", n=3)]
    gate, entered = _gate_queries(database)
    server_thread = ServerThread(database)
    host, port = server_thread.start()
    responses = []

    def gated_client():
        with ServeClient(host, port) as client:
            responses.append(client.query("title", n=3))

    worker = threading.Thread(target=gated_client)
    worker.start()
    assert entered.wait(30)
    # the query holds the engine lock; liveness and introspection do not
    # wait for it
    with ServeClient(host, port, timeout=5) as client:
        assert client.ping()
        assert client.stats()["server.queue_depth"] == 1
        assert "data nodes" in client.describe()
    # an engine call waits for the lock, and the drain waits for both
    counts = []

    def count_client():
        with ServeClient(host, port) as client:
            counts.append(client.count("title"))

    counter = threading.Thread(target=count_client)
    counter.start()
    _wait_in_flight(server_thread.server, 2)
    stopper = threading.Thread(target=server_thread.stop)
    stopper.start()
    stopper.join(timeout=0.2)
    assert counter.is_alive(), "count ran beside the query holding the engine"
    assert stopper.is_alive(), "stop() returned before the requests in flight finished"
    gate.set()
    for thread in (stopper, worker, counter):
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert [(r["cost"], r["root"]) for r in responses[0]["results"]] == expected
    assert counts == [database.count_results("title")]
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=2)


def test_oversize_line_is_refused():
    database = Database.from_xml(CATALOG)
    with ServerThread(database) as (host, port):
        with socket.create_connection((host, port), timeout=10) as raw:
            handle = raw.makefile("rwb")
            handle.write(b'{"op": "ping", "pad": "' + b"x" * MAX_LINE + b'"}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ServerError"
            assert "exceeds" in response["error"]["message"]
            # the oversized line poisons the framing: connection closes
            assert handle.readline() == b""
        with ServeClient(host, port) as client:
            assert client.stats()["server.protocol_errors"] >= 1


def test_client_raises_the_servers_error_for_an_oversized_line():
    # regression: the id-less answer to an oversized line surfaced as
    # "response id None does not match request id 1"; twice the cap, so
    # the server must read past the cap before it can answer and close
    database = Database.from_xml(CATALOG)
    document = "<catalog><cd>" + "x" * (2 * MAX_LINE) + "</cd></catalog>"
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            with pytest.raises(ServerError, match="exceeds"):
                client.insert(document)
        with ServeClient(host, port) as client:
            assert client.ping()
    assert database.documents() == Database.from_xml(CATALOG).documents()


def test_negative_n_refused_at_the_door():
    # regression: {"n": -1} answered [] instead of an error
    database = Database.from_xml(CATALOG)
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            with pytest.raises(ServerError, match="'n'"):
                client.query("title", n=-1)
            assert client.stats()["server.queries"] == 0
            assert client.query("title", n=0)["results"] == []


def test_n_zero_is_empty_when_auto_picks_schema():
    # regression: auto sized the schema driver's first round as k = n,
    # so {"n": 0} failed with "delta must be positive" whenever the
    # planner picked schema
    query = 'e7[e1["t2"]]'
    database = Database.from_tree(generated_case(0, num_elements=100).tree)
    assert database.plan(query, n=0).method == "schema"
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            assert client.query(query, n=0)["results"] == []
            assert client.query(query, n=2)["results"]


def test_malformed_fields_rejected_at_admission():
    # regression: a non-numeric max_cost used to blow up inside the
    # dispatcher (float("abc") in the batch key) instead of being
    # refused at the door with a typed error
    database = Database.from_xml(CATALOG)
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            with pytest.raises(ServerError, match="max_cost"):
                client.request("query", query="title", max_cost="abc")
            with pytest.raises(ServerError, match="'n'"):
                client.request("query", query="title", n="five")
            with pytest.raises(ServerError, match="'query'"):
                client.request("query", query=42)
            with pytest.raises(ServerError, match="'root'"):
                client.request("delete", root="1")
            with pytest.raises(ServerError, match="'xml'"):
                client.request("insert", xml=7)
            # the server is still healthy after every rejection
            assert client.ping()
            assert client.query("title", n=3)["results"]


class _HostileDatabase:
    """Delegates to a real database, but raises a non-ReproError from
    the query paths when armed — an unexpected engine crash."""

    def __init__(self, database):
        self._database = database
        self.explode = False

    def __getattr__(self, name):
        return getattr(self._database, name)

    def query_many(self, *args, **kwargs):
        if self.explode:
            raise RuntimeError("simulated engine crash")
        return self._database.query_many(*args, **kwargs)

    def query(self, *args, **kwargs):
        if self.explode:
            raise RuntimeError("simulated engine crash")
        return self._database.query(*args, **kwargs)


def test_dispatcher_survives_non_repro_errors():
    # regression: an exception that is not a ReproError escaping a batch
    # used to kill the dispatcher task — every later request hung and
    # stop() deadlocked on the unfinished queue
    database = _HostileDatabase(Database.from_xml(CATALOG))
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            database.explode = True
            with pytest.raises(ServerError, match="internal dispatch error"):
                client.query("title")
            database.explode = False
            assert client.ping()
            assert client.query("title", n=3)["results"]
            assert client.stats()["server.dispatch_errors"] == 1
    # the context manager exiting cleanly is the drain/deadlock check


def test_server_thread_start_failure_surfaces_cause():
    # regression: a bind failure used to block start() for the full 30 s
    # timeout and discard the real exception to the thread excepthook
    blocker = socket.socket()
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        database = Database.from_xml(CATALOG)
        server_thread = ServerThread(database, port=port)
        started = time.perf_counter()
        with pytest.raises(ServerError, match="failed to start"):
            server_thread.start()
        assert time.perf_counter() - started < 10
        server_thread.stop()  # no-op after a failed start, must not raise
    finally:
        blocker.close()
