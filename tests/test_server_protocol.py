"""The query server's wire contract and a seeded fuzz of its door.

The contract: with ``collect`` on, a response's report is the library's
:meth:`~repro.telemetry.report.QueryReport.to_dict` (keys in order, plus
the injected ``server.*`` counters); with ``collect="off"`` it is exactly
``{"method", "counters"}``; results equal the library's on memory, stored
and sharded handles, on a result-cache miss and on a hit; and
:func:`~repro.server.protocol.encode_message` writes what
``json.dumps(payload, separators=(",", ":"))`` writes.

The fuzz mutates requests built from ``querygen`` texts and feeds each
line both to :meth:`QueryServer._serve_line` and to a live server.  Every
line must be answered ``ok`` or with a typed error, the answer must carry
the request's id (``null`` when the line has none that strict JSON can
carry back), every response must be strict JSON, and no line may reach
the exception barrier (``server.dispatch_errors`` stays 0).
"""

import json
import math
import random
import socket

import pytest

from repro import errors
from repro.core.database import Database
from repro.server import MAX_LINE, QueryServer, ServeClient, ServerThread, encode_message
from repro.server.protocol import OPS
from repro.shard import ShardedDatabase

from .strategies import generated_case

DOCUMENTS = [
    "<katalog><stück><titel>klavierkonzert für zwei</titel><komponist>dvořák</komponist>"
    "</stück><stück><titel>cellosonate</titel></stück></katalog>",
    "<katalog><stück><titel>nocturne für klavier</titel><komponist>chopin</komponist>"
    "</stück></katalog>",
]

QUERIES = ['stück[titel["klavierkonzert"]]', "titel", 'stück[komponist["dvořák"]]']

SERVER_COUNTERS = {"server.queue_seconds", "server.queue_depth", "server.rejections"}


def _handle(kind, tmp_path):
    if kind == "sharded":
        return ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    database = Database.from_documents(DOCUMENTS)
    if kind == "memory":
        return database
    path = str(tmp_path / "wire.apxq")
    database.save(path)
    return Database.open(path)


def _strict_loads(line: bytes):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(line, parse_constant=refuse)


def _entries(results):
    entries = []
    for result in results:
        entry = {"root": result.root, "cost": result.cost, "label": result.label}
        if hasattr(result, "shard"):
            entry["shard"] = result.shard
        entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# the wire contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "stored", "sharded"])
def test_results_and_report_shape_match_the_library(kind, tmp_path):
    database = _handle(kind, tmp_path)
    with ServerThread(database) as address:
        with ServeClient(*address) as client:
            for query in QUERIES:
                for collect in ("counters", "off", "timings"):
                    # the first request of a query misses the result cache
                    wire = client.query(query, n=5, collect=collect)
                    library = database.query(query, n=5, collect=collect)
                    assert wire["results"] == _entries(library), (query, collect)
                    report = wire["report"]
                    if collect == "off":
                        assert list(report) == ["method", "counters"]
                        assert report["method"] == library.report.method
                        assert set(report["counters"]) == (
                            set(library.report.counters) | SERVER_COUNTERS
                        )
                    else:
                        expected = library.report.to_dict()
                        assert list(report) == list(expected)
                        assert list(report["summary"]) == list(expected["summary"])
                        assert set(report["counters"]) >= SERVER_COUNTERS
                        assert report["collect"] == collect
                        assert report["query"] == expected["query"]
            # a miss and a hit answer alike, and the report tells them apart
            miss = client.query('stück[titel["cellosonate"]]', n=2, collect="counters")
            hit = client.query('stück[titel["cellosonate"]]', n=2, collect="counters")
            assert not miss["report"]["summary"]["result_cache_hit"]
            assert hit["report"]["summary"]["result_cache_hit"]
            assert hit["results"] == miss["results"]
            assert hit["results"] == _entries(
                database.query('stück[titel["cellosonate"]]', n=2)
            )
    database.close()


def test_encode_message_matches_json_dumps():
    rng = random.Random(11)
    labels = ["stück", "dvořák", "日本語", "a\"b\\c", "tab\there", " ", "plain"]
    payloads = [
        {"id": 1, "ok": True, "pong": True},
        {"id": None, "ok": False, "error": {"type": "ServerError", "message": "é"}},
    ]
    for index in range(50):
        payloads.append({
            "id": index,
            "ok": True,
            "results": [
                {
                    "root": rng.randrange(10**6),
                    "cost": rng.choice([0.0, -0.0, 0.1, 1e-7, 1e16, 2.5, rng.random() * 100]),
                    "label": rng.choice(labels),
                    "shard": rng.randrange(4),
                }
                for _ in range(rng.randrange(8))
            ],
            "report": {"method": "schema", "counters": {"server.queue_seconds": rng.random()}},
        })
    database = Database.from_documents(DOCUMENTS)
    for query in QUERIES:
        results = database.query(query, n=None, collect="timings")
        payloads.append({"results": _entries(results), "report": results.report.to_dict()})
    for payload in payloads:
        expected = json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        assert encode_message(payload) == expected


# ----------------------------------------------------------------------
# the door, fuzzed
# ----------------------------------------------------------------------

_ODD_VALUES = [
    math.nan, math.inf, -math.inf, True, False, None, 0, -1, 1, 3, -(10**30), 10**30,
    2**63, 1.5, -0.0, "", "x", "auto", "direct", "schema", "off", "counters", "timings",
    [], {}, [1, [2, {"a": None}]], {"nested": {"id": [1, 2.5]}}, [math.nan], "<a/>",
    "<a><b>x</b></a>", "cd[", "dvořák",
]
#: well-formed values per field; a mutation draws one of these or an odd value
_VALID = {
    "id": [7, "req-7", None, [1, {"a": 2}], {"nested": {"id": [1, 2.5]}}],
    "op": ["query", "count", "ping", "stats", "describe"],
    "n": [0, 1, 3, 10, None, 10**30],
    "method": ["auto", "direct", "schema"],
    "collect": ["off", "counters", "timings"],
    "max_cost": [None, 0, 2, 5.5, math.inf],
    "root": [0, 1, 5],
    "xml": ["<a><b>x</b></a>"],
    "query": ["a", "e1"],
}
_RAW_LINES = [
    b"[]\n", b"42\n", b'"text"\n', b"null\n", b"true\n", b"\n", b"  \n",
    b'{"id": 1, "op": "ping"\n', b'{"id": 2, "op": "\xff\xfe"}\n', b"\xc3\x28\n",
    b"[" * 5000 + b"\n", b'{"id": ' + b"[" * 5000 + b"\n",
    b'{"id": 3, "op": "query", "query": "a", "n": ' + b"9" * 5000 + b"}\n",
    b'{"id": NaN, "op": "ping"}\n', b'{"id": [Infinity], "op": "ping"}\n',
    b'{"id": 4, "op": "query", "query": "a", "max_cost": -Infinity}\n',
    b'{"id": 5, "op": "query", "query": "a", "n": 1e400}\n',
]


def _fuzz_lines(seed: int, count: int) -> tuple:
    case = generated_case(seed, num_elements=60)
    texts = [generated.unparse() for generated in case.queries]
    rng = random.Random(seed)
    ops = list(OPS) + ["frobnicate", "", 7, None]
    lines = list(_RAW_LINES)
    for index in range(count):
        text = rng.choice(texts)
        if rng.random() < 0.2:
            text = text[: rng.randrange(len(text))]
        message = {"id": index, "op": "query", "query": text}
        for field in rng.sample(sorted(_VALID), rng.randrange(1, 4)):
            if rng.random() < 0.5:
                message[field] = rng.choice(_VALID[field])
            elif field == "op":
                message["op"] = rng.choice(ops)
            else:
                message[field] = rng.choice(_ODD_VALUES)
        if rng.random() < 0.1:
            del message["id"]
        lines.append(json.dumps(message).encode("utf-8") + b"\n")
    return case, lines


def _expected_id(line: bytes):
    """The id a strict reader can take back, else None (also for a line
    too long to frame)."""
    if len(line) > MAX_LINE:
        return None
    try:
        message = json.loads(line.decode("utf-8"))
        if not isinstance(message, dict):
            return None
        json.dumps(message.get("id"), allow_nan=False)
    except (ValueError, RecursionError):
        return None
    return message.get("id")


def _check_answer(line: bytes, raw_response: bytes) -> dict:
    response = _strict_loads(raw_response)
    assert raw_response.endswith(b"\n")
    assert response["id"] == _expected_id(line), line[:200]
    if not response["ok"]:
        error_type = getattr(errors, response["error"]["type"], None)
        assert isinstance(error_type, type) and issubclass(error_type, errors.ReproError), (
            line[:200],
            response,
        )
        assert "internal dispatch error" not in response["error"]["message"], line[:200]
    return response


@pytest.mark.parametrize("seed", [3, 17])
def test_fuzzed_lines_get_typed_answers_in_process(seed):
    case, lines = _fuzz_lines(seed, 300)
    server = QueryServer(Database.from_tree(case.tree))
    outcomes = {True: 0, False: 0}
    for line in lines + [b'{"id": 9, "op": "ping", "pad": "' + b"x" * MAX_LINE + b'"}\n']:
        response = _check_answer(line, encode_message(server._serve_line(line)))
        outcomes[response["ok"]] += 1
    assert outcomes[True] and outcomes[False], outcomes
    assert server.stats()["server.dispatch_errors"] == 0


def test_fuzzed_lines_get_typed_answers_over_the_wire():
    case, lines = _fuzz_lines(5, 300)
    server_thread = ServerThread(ShardedDatabase.from_tree(case.tree, shards=2))
    with server_thread as (host, port):
        with socket.create_connection((host, port), timeout=30) as raw:
            handle = raw.makefile("rwb")
            for line in lines:
                handle.write(line)
                handle.flush()
                _check_answer(line, handle.readline())
        # an over-long line is answered with a null id, then the
        # connection closes: its framing is lost
        with socket.create_connection((host, port), timeout=30) as raw:
            handle = raw.makefile("rwb")
            handle.write(b'{"id": 1, "op": "ping", "pad": "' + b"x" * MAX_LINE + b'"}\n')
            handle.flush()
            response = _strict_loads(handle.readline())
            assert response["id"] is None and response["error"]["type"] == "ServerError"
            assert handle.readline() == b""
        with ServeClient(host, port) as client:
            assert client.ping()
        assert server_thread.server.stats()["server.dispatch_errors"] == 0
