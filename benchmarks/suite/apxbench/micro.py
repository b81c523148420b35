"""Direct timed calls on fixed synthetic inputs (the ``*.ns_per_entry`` and
``*.us`` per-layer metrics).

These do not depend on the workload: they time one exported function at a
time on inputs built here, so a kernel or codec change shows as a number
of its own next to the workload it should move.  Each value is the median
of ``ROUNDS`` timings; a function that is gone yields ``None``.
"""

from __future__ import annotations

import statistics
import time

ROUNDS = 5


def _median_seconds(function, *args, repeats: int = 1) -> float:
    timings = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(repeats):
            function(*args)
        timings.append((time.perf_counter() - started) / repeats)
    return statistics.median(timings)


def _guard(metrics: dict, names, compute) -> None:
    """Run one micro benchmark; a missing exported name nulls its metrics."""
    try:
        metrics.update(compute())
    except (ImportError, AttributeError) as error:
        import warnings

        warnings.warn(f"micro benchmark target is gone ({error}); {list(names)} are null")
        metrics.update(dict.fromkeys(names))


def _engine_ops() -> dict:
    from repro import engine

    size, window = 20_000, 200
    descendants = engine.as_columns(
        [
            engine.ListEntry(2 * i + 1, 2 * i + 1, float(i % 17), 0.0, float(i % 5), float(i % 7))
            for i in range(size)
        ]
    )
    step = max(2, (2 * size - 2 * window) // 2_000)
    ancestors = engine.as_columns(
        [
            engine.ListEntry(i * step, i * step + 2 * window, float(i % 9), 1.0, 0.0, 0.0)
            for i in range(2_000)
        ]
    )

    def interleaved(offset: int):
        return engine.as_columns(
            [
                engine.ListEntry(3 * i + offset, 3 * i + offset, float(i % 11), 1.0,
                                 float(i % 3), float(i % 3))
                for i in range(size)
            ]
        )

    left, right, shifted = interleaved(0), interleaved(0), interleaved(1)
    entries = {"join": size + 2_000, "outerjoin": size + 2_000}
    cases = {
        "join": (engine.join, (ancestors, descendants, 0.0)),
        "outerjoin": (engine.outerjoin, (ancestors, descendants, 0.0, 5.0)),
        "intersect": (engine.intersect, (left, right, 0.0)),
        "union": (engine.union, (left, shifted, 0.0)),
        "merge": (engine.merge, (left, shifted, 2.0)),
    }
    return {
        f"engine.ops.{name}.ns_per_entry": _median_seconds(function, *args)
        * 1e9
        / entries.get(name, 2 * size)
        for name, (function, args) in cases.items()
    }


def _codecs() -> dict:
    from repro import storage

    postings = [(3 * i + 1, 3 * i + 1 + i % 40, i % 23, 1 + i % 5) for i in range(20_000)]
    encoded = storage.encode_node_postings(postings)
    return {
        "storage.codec.encode.ns_per_entry": _median_seconds(
            storage.encode_node_postings, postings
        )
        * 1e9
        / len(postings),
        "storage.codec.decode.ns_per_entry": _median_seconds(
            storage.decode_node_postings, encoded
        )
        * 1e9
        / len(postings),
    }


def _approxql(queries: list) -> dict:
    from repro import approxql

    def parse_all():
        for query in queries:
            approxql.parse_query(query.text)

    def expand_all():
        for query in queries:
            approxql.build_expanded(query.query, query.costs)

    nodes = [
        sum(1 for _ in approxql.build_expanded(q.query, q.costs).iter_unique_nodes())
        for q in queries
    ]
    return {
        "approxql.parse.us": _median_seconds(parse_all) * 1e6 / len(queries),
        "approxql.expand.us": _median_seconds(expand_all) * 1e6 / len(queries),
        "approxql.expand.nodes": statistics.fmean(nodes),
    }


def _planner(queries: list, stats) -> dict:
    from repro.planner import Planner

    planner = Planner()

    def choose_all():
        for query in queries:
            planner.choose(query.query, query.costs, stats, 10)

    return {"planner.choose.us": _median_seconds(choose_all) * 1e6 / len(queries)}


def _xml_parse(documents: list) -> dict:
    from repro.xmltree import tree_from_xml

    size = sum(len(document.encode("utf-8")) for document in documents)

    def parse_all():
        for document in documents:
            tree_from_xml(document)

    return {"xmltree.parse.mb_per_s": size / 1e6 / _median_seconds(parse_all)}


def _protocol() -> dict:
    from repro import server

    response = {
        "id": 7,
        "ok": True,
        "results": [
            {"root": 1000 + 17 * i, "cost": float(i % 9), "label": f"e{i}", "shard": i % 2}
            for i in range(10)
        ],
        "report": {"query": 'e1[e2[e3["t4"]]]', "method": "schema", "n": 10, "counters": {}},
    }

    def round_trip():
        server.decode_message(server.encode_message(response))

    return {"server.protocol.codec.us": _median_seconds(round_trip, repeats=200) * 1e6}


def run(inputs, stats) -> dict:
    """Every micro metric; ``stats`` is any database's ``collection_stats()``."""
    from . import spec

    queries = [query for group in inputs.fig7.values() for query in group]
    # a fixed slice of the corpus, large enough to time and small enough
    # to parse five times in well under a second
    sample = sorted(inputs.documents, key=len)[-12:]
    metrics: dict = {}
    ops = [f"engine.ops.{op}.ns_per_entry" for op in spec.ENGINE_OPS]
    _guard(metrics, ops, _engine_ops)
    _guard(
        metrics,
        ["storage.codec.encode.ns_per_entry", "storage.codec.decode.ns_per_entry"],
        _codecs,
    )
    _guard(
        metrics,
        ["approxql.parse.us", "approxql.expand.us", "approxql.expand.nodes"],
        lambda: _approxql(queries),
    )
    _guard(metrics, ["planner.choose.us"], lambda: _planner(queries, stats))
    _guard(metrics, ["xmltree.parse.mb_per_s"], lambda: _xml_parse(sample))
    _guard(metrics, ["server.protocol.codec.us"], _protocol)
    return metrics
