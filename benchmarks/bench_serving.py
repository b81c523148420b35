"""Serving-layer benchmark: scatter-gather throughput across shard counts.

One experiment over the Figure 7a workload collection, asked two ways:

* **library** — the same best-n query batch served directly through
  :meth:`ShardedDatabase.query_many` at shard counts 1, 2, and 4 (shard
  count 1 is the single-store baseline wrapped in the scatter-gather
  path, so the delta to higher counts isolates the fan-out/merge cost);
* **server** — the same batch pushed through a live
  :class:`~repro.server.QueryServer` over real TCP by several
  concurrent clients, measuring end-to-end requests per second
  including protocol framing, admission control, and the engine
  lock.

Every sharded pass is verified against the single-store answers
(document-rooted results, canonical (cost, root) order) — the benchmark
measures scheduling and transport, never correctness drift.  Each point
is measured twice, with the best-n result cache off (the re-evaluation
baseline) and on (the hot-query fast path; the batch repeats its query
set, so repeats serve from cached prefixes — see
``benchmarks/bench_querycache.py`` for the dedicated cache benchmark).

Interpreting the numbers: the engine is pure Python, so on a box with
free cores the shard fan-out can overlap per-shard I/O and decode work,
while on a single-core container the curve stays flat and the merge
overhead shows up directly; ``cpu_count`` is recorded next to every
measurement for exactly that reason.  The server points additionally
absorb JSON framing and a thread wake-up per request, so their
throughput is a floor, not a ceiling, for the library numbers.

Standalone usage (writes the committed ``BENCH_serving.json``)::

    PYTHONPATH=src python benchmarks/bench_serving.py --scale tiny --out BENCH_serving.json

CI runs the same module as a smoke gate (no ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import pytest

from repro import Database
from repro.bench.workloads import SCALES, get_workload
from repro.server import ServeClient, ServerThread
from repro.shard import ShardedDatabase

PATTERN = 1  # Figure 7a: the path pattern
RENAMINGS = 5
QUERIES_PER_SET = 5
BATCH_REPEATS = 4
PASSES = 3
N = 10
SHARD_COUNTS = (1, 2, 4)
SERVER_CLIENTS = 4
SERVER_ROUNDS = 3


def build_workload(scale: str):
    """The benchmark inputs: the workload tree and the query batch."""
    workload = get_workload(scale)
    generated = workload.queries(PATTERN, RENAMINGS, count=QUERIES_PER_SET)
    batch = [(g.query, g.costs) for g in generated] * BATCH_REPEATS
    return workload.tree, batch


def reference_answers(tree, batch):
    """Single-store document-rooted answers in canonical order (the
    sharded layer's contract; see ``repro/shard/database.py``)."""
    database = Database.from_tree(tree)
    answers = []
    for query, costs in batch:
        results = database.query(query, n=None, costs=costs)
        ordered = sorted((r.cost, r.root) for r in results if r.root != 0)
        answers.append(ordered[:N])
    return answers


def run_library_batch(database: ShardedDatabase, batch):
    return [
        [(r.cost, r.root) for r in database.query(query, n=N, costs=costs)]
        for query, costs in batch
    ]


def measure_library(tree, batch, answers) -> list[dict]:
    """One point per (shard count, result-cache setting) through the
    library surface.  The batch repeats its query set, so with the
    result cache on the later repeats serve from the best-n prefix
    cache — the cache-off rows are the honest re-evaluation baseline,
    and the pair isolates what the hot-query fast path buys the serving
    layer."""
    points = []
    for shards in SHARD_COUNTS:
        for result_cache in (False, True):
            database = ShardedDatabase.from_tree(tree, shards=shards)
            if not result_cache:
                database.set_query_cache(result_entries=0)
            times = []
            for _ in range(PASSES):
                start = time.perf_counter()
                got = run_library_batch(database, batch)
                times.append(time.perf_counter() - start)
                assert got == answers, f"shards={shards} diverged from single store"
            best = min(times)
            points.append(
                {
                    "mode": "library",
                    "shards": shards,
                    "result_cache": result_cache,
                    "queries": len(batch),
                    "pass_seconds": times,
                    "best_seconds": best,
                    "queries_per_second": len(batch) / best if best else float("inf"),
                    "identical_to_single_store": True,
                }
            )
            database.close()
    return points


def _serve_one_point(tree, shards, result_cache, texts, default_answers) -> dict:
    """One live-TCP measurement: ``SERVER_CLIENTS`` threads each replay
    the whole batch ``SERVER_ROUNDS`` times against a fresh server."""
    database = ShardedDatabase.from_tree(tree, shards=shards)
    if not result_cache:
        database.set_query_cache(result_entries=0)
    failures: list = []

    def client_loop(address):
        try:
            with ServeClient(*address, timeout=120) as client:
                for _ in range(SERVER_ROUNDS):
                    for index, text in enumerate(texts):
                        response = client.query(text, n=N)
                        got = [
                            (r["cost"], r["root"]) for r in response["results"]
                        ]
                        if got != default_answers[index]:
                            failures.append((text, got))
        except Exception as error:  # noqa: BLE001 - surfaced in the assert
            failures.append(error)

    with ServerThread(database, max_pending=256) as address:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=client_loop, args=(address,))
            for _ in range(SERVER_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    requests = SERVER_CLIENTS * SERVER_ROUNDS * len(texts)
    assert not failures, failures[:3]
    database.close()
    return {
        "mode": "server",
        "shards": shards,
        "result_cache": result_cache,
        "clients": SERVER_CLIENTS,
        "requests": requests,
        "seconds": elapsed,
        "requests_per_second": requests / elapsed if elapsed else float("inf"),
    }


def measure_server(tree, batch) -> list[dict]:
    """One point per (shard count, result-cache setting) through a live
    TCP server; the repeated rounds make the cache-on rows the hot-path
    number and the cache-off rows the re-evaluation baseline.

    The wire protocol serves the default cost model (per-query cost
    models do not travel), so the reference is the single store's
    default-model answer, document-rooted and in canonical order.
    """
    texts = [query.unparse() for query, _costs in batch]
    single = Database.from_tree(tree)
    default_answers = [
        sorted((r.cost, r.root) for r in single.query(text, n=None) if r.root != 0)[:N]
        for text in texts
    ]
    return [
        _serve_one_point(tree, shards, result_cache, texts, default_answers)
        for shards in SHARD_COUNTS
        for result_cache in (False, True)
    ]


# ----------------------------------------------------------------------
# pytest-benchmark points
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def serving_workload(bench_scale):
    tree, batch = build_workload(bench_scale)
    return tree, batch, reference_answers(tree, batch)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def bench_sharded_query_throughput(benchmark, serving_workload, shards):
    tree, batch, answers = serving_workload
    database = ShardedDatabase.from_tree(tree, shards=shards)
    got = benchmark.pedantic(
        run_library_batch,
        args=(database, batch),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    assert got == answers


# ----------------------------------------------------------------------
# standalone baseline writer
# ----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    tree, batch = build_workload(args.scale)
    answers = reference_answers(tree, batch)
    library = measure_library(tree, batch, answers)
    server = measure_server(tree, batch)

    record = {
        "workload": {
            "scale": args.scale,
            "pattern": PATTERN,
            "renamings": RENAMINGS,
            "batch_queries": len(batch),
            "n": N,
            "passes": PASSES,
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": sys.platform,
        },
        "library": library,
        "server": server,
    }

    for point in library:
        cache = "on " if point["result_cache"] else "off"
        print(
            f"library shards={point['shards']} cache={cache}: "
            f"{point['queries_per_second']:8.1f} queries/s "
            f"(best of {PASSES}: {point['best_seconds'] * 1000:.1f} ms)"
        )
    for point in server:
        cache = "on " if point["result_cache"] else "off"
        print(
            f"server  shards={point['shards']} cache={cache}: "
            f"{point['requests_per_second']:8.1f} requests/s "
            f"({point['clients']} clients, {point['requests']} requests)"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
