"""Page-cache benchmark on the Figure 7a workload.

A *stored* database built from the pattern-1 workload collection is
opened at several page-cache capacities.  Queries answer from the tree
the store loaded, so they read no page at any capacity; the file is
read by ``Database.open`` and by the B+tree descents of writes.  Each
point therefore times one read-write round — the query set (direct,
n = all) plus one document inserted and deleted — and reports the
``storage.pages_read`` / ``cache.page_hits`` split of those rounds (and
the hits of the decoded-node cache above the pages, which a capacity of
0 disables too).

Standalone usage (writes the committed ``BENCH_cache.json`` baseline)::

    PYTHONPATH=src python benchmarks/bench_cache.py --scale tiny --out BENCH_cache.json

The module also exposes one pytest-benchmark point per page-cache
capacity when collected with ``pytest benchmarks/bench_cache.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import pytest

from repro import Database
from repro.bench.workloads import SCALES, get_workload
from repro.telemetry.collector import Telemetry, collecting

PATTERN = 1  # Figure 7a: the path pattern
RENAMINGS = 5
QUERIES_PER_POINT = 5
PASSES = 3
PAGE_CACHE_SWEEP = (0, 4, 16, 64, 256)
#: the document each round inserts and deletes again
EXTRA_DOCUMENT = "<extra><title>cache probe</title></extra>"


def build_stored_workload(scale: str, directory: str):
    """Save the workload collection into a single-file store and return
    ``(path, queries)`` for the Figure 7a query set."""
    workload = get_workload(scale)
    path = os.path.join(directory, f"bench-cache-{scale}.apxq")
    if not os.path.exists(path):
        Database.from_tree(workload.tree).save(path)
    queries = workload.queries(PATTERN, RENAMINGS, count=QUERIES_PER_POINT)
    return path, queries


def run_round(database: Database, queries) -> int:
    """The query set, then one document inserted and deleted again."""
    total = 0
    for generated in queries:
        total += len(
            database.query(generated.query, n=None, costs=generated.costs, method="direct")
        )
    report = database.insert_document(EXTRA_DOCUMENT)
    database.delete_document(report.root)
    return total


def measure_capacity(path: str, queries, capacity: int) -> dict:
    """Open a copy of the store at ``capacity`` pages, time ``PASSES``
    rounds (uninstrumented), then run one instrumented round for the
    counters."""
    copy = f"{path}.{capacity}"
    shutil.copyfile(path, copy)
    with Database.open(copy, page_cache_pages=capacity) as database:
        times = []
        for _ in range(PASSES):
            start = time.perf_counter()
            run_round(database, queries)
            times.append(time.perf_counter() - start)
        telemetry = Telemetry()
        with collecting(telemetry):
            results = run_round(database, queries)
    os.remove(copy)
    counters = telemetry.counters
    return {
        "page_cache_pages": capacity,
        "results": results,
        "pass_seconds": times,
        "best_seconds": min(times),
        "counters": {
            "storage.pages_read": counters.get("storage.pages_read", 0),
            "cache.page_hits": counters.get("cache.page_hits", 0),
            "cache.page_evictions": counters.get("cache.page_evictions", 0),
            "btree.node_cache_hits": counters.get("btree.node_cache_hits", 0),
        },
    }


def page_cache_sweep(path: str, queries, capacities=PAGE_CACHE_SWEEP) -> list[dict]:
    """One point per capacity, a fresh copy of the store each."""
    return [measure_capacity(path, queries, capacity) for capacity in capacities]


# ----------------------------------------------------------------------
# pytest-benchmark points
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stored_workload(bench_scale, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("bench-cache"))
    return build_stored_workload(bench_scale, directory)


@pytest.mark.parametrize("capacity", PAGE_CACHE_SWEEP)
def bench_page_cache_capacity(benchmark, stored_workload, capacity):
    path, queries = stored_workload
    with Database.open(path, page_cache_pages=capacity) as database:
        benchmark.pedantic(
            run_round,
            args=(database, queries),
            rounds=2,
            iterations=1,
            warmup_rounds=1,
        )


# ----------------------------------------------------------------------
# standalone baseline writer
# ----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as directory:
        path, queries = build_stored_workload(args.scale, directory)
        record = {
            "workload": {
                "scale": args.scale,
                "pattern": PATTERN,
                "renamings": RENAMINGS,
                "queries": QUERIES_PER_POINT,
                "passes": PASSES,
            },
            "page_cache_sweep": page_cache_sweep(path, queries),
        }

    rendered = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"baseline written to {args.out}")
    else:
        print(rendered, end="")

    sweep = record["page_cache_sweep"]
    uncached = next(p for p in sweep if p["page_cache_pages"] == 0)
    cached = sweep[-1]
    print(
        f"pages read per round: {uncached['counters']['storage.pages_read']} uncached -> "
        f"{cached['counters']['storage.pages_read']} at "
        f"{cached['page_cache_pages']} pages",
        file=sys.stderr,
    )
    if {point["results"] for point in sweep} != {uncached["results"]}:
        print("answers differ across page-cache capacities", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
