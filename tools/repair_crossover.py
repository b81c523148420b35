#!/usr/bin/env python
"""Where repairing a cached answer stops paying: repair vs cold read cost
as the documents written since the answer was cached grow.

A write that holds a cached answer's root labels marks it for repair,
and the next read brings it up to date with a direct pass over the
written documents alone (DESIGN.md §8).  That pass grows with the
written documents, while a cold run grows with the whole collection
(direct) or stops early (best-n schema), so past some share of the
collection the cold run is cheaper; ``_REPAIR_DELTA_SHARE`` in
``repro.core.database`` holds that share per method.  This tool
measures it:

1. build the ``small`` collection of ``repro.bench.workloads`` (about
   165k nodes) in memory or as a store, and cache the best-1 and
   best-10 answers of the pinned p1-p3 x r0/r5 queries (six per set,
   minus p3 r5 at n=10, as ``stored-churn`` asks them) under both
   methods;
2. insert documents until they hold ``share`` times the collection's
   nodes — copies of the collection's own documents in a seeded order
   (``--documents corpus``) or the twelve nearest the median size
   cycled (``median``, the ``stored-churn`` writes);
3. read every key once (the repair, run whatever the share: the limit
   is lifted for the measurement), then again with the result cache off
   (the cold run, best of two), and print, per method, the summed time
   of the reads that repaired against the cold time of the same keys.

A ``ratio`` under 1 means the repair was the cheaper read.  Usage::

    PYTHONPATH=src python tools/repair_crossover.py                      # memory, corpus
    PYTHONPATH=src python tools/repair_crossover.py --backend stored --documents median
    PYTHONPATH=src python tools/repair_crossover.py --shares 0.05 0.1
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import tempfile
import time

from repro import Database
from repro.bench.workloads import get_workload
from repro.core import database as database_module
from repro.xmltree import subtree_to_xml

CELLS = [(p, r, n) for p in (1, 2, 3) for r in (0, 5) for n in (1, 10) if (p, r, n) != (3, 5, 10)]
METHODS = ("direct", "schema")


def _documents(tree, source: str, seed: int) -> list[str]:
    roots = list(tree.document_roots())
    if source == "corpus":
        random.Random(seed).shuffle(roots)
        return [subtree_to_xml(tree, root) for root in roots]
    by_size = sorted(roots, key=lambda root: tree.bounds[root] - root)
    middle = len(by_size) // 2
    return [subtree_to_xml(tree, root) for root in by_size[middle - 6 : middle + 6]]


def _timed(database, query, n, method) -> float:
    started = time.perf_counter()
    database.query(query.query, n=n, costs=query.costs, method=method)
    return time.perf_counter() - started


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--backend", choices=("memory", "stored"), default="memory")
    parser.add_argument("--documents", choices=("corpus", "median"), default="corpus")
    parser.add_argument("--shares", type=float, nargs="+", default=[0.02, 0.05, 0.1, 0.2, 0.5])
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    workload = get_workload("small")
    tree = workload.tree
    reads = [(query, n) for p, r, n in CELLS for query in workload.queries(p, r, count=6)]
    documents = _documents(tree, args.documents, args.seed)
    database_module._REPAIR_DELTA_SHARE = dict.fromkeys(METHODS, float("inf"))
    workdir = tempfile.mkdtemp(prefix="repair-crossover-")
    master = os.path.join(workdir, "master.apxq")
    if args.backend == "stored":
        Database.from_tree(tree).save(master)
    print(f"{args.backend}, {args.documents} documents: {len(tree)} nodes, {len(reads)} keys per method")
    print("share  method  repaired  fell_back  repair_ms  cold_ms  ratio")
    try:
        for share in args.shares:
            if args.backend == "memory":
                database = Database.from_tree(tree)
            else:
                path = os.path.join(workdir, f"copy-{share}.apxq")
                shutil.copyfile(master, path)
                database = Database.open(path)
            with database:
                for query, n in reads:
                    for method in METHODS:
                        database.query(query.query, n=n, costs=query.costs, method=method)
                added = 0
                while added < share * len(tree):
                    added += database.insert_document(documents[0]).nodes_added
                    documents.append(documents.pop(0))
                hot = {}
                for method in METHODS:
                    before = database.query_cache_stats()
                    rows = []
                    for query, n in reads:
                        repairs = database.query_cache_stats()["querycache.result_repairs"]
                        seconds = _timed(database, query, n, method)
                        repaired = database.query_cache_stats()["querycache.result_repairs"] > repairs
                        rows.append((seconds, repaired))
                    after = database.query_cache_stats()
                    hot[method] = (
                        rows,
                        after["querycache.result_repairs"] - before["querycache.result_repairs"],
                        after["querycache.result_repair_fallbacks"]
                        - before["querycache.result_repair_fallbacks"],
                    )
                database.set_query_cache(result_entries=0)
                for method in METHODS:
                    rows, repairs, fallbacks = hot[method]
                    repair_ms = cold_ms = 0.0
                    for (seconds, repaired), (query, n) in zip(rows, reads):
                        if repaired:
                            repair_ms += seconds * 1e3
                            cold_ms += min(_timed(database, query, n, method) for _ in range(2)) * 1e3
                    ratio = repair_ms / cold_ms if cold_ms else float("nan")
                    print(
                        f"{added / len(tree):5.2f}  {method:6}  {repairs:8}  {fallbacks:9}  "
                        f"{repair_ms:9.1f}  {cold_ms:7.1f}  {ratio:5.2f}",
                        flush=True,
                    )
            if args.backend == "stored":
                os.remove(path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
