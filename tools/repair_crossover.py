#!/usr/bin/env python
"""Where repairing a cached answer stops paying: repair vs cold read cost
as the documents written since the answer was cached grow.

A write that holds a cached answer's root labels and a label of one of
its leaf selectors marks it for repair, and the next read brings it up
to date with a direct pass over the written documents alone (DESIGN.md
§8).  That pass grows with the
written documents, while a cold run grows with the whole collection
(direct) or stops early (best-n schema), so past some share of the
collection the cold run is cheaper; ``_REPAIR_DELTA_SHARE`` in
``repro.core.database`` holds that share per method.  This tool
measures it:

1. per share and per method, open a fresh handle on the ``small``
   collection of ``repro.bench.workloads`` (about 165k nodes), in memory
   or as a store, and cache the best-1 and best-10 answers of the
   pinned p1-p3 x r0/r5 queries (six per set, minus p3 r5 at n=10, as
   ``stored-churn`` asks them) under that method: one result-cache key
   serves both methods, so a handle shared by the two would let the
   first method's repairs serve the second as plain hits;
2. insert documents until they hold ``share`` times the collection's
   nodes — copies of the collection's own documents that hold a leaf
   label of some cached query (a write holding none carries every
   entry as it is), in a seeded order (``--documents corpus``) or the
   twelve nearest the median size cycled (``median``, the
   ``stored-churn`` writes);
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
from itertools import cycle

from repro import Database
from repro.bench.workloads import get_workload
from repro.core import database as database_module
from repro.querycache import compile_query
from repro.xmltree import subtree_to_xml
from repro.xmltree.model import compact_tree

CELLS = [(p, r, n) for p in (1, 2, 3) for r in (0, 5) for n in (1, 10) if (p, r, n) != (3, 5, 10)]
METHODS = ("direct", "schema")


def _documents(tree, source: str, seed: int, leaves: set) -> list[str]:
    def holds_a_leaf(root: int) -> bool:
        span = slice(root, tree.bounds[root] + 1)
        return not leaves.isdisjoint(zip(tree.types[span], tree.labels[span]))

    roots = list(filter(holds_a_leaf, tree.document_roots()))
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
    leaves = set().union(
        *(compile_query(query.query, query.costs).expanded().leaf_labels() for query, _ in reads)
    )
    documents = _documents(tree, args.documents, args.seed, leaves)
    database_module._REPAIR_DELTA_SHARE = dict.fromkeys(METHODS, float("inf"))
    workdir = tempfile.mkdtemp(prefix="repair-crossover-")
    master = os.path.join(workdir, "master.apxq")
    if args.backend == "stored":
        Database.from_tree(tree).save(master)
    path = os.path.join(workdir, "copy.apxq")
    print(f"{args.backend}, {args.documents} documents: {len(tree)} nodes, {len(reads)} keys per method")
    print("share  method  repaired  fell_back  repair_ms  cold_ms  ratio")
    try:
        for share in args.shares:
            for method in METHODS:
                if args.backend == "memory":
                    # inserts grow the tree in place: each handle its own copy
                    database = Database.from_tree(compact_tree(tree))
                else:
                    shutil.copyfile(master, path)
                    database = Database.open(path)
                with database:
                    for query, n in reads:
                        database.query(query.query, n=n, costs=query.costs, method=method)
                    added, written = 0, cycle(documents)
                    while added < share * len(tree):
                        added += database.insert_document(next(written)).nodes_added
                    before = database.query_cache_stats()
                    rows = []
                    for query, n in reads:
                        repairs = database.query_cache_stats()["querycache.result_repairs"]
                        seconds = _timed(database, query, n, method)
                        repaired = database.query_cache_stats()["querycache.result_repairs"] > repairs
                        rows.append((seconds, repaired))
                    after = database.query_cache_stats()
                    repairs, fallbacks = (
                        after[name] - before[name]
                        for name in (
                            "querycache.result_repairs", "querycache.result_repair_fallbacks"
                        )
                    )
                    database.set_query_cache(result_entries=0)
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
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
