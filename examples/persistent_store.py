"""Persisting a built database to disk (the Berkeley-DB role).

Builds a collection, saves its data tree and insert-cost table into a
single-file store, reopens it, and queries it.  Nothing derived from
the tree is stored: the reopened handle rebuilds the schema (and with
it I_sec) on open and the I_struct / I_text node index on its first
direct read, then answers from memory exactly as the built one does.

Run:  python examples/persistent_store.py
"""

import os
import sys
import tempfile
import time

from repro import Database
from repro.datagen import GeneratorConfig, generate_collection


def main() -> None:
    quick = "--quick" in sys.argv
    scale = 10 if quick else 1
    config = GeneratorConfig(
        num_elements=8_000 // scale,
        num_terms=2_000 // scale,
        num_term_occurrences=80_000 // scale,
        mode="dtd",
        dtd_size=100,
        seed=21,
    )
    print("generating collection ...")
    collection = generate_collection(config)
    db = Database.from_tree(collection.tree)
    print(db.describe())

    path = os.path.join(tempfile.mkdtemp(prefix="approxql-"), "collection.apxq")
    start = time.perf_counter()
    db.save(path)
    print(f"saved to {path} ({os.path.getsize(path) / 1024:.0f} KiB, "
          f"{(time.perf_counter() - start) * 1000:.0f} ms)")

    start = time.perf_counter()
    reopened = Database.open(path)
    print(f"reopened in {(time.perf_counter() - start) * 1000:.0f} ms")

    # pick a term that certainly occurs and query the reopened store
    from repro.xmltree.model import NodeType
    from repro.xmltree.indexes import MemoryNodeIndexes

    term = next(iter(MemoryNodeIndexes(db.tree).labels(NodeType.TEXT)))
    element = db.tree.label(db.tree.document_roots()[0])
    query = f'{element}["{term}"]'
    print(f"query: {query}")

    for method in ("direct", "schema"):
        start = time.perf_counter()
        results = reopened.query(query, n=5, method=method)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"  {method:>6}: {len(results)} results in {elapsed:6.1f} ms; "
              f"best: {[(r.cost, r.label) for r in results[:3]]}")

    fresh = db.query(query, n=5, method="direct")
    restored = reopened.query(query, n=5, method="direct")
    assert [(r.root, r.cost) for r in fresh] == [(r.root, r.cost) for r in restored]
    print("in-memory and on-disk evaluation agree")


if __name__ == "__main__":
    main()
