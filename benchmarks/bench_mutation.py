"""Mutation benchmarks: incremental maintenance vs. full rebuild.

The point of online mutation (``Database.insert_document`` /
``delete_document`` / ``replace_document``) is that touching one
document costs work proportional to that document's labels and terms,
not to the collection.  The alternative the API replaces is the offline
loop: re-run ``Database.from_documents`` over the full corpus and
``save`` a fresh store.  Three experiments measure both sides on the
same workload collection:

* **insert** — adding ``k`` new documents to a saved collection, one
  mutation at a time, vs. rebuilding-and-saving the grown corpus.
* **delete** — tombstoning ``k`` documents vs. rebuilding without them.
* **replace** — swapping ``k`` documents in place vs. rebuilding the
  edited corpus.

Both sides are crash-safe the same way — the incremental path appends
every mutation to the store's log as one fsynced commit frame, a rebuild
saves through a temporary file and a rename — so the comparison is
between equal crash stories.  (``durability="wal"`` is passed and
ignored; it names the mode the baseline was first recorded under.)  Each point also records the
``mutation.*`` telemetry of one instrumented pass (keys rewritten,
nodes added/removed).

Standalone usage (writes the committed ``BENCH_mutation.json`` baseline)::

    PYTHONPATH=src python benchmarks/bench_mutation.py --scale tiny --out BENCH_mutation.json

``--quick`` shrinks the corpus and mutation count for the CI smoke run.
The module also exposes pytest-benchmark points when collected with
``pytest benchmarks/bench_mutation.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import pytest

from repro import Database
from repro.bench.workloads import SCALES, get_workload
from repro.telemetry.collector import Telemetry, collecting
from repro.xmltree.serialize import subtree_to_xml

PASSES = 3
DURABILITY = "wal"
#: documents mutated per profile (the corpus is the whole workload)
PROFILES = {"quick": 3, "full": 8}


def _timed(fn) -> "tuple[float, object]":
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def workload_documents(scale: str) -> list[str]:
    """Every document of the workload collection, as the XML strings the
    mutation API takes."""
    tree = get_workload(scale).tree
    return [subtree_to_xml(tree, root) for root in tree.document_roots()]


def mutation_corpus(scale: str, mutated: int) -> "tuple[list[str], list[str], list[str]]":
    """Split the workload into ``(base, extra, fresh)``.

    The generator's document sizes are strongly bimodal (a small mode
    and a giant-document tail).  Mutation payloads and targets are the
    ``3 * mutated`` documents nearest the median from below, assigned
    round-robin so the three groups are size-matched: a point measures
    the representative document, not the tail (per-mutation cost is
    proportional to the mutated document's size, which the instrumented
    counters record).  ``base`` keeps the target documents at its tail,
    so their roots are the last entries of ``documents()``.
    """
    documents = sorted(workload_documents(scale), key=len)
    start = max(0, len(documents) // 2 - 3 * mutated)
    window = documents[start : start + 3 * mutated]
    targets, extra, fresh = window[0::3], window[1::3], window[2::3]
    rest = documents[:start] + documents[start + 3 * mutated :]
    return rest + targets, extra, fresh


def _save(documents: list[str], path: str) -> None:
    if os.path.exists(path):
        os.remove(path)
    Database.from_documents(documents).save(path, durability=DURABILITY)


def _mutation_counters(telemetry: Telemetry) -> dict:
    return {
        name: value
        for name, value in sorted(telemetry.counters.items())
        if name.startswith("mutation.")
    }


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def run_inserts(base: list[str], extra: list[str], directory: str) -> float:
    path = os.path.join(directory, "insert.apxq")
    _save(base, path)
    database = Database.open(path, durability=DURABILITY)
    seconds, _ = _timed(
        lambda: [database.insert_document(document) for document in extra]
    )
    database._store.close()
    return seconds

def run_deletes(corpus: list[str], victims: int, directory: str) -> float:
    path = os.path.join(directory, "delete.apxq")
    _save(corpus, path)
    database = Database.open(path, durability=DURABILITY)
    roots = database.documents()[-victims:]
    seconds, _ = _timed(lambda: [database.delete_document(root) for root in roots])
    database._store.close()
    return seconds


def run_replaces(corpus: list[str], fresh: list[str], directory: str) -> float:
    path = os.path.join(directory, "replace.apxq")
    _save(corpus, path)
    database = Database.open(path, durability=DURABILITY)
    roots = database.documents()[-len(fresh) :]
    seconds, _ = _timed(
        lambda: [
            database.replace_document(root, document)
            for root, document in zip(roots, fresh)
        ]
    )
    database._store.close()
    return seconds


def measure(action: str, incremental, rebuilt_corpus: list[str], directory: str, mutations: int) -> dict:
    """Time ``incremental`` (the mutation loop) against rebuilding and
    saving ``rebuilt_corpus`` (the offline equivalent), plus one
    instrumented incremental pass for the ``mutation.*`` counters."""
    incremental_times = [incremental() for _ in range(PASSES)]
    telemetry = Telemetry()
    with collecting(telemetry):
        incremental()
    rebuild_path = os.path.join(directory, f"rebuild-{action}.apxq")
    rebuild_times = [
        _timed(lambda: _save(rebuilt_corpus, rebuild_path))[0] for _ in range(PASSES)
    ]
    best_incremental = min(incremental_times)
    best_rebuild = min(rebuild_times)
    return {
        "mutations": mutations,
        "incremental_pass_seconds": incremental_times,
        "incremental_best_seconds": best_incremental,
        "per_mutation_ms": best_incremental * 1000 / mutations,
        "rebuild_pass_seconds": rebuild_times,
        "rebuild_best_seconds": best_rebuild,
        "speedup": best_rebuild / best_incremental if best_incremental else float("inf"),
        "counters": _mutation_counters(telemetry),
    }


# ----------------------------------------------------------------------
# pytest-benchmark points
# ----------------------------------------------------------------------


def bench_incremental_insert(benchmark, bench_scale, tmp_path):
    mutated = PROFILES["quick"]
    base, extra, _ = mutation_corpus(bench_scale, mutated)
    benchmark.pedantic(
        run_inserts,
        args=(base, extra, str(tmp_path)),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )


def bench_incremental_delete(benchmark, bench_scale, tmp_path):
    mutated = PROFILES["quick"]
    base, _, _ = mutation_corpus(bench_scale, mutated)
    benchmark.pedantic(
        run_deletes,
        args=(base, mutated, str(tmp_path)),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )


def bench_full_rebuild(benchmark, bench_scale, tmp_path):
    base, _, _ = mutation_corpus(bench_scale, PROFILES["quick"])
    path = str(tmp_path / "rebuild.apxq")
    benchmark.pedantic(
        _save, args=(base, path), rounds=2, iterations=1, warmup_rounds=1
    )


# ----------------------------------------------------------------------
# standalone baseline writer
# ----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the corpus and mutation count (the CI smoke profile)",
    )
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    mutated = PROFILES["quick" if args.quick else "full"]
    base, extra, fresh = mutation_corpus(args.scale, mutated)

    with tempfile.TemporaryDirectory() as directory:
        record = {
            "workload": {
                "scale": args.scale,
                "profile": "quick" if args.quick else "full",
                "documents": len(base),
                "mutations": mutated,
                "durability": DURABILITY,
                "passes": PASSES,
            },
            "insert": measure(
                "insert",
                lambda: run_inserts(base, extra, directory),
                base + extra,
                directory,
                mutated,
            ),
            "delete": measure(
                "delete",
                lambda: run_deletes(base, mutated, directory),
                base[:-mutated],
                directory,
                mutated,
            ),
            "replace": measure(
                "replace",
                lambda: run_replaces(base, fresh, directory),
                base[:-mutated] + fresh,
                directory,
                mutated,
            ),
        }

    rendered = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"baseline written to {args.out}")
    else:
        print(rendered, end="")

    for action in ("insert", "delete", "replace"):
        point = record[action]
        print(
            f"{action}: {point['per_mutation_ms']:.1f} ms/mutation, "
            f"{point['speedup']:.1f}x faster than rebuild",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
