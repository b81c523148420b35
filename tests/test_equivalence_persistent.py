"""Randomized equivalence: a reopened database == the in-memory one.

Random collections are saved into the single-file store and reopened;
both algorithms must return identical results from the tree the store
gave back.  This exercises the full storage stack (pager, B+tree,
overflow chains, column codecs) underneath the engines.
"""

import random

import pytest

from repro import Database
from repro.approxql.separated import separate
from repro.telemetry.collector import Telemetry, collecting

from .strategies import random_cost_model, random_query, random_tree


@pytest.mark.parametrize("seed", range(8))
def test_loaded_database_matches_memory(tmp_path, seed):
    rng = random.Random(7000 + seed)
    tree = random_tree(rng, max_nodes=60)
    database = Database.from_tree(tree)
    path = str(tmp_path / f"random-{seed}.apxq")
    database.save(path)
    loaded = Database.open(path)
    for _ in range(4):
        query = random_query(rng)
        costs = random_cost_model(rng)
        expected = database.query(query, n=None, costs=costs, method="direct")
        direct = loaded.query(query, n=None, costs=costs, method="direct")
        schema = loaded.query(query, n=None, costs=costs, method="schema")
        assert [(r.root, r.cost) for r in direct] == [(r.root, r.cost) for r in expected]
        assert {(r.root, r.cost) for r in schema} == {(r.root, r.cost) for r in expected}


def test_loaded_database_streams(tmp_path):
    rng = random.Random(4242)
    tree = random_tree(rng, max_nodes=60)
    database = Database.from_tree(tree)
    path = str(tmp_path / "stream.apxq")
    database.save(path)
    loaded = Database.open(path)
    query = random_query(rng)
    costs = random_cost_model(rng)
    streamed = list(loaded.stream(query, costs=costs))
    assert [r.cost for r in streamed] == sorted(r.cost for r in streamed)
    reference = loaded.query(query, n=None, costs=costs, method="direct")
    assert {(r.root, r.cost) for r in streamed} == {(r.root, r.cost) for r in reference}


@pytest.mark.parametrize(
    "page_cache_pages,posting_cache_bytes",
    [
        (0, 0),  # page cache off
        (None, None),  # page cache at its default
        (1, 1024),  # pathological capacity: constant eviction churn
    ],
    ids=["caches-off", "caches-default", "capacity-1"],
)
def test_cache_configurations_preserve_results(
    tmp_path, page_cache_pages, posting_cache_bytes
):
    """The storage knobs are invisible to query semantics (the posting
    cache budget is accepted and ignored): every configuration returns
    the same results, and repeating a query changes nothing."""
    rng = random.Random(9100)
    tree = random_tree(rng, max_nodes=60)
    database = Database.from_tree(tree)
    path = str(tmp_path / "cached.apxq")
    database.save(path)
    loaded = Database.open(
        path,
        page_cache_pages=page_cache_pages,
        posting_cache_bytes=posting_cache_bytes,
    )
    # one result-cache entry serves both methods: each must evaluate
    loaded.set_query_cache(result_entries=0)
    for _ in range(3):
        query = random_query(rng)
        expected = database.query(query, n=None, method="direct")
        for method in ("direct", "schema"):
            cold = loaded.query(query, n=None, method=method)
            warm = loaded.query(query, n=None, method=method)
            assert {(r.root, r.cost) for r in cold} == {
                (r.root, r.cost) for r in expected
            }
            assert [(r.root, r.cost) for r in warm] == [
                (r.root, r.cost) for r in cold
            ]


def test_page_read_counters_distinguish_stored_from_memory(tmp_path):
    """Telemetry parity check: the same query returns identical results
    from a memory handle and from a reopened store, and neither touches
    a store — a stored handle answers from the tree it loaded.  Only a
    write tells them apart: the stored one commits a log frame, the
    memory one none."""
    rng = random.Random(8800)
    tree = random_tree(rng, max_nodes=60)
    database = Database.from_tree(tree)
    path = str(tmp_path / "pages.apxq")
    database.save(path)
    loaded = Database.open(path)
    # one result-cache entry serves both methods: each must evaluate
    for handle in (database, loaded):
        handle.set_query_cache(result_entries=0)
    query = random_query(rng)
    for method in ("direct", "schema"):
        memory = database.query(query, n=None, method=method, collect="counters")
        stored = loaded.query(query, n=None, method=method, collect="counters")
        assert {(r.root, r.cost) for r in stored} == {(r.root, r.cost) for r in memory}
        for report in (memory.report, stored.report):
            assert not any(name.startswith(("storage.", "wal.")) for name in report.counters)
    written = {}
    for name, handle in (("memory", database), ("stored", loaded)):
        telemetry = Telemetry()
        with collecting(telemetry):
            handle.insert_document("<extra><leaf>text</leaf></extra>")
        written[name] = telemetry.counters.get("wal.commits", 0)
    assert written["memory"] == 0 < written["stored"]


def test_separation_count_is_stable_after_reload(tmp_path):
    """Sanity: parsing machinery is independent of the storage path."""
    rng = random.Random(11)
    query = random_query(rng)
    before = len(separate(query))
    tree = random_tree(rng)
    database = Database.from_tree(tree)
    path = str(tmp_path / "sanity.apxq")
    database.save(path)
    Database.open(path)
    assert len(separate(query)) == before


def test_posting_cache_budget_is_ignored(tmp_path):
    """``posting_cache_bytes`` is accepted and ignored: a handle opened
    with a zero budget answers exactly as one opened with the default."""
    rng = random.Random(9200)
    tree = random_tree(rng, max_nodes=60)
    path = str(tmp_path / "budget.apxq")
    Database.from_tree(tree).save(path)
    with Database.open(path) as default, Database.open(path, posting_cache_bytes=0) as zero:
        # one result-cache entry serves both methods: each must evaluate
        for handle in (default, zero):
            handle.set_query_cache(result_entries=0)
        for _ in range(4):
            query = random_query(rng)
            costs = random_cost_model(rng)
            for method in ("direct", "schema"):
                for n in (1, None):
                    expected = default.query(query, n=n, costs=costs, method=method)
                    got = zero.query(query, n=n, costs=costs, method=method)
                    assert [(r.root, r.cost, r.xml()) for r in got] == [
                        (r.root, r.cost, r.xml()) for r in expected
                    ]
