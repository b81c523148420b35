"""Randomized equivalence: disk-backed evaluation == in-memory.

Random collections are saved into the single-file store and reopened;
both algorithms must return identical results when their postings come
from the B+tree instead of memory.  This exercises the full storage
stack (pager, B+tree, overflow chains, posting codecs) underneath the
engines.
"""

import random

import pytest

from repro import Database
from repro.approxql.separated import separate

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
        # saved databases bake unit insert costs: keep the cost model's
        # insert table at the default
        costs = random_cost_model(rng)
        costs.default_insert_cost = 1.0
        costs._insert.clear()
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
    costs.default_insert_cost = 1.0
    costs._insert.clear()
    streamed = list(loaded.stream(query, costs=costs))
    assert [r.cost for r in streamed] == sorted(r.cost for r in streamed)
    reference = loaded.query(query, n=None, costs=costs, method="direct")
    assert {(r.root, r.cost) for r in streamed} == {(r.root, r.cost) for r in reference}


@pytest.mark.parametrize(
    "page_cache_pages,posting_cache_bytes",
    [
        (0, 0),  # caches off: byte-identical to the uncached engine
        (None, None),  # both caches at their defaults
        (1, 1024),  # pathological capacities: constant eviction churn
    ],
    ids=["caches-off", "caches-default", "capacity-1"],
)
def test_cache_configurations_preserve_results(
    tmp_path, page_cache_pages, posting_cache_bytes
):
    """The read-path caches are invisible to query semantics: every cache
    configuration returns the same results, and repeating a query (the
    warm-cache path the best-n driver exercises) changes nothing."""
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


def test_repeated_query_hits_the_posting_cache(tmp_path):
    """With the posting cache on, a repeated query is served decoded
    postings; with it off, the counters stay silent."""
    rng = random.Random(9200)
    tree = random_tree(rng, max_nodes=60)
    database = Database.from_tree(tree)
    path = str(tmp_path / "warm.apxq")
    database.save(path)

    cached = Database.open(path)
    query = random_query(rng)
    cached.query(query, n=None, method="direct")
    warm = cached.query(query, n=None, method="direct", collect="counters")
    if warm:
        assert warm.report.posting_cache_hits > 0

    uncached = Database.open(path, page_cache_pages=0, posting_cache_bytes=0)
    cold = uncached.query(query, n=None, method="direct", collect="counters")
    assert cold.report.posting_cache_hits == 0
    assert cold.report.page_cache_hits == 0
    assert not any(name.startswith("cache.") for name in cold.report.counters)


def test_page_read_counters_distinguish_stored_from_memory(tmp_path):
    """Telemetry parity check: the same query returns identical results
    from the in-memory indexes and from the single-file store, but only
    the stored run reads pages — the in-memory run must report zero."""
    rng = random.Random(8800)
    tree = random_tree(rng, max_nodes=60)
    database = Database.from_tree(tree)
    path = str(tmp_path / "pages.apxq")
    database.save(path)
    loaded = Database.open(path)
    query = random_query(rng)
    for method in ("direct", "schema"):
        memory = database.query(query, n=None, method=method, collect="counters")
        stored = loaded.query(query, n=None, method=method, collect="counters")
        assert {(r.root, r.cost) for r in stored} == {(r.root, r.cost) for r in memory}
        assert memory.report.pages_read == 0
        if memory:  # postings were actually fetched, so pages were touched
            assert stored.report.pages_read > 0


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
