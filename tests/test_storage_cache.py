"""Tests for the read-path cache of decoded postings.

Covers ``repro.storage.cache.PostingCache`` directly, and the
invalidation contract end to end: a stored index that shares a
:class:`PostingCache` must serve fresh postings after the underlying
store is rewritten, because every store write moves the generation.
"""

import pytest

from repro import Database
from repro.errors import StorageError
from repro.storage.cache import PostingCache
from repro.storage.kv import MemoryStore, Namespace
from repro.telemetry.collector import Telemetry, collecting
from repro.xmltree.indexes import STRUCT_NAMESPACE, TEXT_NAMESPACE, StoredNodeIndexes
from repro.xmltree.model import NodeType

NS = b"ns"


class TestPostingCache:
    def test_get_miss_then_hit(self):
        cache = PostingCache(max_bytes=1 << 20)
        assert cache.get(NS, b"a", 0) is None
        posting = [(1, 2, 0, 0)]
        cache.put(NS, b"a", 0, posting)
        assert cache.get(NS, b"a", 0) is posting

    def test_namespaces_do_not_collide(self):
        cache = PostingCache(max_bytes=1 << 20)
        cache.put(b"x", b"k", 0, [(1, 1, 0, 0)])
        cache.put(b"y", b"k", 0, [(2, 2, 0, 0)])
        assert cache.get(b"x", b"k", 0) == [(1, 1, 0, 0)]
        assert cache.get(b"y", b"k", 0) == [(2, 2, 0, 0)]

    def test_generation_mismatch_is_a_miss_and_drops_the_entry(self):
        cache = PostingCache(max_bytes=1 << 20)
        cache.put(NS, b"a", 3, [(1, 1, 0, 0)])
        assert cache.get(NS, b"a", 4) is None
        assert len(cache) == 0
        assert cache.used_bytes == 0
        # even asking with the original generation misses now
        assert cache.get(NS, b"a", 3) is None

    def test_byte_budget_evicts_least_recently_used(self):
        # each 1-entry posting costs a fixed estimate; size the budget
        # to hold exactly three of them
        cache = PostingCache(max_bytes=1 << 20)
        cache.put(NS, b"probe", 0, [(0, 0, 0, 0)])
        per_entry = cache.used_bytes
        cache.clear()
        cache.max_bytes = 3 * per_entry

        for key in (b"a", b"b", b"c"):
            cache.put(NS, key, 0, [(1, 1, 0, 0)])
        assert cache.get(NS, b"a", 0) is not None  # touch: a becomes MRU
        cache.put(NS, b"d", 0, [(1, 1, 0, 0)])  # over budget: evict b
        assert cache.get(NS, b"b", 0) is None
        assert cache.get(NS, b"a", 0) is not None
        assert cache.get(NS, b"c", 0) is not None
        assert cache.get(NS, b"d", 0) is not None
        assert len(cache) == 3

    def test_oversized_posting_is_not_cached(self):
        cache = PostingCache(max_bytes=200)
        cache.put(NS, b"big", 0, [(i, i, 0, 0) for i in range(100)])
        assert len(cache) == 0
        assert cache.get(NS, b"big", 0) is None

    def test_zero_budget_disables_caching(self):
        cache = PostingCache(max_bytes=0)
        cache.put(NS, b"a", 0, [(1, 1, 0, 0)])
        assert len(cache) == 0
        assert cache.get(NS, b"a", 0) is None

    def test_negative_budget_rejected(self):
        with pytest.raises(StorageError):
            PostingCache(max_bytes=-1)

    def test_replacing_an_entry_keeps_accounting_consistent(self):
        cache = PostingCache(max_bytes=1 << 20)
        cache.put(NS, b"a", 0, [(1, 1, 0, 0)])
        once = cache.used_bytes
        cache.put(NS, b"a", 0, [(1, 1, 0, 0), (2, 2, 0, 0)])
        assert len(cache) == 1
        assert cache.used_bytes > once
        cache.clear()
        assert cache.used_bytes == 0
        assert len(cache) == 0

    def test_telemetry_counters(self):
        cache = PostingCache(max_bytes=1 << 20)
        telemetry = Telemetry()
        with collecting(telemetry):
            cache.get(NS, b"a", 0)  # miss
            cache.put(NS, b"a", 0, [(1, 1, 0, 0)])
            cache.get(NS, b"a", 0)  # hit
            cache.get(NS, b"a", 1)  # stale: invalidation + miss
        assert telemetry.counters["cache.posting_misses"] == 2
        assert telemetry.counters["cache.posting_hits"] == 1
        assert telemetry.counters["cache.posting_invalidations"] == 1


class TestStoredIndexInvalidation:
    """index → fetch → re-index → fetch must see fresh data (satellite c)."""

    def test_node_index_sees_rewritten_postings(self):
        store = MemoryStore()
        cache = PostingCache()
        tree_one = Database.from_xml("<lib><b>alpha</b></lib>").tree
        StoredNodeIndexes.build(tree_one, store)
        indexes = StoredNodeIndexes(store, posting_cache=cache)

        first = indexes.fetch("b", NodeType.STRUCT)
        assert len(first) == 1
        # second fetch is served from the cache: identical object
        assert indexes.fetch("b", NodeType.STRUCT) is first

        tree_two = Database.from_xml("<lib><b>alpha</b><b>beta</b></lib>").tree
        StoredNodeIndexes.build(tree_two, store)  # writes bump the generation
        fresh = indexes.fetch("b", NodeType.STRUCT)
        assert fresh is not first
        assert len(fresh) == 2

    def test_indexes_sharing_one_cache_do_not_collide(self):
        """I_struct and I_text share the PostingCache object; their
        namespace tags must keep apart an element and a word spelled
        alike."""
        store = MemoryStore()
        cache = PostingCache()
        tree = Database.from_xml("<lib><b>b b</b><c>b</c></lib>").tree
        StoredNodeIndexes.build(tree, store)
        node_indexes = StoredNodeIndexes(store, posting_cache=cache)

        element = node_indexes.fetch("b", NodeType.STRUCT)
        word = node_indexes.fetch("b", NodeType.TEXT)
        assert len(element) == 1 and len(word) == 3
        assert cache.get(STRUCT_NAMESPACE, b"b", store.generation) is element
        assert cache.get(TEXT_NAMESPACE, b"b", store.generation) is word


class TestConcurrentWriterInvalidation:
    """A writer racing the fetch path must never be masked by the cache."""

    def test_write_landing_during_fetch_is_not_masked(self):
        """The generation-snapshot ordering regression: the fetch reads
        the generation *before* the store read, so a write that lands
        between the read and the cache insert leaves an entry stamped
        with the pre-write generation — invalidated on the next fetch.
        (Stamping at insert time would mask the write forever.)"""
        store = MemoryStore()
        cache = PostingCache()
        tree_one = Database.from_xml("<lib><b>alpha</b></lib>").tree
        tree_two = Database.from_xml("<lib><b>alpha</b><b>beta</b></lib>").tree
        StoredNodeIndexes.build(tree_one, store)
        indexes = StoredNodeIndexes(store, posting_cache=cache)

        original_get = store.get
        state = {"raced": False}

        def racing_get(key):
            value = original_get(key)  # the read observes the old bytes...
            if not state["raced"]:
                state["raced"] = True
                # ...and the writer lands before the reader can cache them
                StoredNodeIndexes.build(tree_two, store)
            return value

        store.get = racing_get
        stale = indexes.fetch("b", NodeType.STRUCT)
        assert len(stale) == 1  # the raced read itself returns old data: fine
        fresh = indexes.fetch("b", NodeType.STRUCT)
        assert len(fresh) == 2, "cache served postings that predate the write"

    def test_cache_survives_concurrent_hammering(self):
        """Many reader threads plus a generation-bumping writer against
        one PostingCache: no exceptions, byte accounting stays sane."""
        import threading

        cache = PostingCache(max_bytes=16_384)
        errors = []
        stop = threading.Event()

        def reader(tag):
            try:
                for round_index in range(300):
                    key = f"k{round_index % 7}".encode()
                    generation = round_index % 3
                    cache.put(tag, key, generation, [(1, 2)] * (round_index % 9))
                    cache.get(tag, key, generation)
                    if round_index % 50 == 0:
                        cache.clear()
            except BaseException as error:
                errors.append(error)

        threads = [
            threading.Thread(target=reader, args=(f"ns{i}".encode(),))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        assert not errors, errors
        assert 0 <= cache.used_bytes <= cache.max_bytes

    def test_contended_lock_reports_waits(self):
        """CountedLock observability: a thread that actually blocks on the
        posting-cache lock ticks concurrency.posting_lock_waits in its own
        collection."""
        import threading
        import time

        cache = PostingCache()
        telemetry = Telemetry()
        entered = threading.Event()

        def blocked_reader():
            entered.wait()
            with collecting(telemetry):
                cache.get(b"ns", b"k", 0)

        thread = threading.Thread(target=blocked_reader)
        raw_lock = cache._lock._lock
        raw_lock.acquire()
        try:
            thread.start()
            entered.set()
            time.sleep(0.05)  # let the reader hit the held lock
        finally:
            raw_lock.release()
        thread.join()
        assert telemetry.counters.get("concurrency.posting_lock_waits") == 1
        assert telemetry.counters.get("cache.posting_misses") == 1


class TestDatabaseLevelInvalidation:
    def test_requery_after_rebuild_sees_fresh_data(self, tmp_path):
        """Full path: build a database file, query it with the posting
        cache on, rewrite the stored postings, query again — the second
        query must reflect the rewrite, not the cached decode."""
        path = str(tmp_path / "fresh.apxq")
        Database.from_xml("<lib><cd><title>piano works</title></cd></lib>").save(path)
        loaded = Database.open(path)
        before = loaded.query('cd[title["piano"]]', n=None, method="direct")
        assert len(before) == 1

        # rewrite the I_struct posting for "cd" through the loaded
        # database's own store: the cd node vanishes from the index
        from repro.storage.postings import encode_node_postings
        from repro.xmltree.indexes import STRUCT_NAMESPACE as NS_STRUCT

        store = loaded._store
        Namespace(store, NS_STRUCT).put(b"cd", encode_node_postings([]))
        after = loaded.query('cd[title["piano"]]', n=None, method="direct")
        assert len(after) == 0
