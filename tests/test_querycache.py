"""The hot-query fast path: compiled-query and best-n result caches.

Contract under test (see ``repro.querycache``): answers served from
either cache tier are byte-identical to what a cache-disabled evaluation
with the same parameters would produce, at every generation.  Tier 1
(compiled queries) is keyed by ``(query text, cost fingerprint)``; tier
2 (result prefixes) is write-scoped — a document write carries every
entry whose root labels or leaf labels its documents lack, marks the
rest for a repair
from the written documents alone (a sharded merge level drops them) — and
otherwise follows the store's generation protocol: WAL recovery
and out-of-band store writes evict, pinned snapshots miss without
evicting, and one key per (query, costs, ``max_cost``) serves every
method and every ``n`` — a best-``n`` answer is the first ``n`` of one
(cost, root) order under either method.  Randomized cached-vs-cold parity is in
``test_differential_oracle.py``; these tests pin the mechanics.
"""

import math
import os
import struct

import pytest

from repro.approxql.costs import CostModel
from repro.approxql.expanded import build_expanded
from repro.core.database import _REPAIR_DELTA_SHARE, Database
from repro.core.persist import StoreOptions
from repro.querycache import (
    CachedResult,
    CompiledQueryCache,
    ResultCache,
    compile_query,
)
from repro.shard import ShardedDatabase
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.kv import Namespace
from repro.telemetry import Telemetry, collecting

DOCS = [
    "<cd><title>piano works</title><artist>ann</artist></cd>",
    "<cd><title>piano etudes</title><artist>bob</artist></cd>",
    "<cd><title>cello suites</title><artist>ann</artist></cd>",
    "<cd><title>organ mass</title><artist>cae</artist></cd>",
]
NEW_DOC = "<cd><title>piano trio</title><artist>dee</artist></cd>"

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
  <cd><title>cello sonata</title><composer>chopin</composer></cd>
</catalog>
"""

LIBRARY = """
<library>
  <book><title>piano technique</title><author>neuhaus</author></book>
  <book><title>on conducting</title><author>wagner</author></book>
</library>
"""


def _pairs(result_set):
    return [(r.root, r.cost) for r in result_set]


@pytest.fixture
def memory_db():
    return Database.from_documents(DOCS)


@pytest.fixture
def stored_db(tmp_path):
    path = os.path.join(tmp_path, "cat.apxq")
    Database.from_documents(DOCS).save(path, durability="wal")
    return Database.open(path, options=StoreOptions(durability="wal"))


# ----------------------------------------------------------------------
# tier 1: the compiled-query cache
# ----------------------------------------------------------------------


class TestCompiledQueryCache:
    def test_hit_returns_same_compilation(self):
        cache = CompiledQueryCache(4)
        first, hit1 = cache.get("cd[title]", None)
        second, hit2 = cache.get("cd[title]", None)
        assert (hit1, hit2) == (False, True)
        assert second is first
        assert cache.stats()["querycache.compiled_hits"] == 1
        assert cache.stats()["querycache.compiled_misses"] == 1

    def test_cost_fingerprint_separates_entries(self):
        from repro.xmltree.model import NodeType

        cache = CompiledQueryCache(8)
        renamed = CostModel()
        renamed.add_renaming("cd", "dvd", NodeType.STRUCT, 0.5)
        plain, _ = cache.get("cd[title]", None)
        custom, hit = cache.get("cd[title]", renamed)
        assert not hit
        assert custom is not plain
        assert custom.fingerprint != plain.fingerprint
        # a model written after a read gets its own entry, and an equal
        # model built afresh finds it
        renamed.add_renaming("title", "name", NodeType.STRUCT, 1)
        written, hit = cache.get("cd[title]", renamed)
        assert not hit and written is not custom
        assert written.costs.rename_cost("title", "name", NodeType.STRUCT) == 1
        fresh = CostModel()
        fresh.add_renaming("cd", "dvd", NodeType.STRUCT, 0.5)
        fresh.add_renaming("title", "name", NodeType.STRUCT, 1)
        again, hit = cache.get("cd[title]", fresh)
        assert hit and again is written
        assert hash(again.key) == hash((again.text, fresh.fingerprint))
        unwritten = CostModel().add_renaming("cd", "dvd", NodeType.STRUCT, 0.5)
        assert cache.get("cd[title]", unwritten)[0] is custom

    def test_cached_model_survives_caller_mutation(self):
        from repro.xmltree.model import NodeType

        cache = CompiledQueryCache(4)
        model = CostModel()
        compiled, _ = cache.get("cd[title]", model)
        model.add_renaming("cd", "dvd", NodeType.STRUCT, 0.25)
        # the entry keeps a defensive copy keyed by the old fingerprint
        assert compiled.costs.rename_cost("cd", "dvd", NodeType.STRUCT) != 0.25
        again, hit = cache.get("cd[title]", CostModel())
        assert hit and again is compiled

    def test_ast_input_bypasses(self):
        cache = CompiledQueryCache(4)
        parsed = compile_query("cd[title]", None).query
        compiled, hit = cache.get(parsed, None)
        assert not hit
        assert len(cache) == 0
        assert compiled.text == parsed.unparse()

    def test_zero_capacity_disables(self):
        cache = CompiledQueryCache(0)
        assert not cache.enabled
        a, hit_a = cache.get("cd", None)
        b, hit_b = cache.get("cd", None)
        assert not hit_a and not hit_b
        assert a is not b

    def test_lru_eviction(self):
        cache = CompiledQueryCache(2)
        cache.get("a", None)
        cache.get("b", None)
        cache.get("a", None)  # refresh a
        cache.get("c", None)  # evicts b
        assert cache.stats()["querycache.compiled_evictions"] == 1
        _, hit_a = cache.get("a", None)
        _, hit_b = cache.get("b", None)
        assert hit_a and not hit_b

    def test_expanded_closure_built_once(self):
        compiled = compile_query("cd[title]", None)
        assert not compiled.expansion_cached
        first = compiled.expanded()
        assert compiled.expanded() is first


# ----------------------------------------------------------------------
# tier 2: the result cache's generation protocol
# ----------------------------------------------------------------------


class TestResultCacheProtocol:
    def _entry(self, generation, pairs, complete=True):
        return CachedResult(generation=generation, pairs=pairs, complete=complete)

    def test_same_generation_hits(self):
        cache = ResultCache(4)
        cache.store(("k",), self._entry(3, [(1, 1.0)]))
        assert cache.lookup(("k",), 3, None) is not None
        assert cache.stats()["querycache.result_hits"] == 1

    def test_newer_reader_evicts_stale_entry(self):
        cache = ResultCache(4)
        cache.store(("k",), self._entry(3, [(1, 1.0)]))
        assert cache.lookup(("k",), 4, None) is None
        assert cache.stats()["querycache.result_invalidations"] == 1
        assert len(cache) == 0

    def test_pinned_snapshot_misses_without_evicting(self):
        cache = ResultCache(4)
        cache.store(("k",), self._entry(5, [(1, 1.0)]))
        # a reader pinned at an older generation must not see the newer
        # answer, and must not evict it for current readers either
        assert cache.lookup(("k",), 4, None) is None
        assert len(cache) == 1
        assert cache.lookup(("k",), 5, None) is not None

    def test_generation_vectors_order_componentwise(self):
        cache = ResultCache(4)
        cache.store(("k",), self._entry((1, 0, 2), [(1, 1.0)]))
        assert cache.lookup(("k",), (1, 0, 2), None) is not None
        assert cache.lookup(("k",), (1, 1, 2), None) is None  # stale: evicted
        assert len(cache) == 0

    def test_serves_prefix_or_complete(self):
        partial = self._entry(0, [(1, 1.0), (2, 2.0)], complete=False)
        assert partial.serves(2) and partial.serves(1)
        assert not partial.serves(3) and not partial.serves(None)
        full = self._entry(0, [(1, 1.0)], complete=True)
        assert full.serves(None) and full.serves(50)

    def test_store_keeps_stronger_incumbent(self):
        cache = ResultCache(4)
        strong = self._entry(1, [(1, 1.0), (2, 2.0)], complete=False)
        cache.store(("k",), strong)
        cache.store(("k",), self._entry(1, [(1, 1.0)], complete=False))
        assert cache.lookup(("k",), 1, 2) is strong
        longer = self._entry(1, [(1, 1.0), (2, 2.0), (3, 3.0)], complete=False)
        cache.store(("k",), longer)
        assert cache.lookup(("k",), 1, 2) is longer

    def test_lru_eviction_and_bytes_gauge(self):
        cache = ResultCache(2)
        cache.store(("a",), self._entry(0, [(1, 1.0)]))
        cache.store(("b",), self._entry(0, [(2, 2.0)]))
        cache.store(("c",), self._entry(0, [(3, 3.0)]))
        assert len(cache) == 2
        assert cache.stats()["querycache.result_evictions"] == 1
        assert cache.approximate_bytes > 0

    def test_zero_capacity_disables(self):
        cache = ResultCache(0)
        cache.store(("k",), self._entry(0, [(1, 1.0)]))
        assert cache.lookup(("k",), 0, None) is None
        assert len(cache) == 0

    def test_short_prefix_without_state_is_a_miss(self):
        """An entry at the right generation that does not serve ``n`` is
        no hit: the request evaluates from scratch."""
        cache = ResultCache(4)
        cache.store(("k",), self._entry(1, [(1, 1.0), (2, 2.0)], complete=False))
        assert cache.lookup(("k",), 1, 20) is None
        assert len(cache) == 1  # kept: it still serves n <= 2
        stats = cache.stats()
        assert stats["querycache.result_hits"] == 0
        assert stats["querycache.result_misses"] == 1


# ----------------------------------------------------------------------
# the core fast path
# ----------------------------------------------------------------------


class TestDatabaseFastPath:
    def test_repeat_query_is_a_result_hit(self, memory_db):
        first = memory_db.query("cd[title]", n=3, collect="counters")
        second = memory_db.query("cd[title]", n=3, collect="counters")
        assert _pairs(second) == _pairs(first)
        assert not first.report.result_cache_hit
        assert second.report.result_cache_hit
        assert second.report.compiled_cache_hit
        # the served answer re-ran no driver work
        assert second.report.get("schema.second_level_executed", 0) == 0

    def test_count_results_reuses_the_compiled_closure(self, memory_db, monkeypatch):
        """``count_results`` once handed the direct evaluator the bare
        query, so every count re-expanded a closure the compiled query
        already held."""
        import repro.engine.evaluator
        import repro.querycache

        expansions = []

        def counting(query, costs):
            expansions.append(query)
            return build_expanded(query, costs)

        monkeypatch.setattr(repro.querycache, "build_expanded", counting)
        monkeypatch.setattr(repro.engine.evaluator, "build_expanded", counting)
        assert memory_db.count_results('cd[title["piano"]]') == 2
        assert len(expansions) == 1  # the compile
        assert memory_db.count_results('cd[title["piano"]]') == 2
        assert len(expansions) == 1  # compiled-cache hit: nothing expands

    def test_answers_match_disabled_cache_twin(self):
        hot = Database.from_documents(DOCS)
        cold = Database.from_documents(DOCS)
        cold.set_query_cache(compiled_entries=0, result_entries=0)
        for method in ("schema", "direct", "auto"):
            for n in (1, 2, 3, None, 2):
                a = hot.query('cd[title["piano"]]', n=n, method=method)
                b = cold.query('cd[title["piano"]]', n=n, method=method)
                assert _pairs(a) == _pairs(b), (method, n)

    def test_direct_prefix_serves_shorter_n(self, memory_db):
        memory_db.query("cd[title]", n=4, method="direct")
        shorter = memory_db.query("cd[title]", n=2, method="direct", collect="counters")
        assert shorter.report.result_cache_hit
        cold = Database.from_documents(DOCS)
        cold.set_query_cache(result_entries=0)
        assert _pairs(shorter) == _pairs(
            cold.query("cd[title]", n=2, method="direct")
        )

    @pytest.mark.parametrize("kind", ["memory_db", "stored_db"])
    def test_schema_prefix_serves_shorter_n(self, kind, request):
        """The schema driver's k schedule is not part of the answer, so a
        best-4 entry serves best-2 — byte-identical to a cache-off twin."""
        database = request.getfixturevalue(kind)
        database.query("cd[title]", n=4, method="schema")
        shorter = database.query("cd[title]", n=2, method="schema", collect="counters")
        assert shorter.report.result_cache_hit
        assert shorter.report.get("schema.second_level_executed", 0) == 0
        cold = Database.from_documents(DOCS)
        cold.set_query_cache(result_entries=0)
        assert _pairs(shorter) == _pairs(cold.query("cd[title]", n=2, method="schema"))

    @pytest.mark.parametrize("kind", ["memory_db", "stored_db"])
    def test_a_longer_schema_read_evaluates_cold(self, kind, request):
        """Best-2, then best-4: the best-2 entry is too short, so the
        second request is a miss that evaluates cold, matches a cache-off
        twin, and its entry then serves best-2 and best-4."""
        database = request.getfixturevalue(kind)
        short = database.query("cd[title]", n=2, method="schema")
        assert len(short) == 2
        longer = database.query("cd[title]", n=4, method="schema", collect="counters")
        assert not longer.report.result_cache_hit
        assert longer.report.get("schema.second_level_executed", 0) > 0
        cold = Database.from_documents(DOCS)
        cold.set_query_cache(result_entries=0)
        assert _pairs(longer) == _pairs(cold.query("cd[title]", n=4, method="schema"))
        for n in (2, 4):
            served = database.query("cd[title]", n=n, method="schema", collect="counters")
            assert served.report.result_cache_hit, n
            assert _pairs(served) == _pairs(longer)[:n]

    def test_one_entry_serves_every_method(self, memory_db):
        """Both methods answer in (cost, root) order, so one entry per
        (query, costs, max_cost) serves all three method requests."""
        schema = memory_db.query("cd[title]", n=None, method="schema")
        for method in ("direct", "auto"):
            served = memory_db.query("cd[title]", n=2, method=method, collect="counters")
            assert served.report.result_cache_hit, method
            assert _pairs(served) == _pairs(schema)[:2]
        assert len(memory_db._pipeline.result_cache) == 1

    def test_a_direct_read_never_resumes_a_schema_state(self, memory_db):
        """A schema best-2 leaves a short entry (its cost class holds all
        four ``cd`` roots); a direct read for more evaluates cold instead
        of appending its own answer to the cached prefix."""
        memory_db.query("cd[title]", n=2, method="schema")
        (entry,) = memory_db._pipeline.result_cache._entries.values()
        assert not entry.complete
        served = memory_db.query("cd[title]", n=5, method="direct", collect="counters")
        assert not served.report.result_cache_hit
        cold = Database.from_documents(DOCS)
        cold.set_query_cache(result_entries=0)
        expected = _pairs(cold.query("cd[title]", n=5, method="direct"))
        assert _pairs(served) == expected
        roots = [root for root, _ in expected]
        assert len(roots) == len(set(roots)) == 4

    def test_mutation_invalidates(self):
        """A write that holds the query's root label invalidates the
        cached answer: the entry survives it marked for repair, and the
        next read repairs it from the new document alone."""
        database = Database.from_documents(PADDED_DOCS)
        before = database.query("cd[title]", n=None)
        database.insert_document(NEW_DOC)
        assert database.query_cache_stats()["querycache.result_entries"] == 1
        after = database.query("cd[title]", n=None, collect="counters")
        assert after.report.result_cache_hit
        assert database.query_cache_stats()["querycache.result_repairs"] == 1
        assert len(after) == len(before) + 1
        cold = Database.from_documents(PADDED_DOCS)
        cold.set_query_cache(result_entries=0)
        cold.insert_document(NEW_DOC)
        assert _pairs(after) == _pairs(cold.query("cd[title]", n=None))

    def test_out_of_band_store_write_evicts(self, tmp_path):
        """The invalidation authority is the store's write counter: a key
        written through the raw store handle — no routed mutation, no
        state-generation bump — must still evict."""
        path = os.path.join(tmp_path, "oob.apxq")
        Database.from_xml("<lib><cd><title>piano</title></cd></lib>").save(path)
        loaded = Database.open(path)
        query = 'cd[title["piano"]]'
        assert len(loaded.query(query, n=None, method="direct")) == 1
        assert loaded.query(query, n=None, method="direct", collect="counters").report.result_cache_hit
        Namespace(loaded._store, b"oob").put(b"key", b"value")
        after = loaded.query(query, n=None, method="direct", collect="counters")
        assert not after.report.result_cache_hit
        assert after.report.counters["querycache.result_invalidations"] == 1
        assert len(after) == 1
        loaded.close()

    def test_snapshot_is_isolated_both_ways(self, memory_db):
        pinned = _pairs(memory_db.query("cd[title]", n=None))
        with memory_db.snapshot() as snap:
            memory_db.insert_document(NEW_DOC)
            memory_db.query("cd[title]", n=None)  # warm the new generation
            # the pinned reader neither sees the post-mutation answer nor
            # evicts the current generation's entry
            assert _pairs(snap.query("cd[title]", n=None)) == pinned
            current = memory_db.query("cd[title]", n=None, collect="counters")
            assert current.report.result_cache_hit
            assert len(current) == len(pinned) + 1

    def test_query_cache_stats_and_resize(self, memory_db):
        memory_db.query("cd[title]", n=2)
        memory_db.query("cd[title]", n=2)
        stats = memory_db.query_cache_stats()
        assert stats["querycache.compiled_entries"] == 1
        assert stats["querycache.result_hits"] >= 1
        memory_db.set_query_cache(compiled_entries=0, result_entries=0)
        assert memory_db.query_cache_stats()["querycache.result_entries"] == 0
        # disabled caches still answer correctly
        assert len(memory_db.query("cd[title]", n=2)) == 2

    def test_open_knobs_reach_the_caches(self, tmp_path):
        path = os.path.join(tmp_path, "knobs.apxq")
        Database.from_documents(DOCS).save(path)
        loaded = Database.open(
            path,
            options=StoreOptions(compiled_cache_entries=7, result_cache_entries=0),
        )
        assert loaded._pipeline.compiled_cache.max_entries == 7
        assert not loaded._pipeline.result_cache.enabled
        loaded.close()


# ----------------------------------------------------------------------
# write-scoped invalidation: a write touches only what it can change
# ----------------------------------------------------------------------

#: shares no label with ``DOCS``
DISJOINT_DOC = "<lp><side>piano</side></lp>"
#: holds only ``dvd``, the renaming target of ``cd`` under ``_dvd_costs``
RENAMED_DOC = "<dvd><title>piano</title></dvd>"
#: ``DOCS`` padded with label-disjoint documents, so that writing one or
#: two small ``cd`` documents stays under either method's repair share
PADDED_DOCS = DOCS + [DISJOINT_DOC] * 100
HANDLES = ("memory", "stored", "sharded")


def _dvd_costs():
    from repro.xmltree.model import NodeType

    costs = CostModel()
    costs.add_renaming("cd", "dvd", NodeType.STRUCT, 2)
    return costs


def _twins(kind, tmp_path, docs=DOCS):
    """A caching handle of ``kind`` over ``docs`` and its cache-off twin."""
    handles = []
    for name in ("hot", "cold"):
        if kind == "sharded":
            database = ShardedDatabase.from_documents(docs, shards=2)
        else:
            database = Database.from_documents(docs)
            if kind == "stored":
                path = os.path.join(tmp_path, f"{name}.apxq")
                database.save(path, durability="wal")
                database = Database.open(path, options=StoreOptions(durability="wal"))
        handles.append(database)
    handles[1].set_query_cache(compiled_entries=0, result_entries=0)
    return handles


def _both(hot, cold, action, *args):
    """Apply one write to both twins; the hot handle's report."""
    report = getattr(hot, action)(*args)
    getattr(cold, action)(*args)
    return report


class TestWriteScopedInvalidation:
    def _served(self, hot, cold, query, n=None, method="auto", costs=None):
        """``hot``'s answer, checked against the cache-off twin."""
        served = hot.query(query, n=n, method=method, costs=costs, collect="counters")
        assert _pairs(served) == _pairs(cold.query(query, n=n, method=method, costs=costs))
        return served

    @pytest.mark.parametrize("kind", HANDLES)
    def test_disjoint_insert_keeps_the_entry_serving(self, kind, tmp_path):
        from repro.telemetry import Telemetry, collecting
        from repro.xmltree.model import NodeType

        hot, cold = _twins(kind, tmp_path)
        with hot, cold:
            self._served(hot, cold, "cd[title]")
            writer = Telemetry()
            with collecting(writer):
                report = _both(hot, cold, "insert_document", DISJOINT_DOC)
            # the carry is counted on the writer's collector too (one per
            # caching level a sharded write passes: shard, then merge)
            assert writer.counters["querycache.result_carried"] == (2 if kind == "sharded" else 1)
            served = self._served(hot, cold, "cd[title]")
            assert served.report.result_cache_hit
            stats = hot.query_cache_stats()
            assert stats["querycache.result_carried"] == 1
            assert stats["querycache.result_invalidations"] == 0
        if kind != "sharded":
            assert report.labels == {
                (NodeType.STRUCT, "lp"), (NodeType.STRUCT, "side"), (NodeType.TEXT, "piano")
            }

    def _touched(self, hot, cold, query, repairs, costs=None):
        """Read ``query`` after a write that held one of its root labels,
        checked against the cache-off twin.  A sharded merge level
        dropped the entry at the write, so the read misses; a single
        store kept it marked for repair, so the read is a repaired hit
        (the ``repairs``-th of the handle's lifetime)."""
        served = self._served(hot, cold, query, costs=costs)
        stats = hot.query_cache_stats()
        if isinstance(hot, ShardedDatabase):
            assert not served.report.result_cache_hit
        else:
            assert served.report.result_cache_hit
            assert stats["querycache.result_repairs"] == repairs
            assert stats["querycache.result_repair_fallbacks"] == 0
        return served

    @pytest.mark.parametrize("kind", HANDLES)
    def test_root_label_insert_drops_the_entry_at_the_write(self, kind, tmp_path):
        """A sharded merge level drops the entry at the write itself; a
        single store keeps it, marked for repair, through the write."""
        hot, cold = _twins(kind, tmp_path, PADDED_DOCS)
        with hot, cold:
            self._served(hot, cold, "cd[title]")
            _both(hot, cold, "insert_document", NEW_DOC)
            stats = hot.query_cache_stats()
            if kind == "sharded":
                assert stats["querycache.result_entries"] == 0
                assert stats["querycache.result_invalidations"] == 1
            else:
                assert stats["querycache.result_entries"] == 1
                assert stats["querycache.result_invalidations"] == 0
            self._touched(hot, cold, "cd[title]", repairs=1)

    @pytest.mark.parametrize("kind", HANDLES)
    def test_renaming_target_insert_drops_the_entry(self, kind, tmp_path):
        """A document holding only ``dvd`` changes ``cd`` under a model
        that renames ``cd`` to ``dvd`` — and nothing under one that
        does not: the same write touches one entry (dropped at a sharded
        merge level, repaired by a single store) and carries the other."""
        hot, cold = _twins(kind, tmp_path)
        with hot, cold:
            self._served(hot, cold, "cd[title]", costs=_dvd_costs())
            self._served(hot, cold, "cd[title]")
            _both(hot, cold, "insert_document", RENAMED_DOC)
            self._touched(hot, cold, "cd[title]", repairs=1, costs=_dvd_costs())
            assert self._served(hot, cold, "cd[title]").report.result_cache_hit

    @pytest.mark.parametrize("kind", HANDLES)
    def test_delete_and_replace_use_the_removed_documents_labels(self, kind, tmp_path):
        hot, cold = _twins(kind, tmp_path)
        with hot, cold:
            first = _both(hot, cold, "insert_document", DISJOINT_DOC).root
            second = _both(hot, cold, "insert_document", DISJOINT_DOC).root
            self._served(hot, cold, "cd[title]")
            _both(hot, cold, "delete_document", first)
            assert self._served(hot, cold, "cd[title]").report.result_cache_hit
            _both(hot, cold, "replace_document", second, "<lp><side>organ</side></lp>")
            assert self._served(hot, cold, "cd[title]").report.result_cache_hit
            if kind != "sharded":
                assert hot.query_cache_stats()["querycache.result_repairs"] == 0
            # the replacement lacks cd, the document it removes does not
            _both(hot, cold, "replace_document", hot.documents()[0], DISJOINT_DOC)
            self._touched(hot, cold, "cd[title]", repairs=1)
            _both(hot, cold, "delete_document", hot.documents()[0])
            self._touched(hot, cold, "cd[title]", repairs=2)

    @pytest.mark.parametrize("kind", HANDLES)
    def test_a_query_that_can_match_the_super_root_is_always_dropped(self, kind, tmp_path):
        from repro.xmltree.model import ROOT_LABEL, NodeType

        costs = CostModel()
        costs.add_renaming("cd", ROOT_LABEL, NodeType.STRUCT, 3)
        hot, cold = _twins(kind, tmp_path)
        with hot, cold:
            self._served(hot, cold, "cd", costs=costs)
            _both(hot, cold, "insert_document", DISJOINT_DOC)
            assert not self._served(hot, cold, "cd", costs=costs).report.result_cache_hit

    @pytest.mark.parametrize("kind", HANDLES)
    def test_a_carried_prefix_serves_shorter_n_but_does_not_resume(self, kind, tmp_path):
        hot, cold = _twins(kind, tmp_path)
        with hot, cold:
            self._served(hot, cold, "cd[title]", n=2, method="schema")
            _both(hot, cold, "insert_document", DISJOINT_DOC)
            shorter = self._served(hot, cold, "cd[title]", n=1, method="schema")
            assert shorter.report.result_cache_hit
            longer = self._served(hot, cold, "cd[title]", n=4, method="schema")
            assert not longer.report.result_cache_hit
            assert len(longer) == 4

    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_a_snapshot_pinned_before_the_write_is_never_served_a_carried_entry(
        self, kind, tmp_path
    ):
        hot, cold = _twins(kind, tmp_path)
        with hot, cold:
            before = _pairs(self._served(hot, cold, "cd[title]"))
            with hot.snapshot() as snap:
                _both(hot, cold, "insert_document", DISJOINT_DOC)
                pinned = snap.query("cd[title]", n=None, collect="counters")
                assert not pinned.report.result_cache_hit
                assert _pairs(pinned) == before
                # nor does the pinned reader evict it for current readers
                assert self._served(hot, cold, "cd[title]").report.result_cache_hit

    def test_wal_recovery_strands_every_entry(self, tmp_path):
        path = os.path.join(tmp_path, "crash.apxq")
        Database.from_documents(DOCS).save(path, durability="wal")
        injector = FaultInjector(kill_after_ops=1_000_000)
        database = Database.open(
            path, options=StoreOptions(durability="wal", opener=injector.opener())
        )
        database.query("cd[title]", n=None)
        database.insert_document(DISJOINT_DOC)
        carried = database.query("cd[title]", n=None, collect="counters")
        assert carried.report.result_cache_hit
        injector.kill_after_ops = 0  # the next write dies mid-frame
        with pytest.raises(SimulatedCrash):
            database.insert_document(NEW_DOC)
        recovered = Database.open(path, options=StoreOptions(durability="wal"))
        with recovered:
            first = recovered.query("cd[title]", n=None, collect="counters")
            assert not first.report.result_cache_hit
            assert _pairs(first) == _pairs(carried)
            assert recovered.query_cache_stats()["querycache.result_carried"] == 0


# ----------------------------------------------------------------------
# repair: a touched entry is brought up to date from the written documents
# ----------------------------------------------------------------------

#: a ``cd`` whose ``title`` sits under an inserted ``box``: ``cd[title]``
#: matches it at cost 1, a cost no document of ``DOCS`` has
BOXED_DOC = "<cd><box><title>piano trio</title></box></cd>"


def _repair_counts(database):
    stats = database.query_cache_stats()
    return stats["querycache.result_repairs"], stats["querycache.result_repair_fallbacks"]



def _under_share(database, before, method="schema"):
    """Whether the nodes written since ``before`` (a node count) are few
    enough for ``method``'s repair: a fallback is then for another
    reason."""
    return database.node_count - before < _REPAIR_DELTA_SHARE[method] * before


class TestRepair:
    """The read after a touching write: a repaired hit, or one of the
    two fallbacks to a cold evaluation — each answer byte-identical to
    the cache-off twin."""

    _served = TestWriteScopedInvalidation._served

    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_a_schema_prefix_gains_a_result_at_a_new_cost(self, kind, tmp_path):
        hot, cold = _twins(kind, tmp_path, PADDED_DOCS)
        with hot, cold:
            self._served(hot, cold, 'cd[title["piano"]]', method="schema")
            _both(hot, cold, "insert_document", BOXED_DOC)
            served = self._served(hot, cold, 'cd[title["piano"]]', method="schema")
            assert served.report.result_cache_hit
            assert served.report.get("schema.second_level_executed", 0) == 0
            assert [cost for _, cost in _pairs(served)] == [0.0, 0.0, 1.0]
            assert _repair_counts(hot) == (1, 0)

    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_an_incomplete_prefix_keeps_no_result_at_its_last_cost(self, kind, tmp_path):
        """Past the last cached cost the old answer is unknown, so a new
        result costing as much as the last cached one is left out; the
        direct order puts it after every old root anyway."""
        hot, cold = _twins(kind, tmp_path, PADDED_DOCS)
        with hot, cold:
            self._served(hot, cold, "cd[title]", n=2, method="direct")
            _both(hot, cold, "insert_document", NEW_DOC)
            _both(hot, cold, "insert_document", BOXED_DOC)
            served = self._served(hot, cold, "cd[title]", n=2, method="direct")
            assert served.report.result_cache_hit
            assert _repair_counts(hot) == (1, 0)
            # still two pairs: the next old root precedes both new ones
            longer = self._served(hot, cold, "cd[title]", n=3, method="direct")
            assert not longer.report.result_cache_hit

    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_a_schema_tie_is_repaired(self, kind, tmp_path):
        """A new result at a cached cost follows every old root of that
        cost in the (cost, root) order both methods answer in, so the
        merge on cost keeps a schema entry exact: a repaired hit."""
        hot, cold = _twins(kind, tmp_path, PADDED_DOCS)
        with hot, cold:
            self._served(hot, cold, "cd[title]", method="schema")
            before = hot.node_count
            _both(hot, cold, "insert_document", NEW_DOC)
            assert _under_share(hot, before)
            served = self._served(hot, cold, "cd[title]", method="schema")
            assert served.report.result_cache_hit
            assert served.report.get("schema.second_level_executed", 0) == 0
            assert [cost for _, cost in _pairs(served)] == [0.0] * 5
            assert _repair_counts(hot) == (1, 0)

    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_new_results_tied_with_each_other_are_repaired(self, kind, tmp_path):
        """Two new results at one cost no cached result has come out in
        document order, as a cold schema run now orders them too."""
        hot, cold = _twins(kind, tmp_path, PADDED_DOCS)
        with hot, cold:
            self._served(hot, cold, 'cd[title["piano"]]', method="schema")
            before = hot.node_count
            _both(hot, cold, "insert_document", BOXED_DOC)
            _both(hot, cold, "insert_document", "<cd><artist><title>piano</title></artist></cd>")
            assert _under_share(hot, before)
            served = self._served(hot, cold, 'cd[title["piano"]]', method="schema")
            assert served.report.result_cache_hit
            roots = [root for root, _ in _pairs(served)]
            assert roots[2] < roots[3]
            assert _repair_counts(hot) == (1, 0)

    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_a_marked_prefix_too_short_for_n_is_repaired_first(self, kind, tmp_path):
        """A read for more than a marked entry holds still repairs it:
        a new result below the last cached cost lengthens the prefix to
        serve the read, and one the repair cannot lengthen enough is a
        counted fallback."""
        hot, cold = _twins(kind, tmp_path, PADDED_DOCS)
        with hot, cold:
            _both(hot, cold, "insert_document", BOXED_DOC)
            # four results at cost 0, the boxed one at 1
            self._served(hot, cold, "cd[title]", n=5, method="direct")
            _both(hot, cold, "insert_document", NEW_DOC)
            served = self._served(hot, cold, "cd[title]", n=6, method="direct")
            assert served.report.result_cache_hit
            assert _repair_counts(hot) == (1, 0)
            _both(hot, cold, "insert_document", NEW_DOC)
            served = self._served(hot, cold, "cd[title]", n=8, method="direct")
            assert not served.report.result_cache_hit
            assert _repair_counts(hot) == (1, 1)

    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_a_prefix_that_shrinks_below_n_falls_back(self, kind, tmp_path):
        hot, cold = _twins(kind, tmp_path)
        with hot, cold:
            self._served(hot, cold, "cd[title]", n=2, method="direct")
            first = hot.documents()[0]
            _both(hot, cold, "delete_document", first)
            served = self._served(hot, cold, "cd[title]", n=2, method="direct")
            assert not served.report.result_cache_hit
            assert first not in [root for root, _ in _pairs(served)]
            assert _repair_counts(hot) == (0, 1)

    @pytest.mark.parametrize("method", ["direct", "schema"])
    @pytest.mark.parametrize("kind", ["memory", "stored"])
    def test_a_delta_past_its_methods_share_falls_back(self, kind, method, tmp_path):
        """The repair's direct pass costs in proportion to the written
        documents: below the chosen method's share of the collection
        before them it repairs, at the share it gives way to the cold
        run.  The written ``cd`` holds a ``title``, the query's leaf, so
        the write marks the entry instead of carrying it."""
        share = _REPAIR_DELTA_SHARE[method]
        hot, cold = _twins(kind, tmp_path, docs=PADDED_DOCS)
        with hot, cold:
            self._served(hot, cold, "cd[title]", method=method)
            for repaired, counts in ((True, (1, 0)), (False, (1, 1))):
                before = hot.node_count
                # 3 + 2 * artists nodes: the largest count under the
                # share, or the smallest one at it
                limit = share * before
                artists = math.ceil((limit - 3) / 2) - 1 if repaired else math.ceil((limit - 3) / 2)
                _both(
                    hot, cold, "insert_document",
                    "<cd><title>x</title>" + "<artist>x</artist>" * artists + "</cd>",
                )
                assert (hot.node_count - before < limit) == repaired
                served = self._served(hot, cold, "cd[title]", method=method)
                assert served.report.result_cache_hit == repaired
                assert _repair_counts(hot) == counts


# ----------------------------------------------------------------------
# planner persistence: there is none, and reads never write
# ----------------------------------------------------------------------


def _store_bytes(path):
    """The store file, raw."""
    with open(path, "rb") as handle:
        return handle.read()


class TestPlannerPersistence:
    def test_query_path_never_writes_the_store(self, stored_db):
        """A pure read workload must not bump the store generation (a
        write would blanket-invalidate the posting and result caches)."""
        generation = stored_db._store.generation
        for _ in range(3):
            stored_db.query("cd[title]", n=2)
        assert stored_db._store.generation == generation

    def test_query_only_session_closes_without_writing(self, stored_db, tmp_path):
        path = os.path.join(tmp_path, "cat.apxq")
        stored_db.close()
        before = _store_bytes(path)
        database = Database.open(path, options=StoreOptions(durability="wal"))
        for query in ("cd[title]", 'cd[title["piano"]]', "cd"):
            database.query(query, n=2)
            database.query(query, n=None)
            database.plan(query, n=2)
        database.close()
        assert _store_bytes(path) == before

    def test_legacy_planner_segment_is_ignored(self, tmp_path):
        """A version-2 store written while the planner still persisted a
        session correction (a ``planner`` key in the ``stats``
        namespace) opens, answers like a store without it and verifies."""
        from repro.core.cli import main

        plain = os.path.join(tmp_path, "plain.apxq")
        legacy = os.path.join(tmp_path, "legacy.apxq")
        for path in (plain, legacy):
            Database.from_documents(DOCS).save(path)
        database = Database.open(legacy)
        # u32 version 1, f64 correction factor 8.0, uvarint 3 corrections
        Namespace(database._store, b"stats").put(
            b"planner", struct.pack("<Id", 1, 8.0) + b"\x03"
        )
        database._store.commit()
        database.close()
        with Database.open(plain) as expected, Database.open(legacy) as database:
            for query in ("cd[title]", 'cd[title["piano"]]', "cd"):
                for n in (1, 3, None):
                    assert database.plan(query, n=n) == expected.plan(query, n=n)
                    assert _pairs(database.query(query, n=n)) == _pairs(
                        expected.query(query, n=n)
                    )
        assert main(["verify", legacy]) == 0


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_recovery_lands_on_an_evicted_cache(self, tmp_path):
        """Reopening after a write torn by a crash drops the torn
        commit, and the reopened handle's fast path works on the
        recovered data: cold first, then served from the cache."""
        path = os.path.join(tmp_path, "crash.apxq")
        Database.from_documents(DOCS).save(path, durability="wal")

        injector = FaultInjector(kill_after_ops=1_000_000)
        database = Database.open(
            path, options=StoreOptions(durability="wal", opener=injector.opener())
        )
        database.query("cd[title]", n=2)
        database.insert_document(NEW_DOC)
        injector.kill_after_ops = 0  # every further file op crashes
        with pytest.raises(SimulatedCrash):
            database.insert_document(DISJOINT_DOC)

        telemetry = Telemetry()
        with collecting(telemetry):
            recovered = Database.open(path, options=StoreOptions(durability="wal"))
        assert telemetry.counters["wal.recoveries"] == 1
        first = recovered.query("cd[title]", n=None, collect="counters")
        assert not first.report.result_cache_hit
        assert len(first) == len(DOCS) + 1  # the pre-crash insert replayed
        second = recovered.query("cd[title]", n=None, collect="counters")
        assert second.report.result_cache_hit
        assert _pairs(second) == _pairs(first)
        recovered.close()


@pytest.mark.parametrize("kind", ["memory", "stored", "sharded"])
def test_unservable_prefix_is_reported_as_a_miss(kind, tmp_path):
    """A direct best-2 prefix carries no driver state, so a later best-20
    is evaluated from scratch — and must say so: a store, no hit, on the
    report and in the lifetime counters behind ``result_hit_ratio``."""
    if kind == "sharded":
        database = ShardedDatabase.from_documents(DOCS, shards=2)
    else:
        database = Database.from_documents(DOCS)
        if kind == "stored":
            path = os.path.join(tmp_path, "cat.apxq")
            database.save(path)
            database = Database.open(path)
    with database:
        database.query("cd[title]", n=2, method="direct")
        longer = database.query("cd[title]", n=20, method="direct", collect="counters")
        assert len(longer) == 4
        assert not longer.report.result_cache_hit
        assert "querycache.result_hits" not in longer.report.counters
        assert longer.report.counters["querycache.result_misses"] == 1
        assert longer.report.counters["querycache.result_stores"] == 1
        assert database._pipeline.result_cache.hits == 0


# ----------------------------------------------------------------------
# the sharded tier
# ----------------------------------------------------------------------


class TestShardedFastPath:
    def test_repeat_query_hits_at_the_merge_level(self):
        database = ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)
        first = database.query("title", n=3, collect="counters")
        second = database.query("title", n=3, collect="counters")
        assert _pairs(second) == _pairs(first)
        assert second.report.result_cache_hit
        assert second.report.get("shard.fanout", 0) == 0  # no scatter ran
        # served results still carry shard provenance and real XML
        assert all(r.shard is not None for r in second)
        assert all(r.xml() for r in second)
        database.close()

    def test_prefix_serves_shorter_n(self):
        database = ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)
        database.query("title", n=4)
        shorter = database.query("title", n=2, collect="counters")
        assert shorter.report.result_cache_hit
        cold = ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)
        cold.set_query_cache(result_entries=0)
        assert _pairs(shorter) == _pairs(cold.query("title", n=2))
        database.close()
        cold.close()

    def test_mutation_moves_the_generation_vector(self):
        database = ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)
        before = database.query("title", n=None)
        database.insert_document("<catalog><cd><title>nocturnes</title></cd></catalog>")
        after = database.query("title", n=None, collect="counters")
        assert not after.report.result_cache_hit
        assert len(after) == len(before) + 1
        database.close()

    def test_set_query_cache_cascades_to_shards(self):
        database = ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)
        database.set_query_cache(compiled_entries=5, result_entries=0)
        assert not database._pipeline.result_cache.enabled
        for shard in database._shards:
            assert shard._pipeline.compiled_cache.max_entries == 5
            assert not shard._pipeline.result_cache.enabled
        assert len(database.query("title", n=2)) == 2
        database.close()

    def test_stats_aggregate(self):
        database = ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)
        database.query("title", n=2)
        database.query("title", n=2)
        stats = database.query_cache_stats()
        assert stats["querycache.result_hits"] >= 1
        assert stats["querycache.compiled_hits"] >= 1
        database.close()


# ----------------------------------------------------------------------
# the server surface
# ----------------------------------------------------------------------


def test_server_stats_expose_querycache_counters():
    from repro.server import ServeClient, ServerThread

    database = ShardedDatabase.from_documents([CATALOG, LIBRARY], shards=2)
    with ServerThread(database) as (host, port):
        with ServeClient(host, port) as client:
            first = client.query("title", n=2)
            second = client.query("title", n=2)
            assert [r["root"] for r in second["results"]] == [
                r["root"] for r in first["results"]
            ]
            counters = client.stats()
            assert counters["querycache.result_hits"] >= 1
            assert counters["querycache.compiled_entries"] >= 1
    database.close()
