"""The result cache's write-time witness rule.

Every answer root needs a real leaf match in its own subtree (the global
"at least one leaf matched" rule of §6), so a document holds or gains an
answer only when it holds a node a root selector matches *and* a node a
leaf selector matches, by label or renaming target, of the selector's
node type.  A write whose documents hold a cached entry's root label but
none of its leaf labels therefore carries the entry as it is, on every
handle: no repair, no invalidation, a plain hit.  One that holds both
marks the entry for repair (a sharded merge level, which has no tree to
repair on, drops it), and an entry that can match the super-root is
dropped by every write.  Every answer is checked against a cache-off
twin; a snapshot pinned before the write keeps its own answer.
"""

from contextlib import contextmanager

import pytest

from repro.approxql.costs import CostModel
from repro.core.database import Database
from repro.shard import ShardedDatabase
from repro.xmltree.model import ROOT_LABEL, NodeType

#: four ``cd`` answers padded with label-disjoint documents, so that one
#: small written document stays under every method's repair share
DOCS = [
    "<cd><title>piano works</title><artist>ann</artist></cd>",
    "<cd><title>piano etudes</title><artist>bob</artist></cd>",
    "<cd><title>cello suites</title><artist>ann</artist></cd>",
    "<cd><title>organ mass</title><artist>cae</artist></cd>",
] + ["<lp><side>piano</side></lp>"] * 40
#: ``title`` is the query's one leaf, a struct selector
QUERY = "cd[title]"
#: the root label ``cd`` and ``title`` only as a word, another node type
ROOT_ONLY_DOC = "<cd><artist>title</artist><artist>cae</artist></cd>"
#: the root label and the leaf: a new answer
WITNESSED_DOC = "<cd><title>harp</title></cd>"
#: the root label and ``name``, a renaming target of the leaf
RENAMED_LEAF_DOC = "<cd><name>harp</name></cd>"
KINDS = ("memory", "stored", "sharded")


def _database(kind, path):
    if kind == "sharded":
        return ShardedDatabase.from_documents(DOCS, shards=2)
    database = Database.from_documents(DOCS)
    if kind == "stored":
        database.save(path)
        database = Database.open(path)
    return database


@contextmanager
def _twins(kind, tmp_path):
    """A caching handle of ``kind`` and its cache-off twin."""
    hot = _database(kind, str(tmp_path / "hot.apxq"))
    cold = _database(kind, str(tmp_path / "cold.apxq"))
    cold.set_query_cache(compiled_entries=0, result_entries=0)
    try:
        yield hot, cold
    finally:
        hot.close()
        cold.close()


def _pairs(result_set):
    return [(result.root, result.cost) for result in result_set]


def _read(hot, cold, costs=None, n=None):
    """``hot``'s answer, checked against the cache-off twin."""
    served = hot.query(QUERY, n=n, costs=costs, collect="counters")
    assert _pairs(served) == _pairs(cold.query(QUERY, n=n, costs=costs))
    return served


def _write(hot, cold, xml):
    for database in (hot, cold):
        database.insert_document(xml)


def _moved(database, before):
    """The repair and invalidation counters that moved since ``before``."""
    after = database.query_cache_stats()
    return {
        name: after[name] - before[name]
        for name in ("querycache.result_repairs", "querycache.result_invalidations")
        if after[name] != before[name]
    }


def _renamed_leaf():
    costs = CostModel()
    costs.add_renaming("title", "name", NodeType.STRUCT, 2)
    return costs


@pytest.mark.parametrize("kind", KINDS)
def test_a_root_label_only_write_carries_the_entry(kind, tmp_path):
    with _twins(kind, tmp_path) as (hot, cold):
        _read(hot, cold)
        before = hot.query_cache_stats()
        _write(hot, cold, ROOT_ONLY_DOC)
        assert hot.query_cache_stats()["querycache.result_carried"] == (
            before["querycache.result_carried"] + 1
        )
        served = _read(hot, cold)
        assert served.report.result_cache_hit
        assert _moved(hot, before) == {}
        assert not any(name.startswith("direct.") for name in served.report.counters)


@pytest.mark.parametrize("kind", KINDS)
def test_a_delete_of_a_root_label_only_document_carries_the_entry(kind, tmp_path):
    with _twins(kind, tmp_path) as (hot, cold):
        _write(hot, cold, ROOT_ONLY_DOC)
        _read(hot, cold)
        before = hot.query_cache_stats()
        for database in (hot, cold):
            database.delete_document(database.documents()[-1])
        assert _read(hot, cold).report.result_cache_hit
        assert _moved(hot, before) == {}


@pytest.mark.parametrize("kind", KINDS)
def test_a_root_and_leaf_label_write_marks_or_drops_the_entry(kind, tmp_path):
    with _twins(kind, tmp_path) as (hot, cold):
        _read(hot, cold)
        before = hot.query_cache_stats()
        _write(hot, cold, WITNESSED_DOC)
        served = _read(hot, cold)
        if kind == "sharded":
            assert not served.report.result_cache_hit
            assert _moved(hot, before) == {"querycache.result_invalidations": 1}
        else:
            assert served.report.result_cache_hit
            assert _moved(hot, before) == {"querycache.result_repairs": 1}
        assert len(served) == 5


@pytest.mark.parametrize("kind", KINDS)
def test_a_leaf_renaming_target_marks_only_the_entry_that_renames(kind, tmp_path):
    with _twins(kind, tmp_path) as (hot, cold):
        _read(hot, cold, costs=_renamed_leaf())
        _read(hot, cold)
        before = hot.query_cache_stats()
        _write(hot, cold, RENAMED_LEAF_DOC)
        assert _read(hot, cold).report.result_cache_hit
        renamed = _read(hot, cold, costs=_renamed_leaf())
        assert [cost for _, cost in _pairs(renamed)][-1] == 2
        if kind == "sharded":
            assert not renamed.report.result_cache_hit
            assert _moved(hot, before) == {"querycache.result_invalidations": 1}
        else:
            assert renamed.report.result_cache_hit
            assert _moved(hot, before) == {"querycache.result_repairs": 1}


@pytest.mark.parametrize("kind", KINDS)
def test_an_entry_that_can_match_the_super_root_is_still_dropped(kind, tmp_path):
    costs = CostModel()
    costs.add_renaming("cd", ROOT_LABEL, NodeType.STRUCT, 3)
    with _twins(kind, tmp_path) as (hot, cold):
        _read(hot, cold, costs=costs)
        before = hot.query_cache_stats()
        _write(hot, cold, ROOT_ONLY_DOC)
        assert not _read(hot, cold, costs=costs).report.result_cache_hit
        assert _moved(hot, before) == {"querycache.result_invalidations": 1}


@pytest.mark.parametrize("written", [ROOT_ONLY_DOC, WITNESSED_DOC])
@pytest.mark.parametrize("kind", ["memory", "stored"])
def test_a_snapshot_at_the_old_generation_keeps_its_answer(kind, written, tmp_path):
    """The carried or marked entry is stamped with the new generation: a
    reader pinned before the write misses it without evicting it, and
    answers as it did before the write."""
    with _twins(kind, tmp_path) as (hot, cold):
        old = _pairs(_read(hot, cold))
        with hot.snapshot() as pinned:
            _write(hot, cold, written)
            before = hot.query_cache_stats()
            at_old = pinned.query(QUERY, n=None, collect="counters")
            assert not at_old.report.result_cache_hit
            assert _pairs(at_old) == old
            assert _moved(hot, before) == {}
            served = _read(hot, cold)
            assert served.report.result_cache_hit
            repaired = written == WITNESSED_DOC
            assert _moved(hot, before) == ({"querycache.result_repairs": 1} if repaired else {})
