"""The result cache before the plan: only a read that evaluates plans.

One result-cache entry serves every method (DESIGN.md §8), so a read it
answers — a plain hit, or a repair that every method would make — is
the same read whichever method is asked for and never runs
:meth:`~repro.planner.cost.Planner.choose`.  A miss plans once, and so
does a repair whose written share lies between the two methods'
thresholds (``_REPAIR_DELTA_SHARE``): there ``direct`` repairs and
``schema`` runs cold.  A served ``"auto"`` read names the method whose
run stored the rows, an explicit method is named as requested, and the
``planner.*`` counters appear only on a read that planned.  Every answer
is checked against a cache-off twin.
"""

import math
from contextlib import contextmanager

import pytest

from repro.approxql.costs import CostModel
from repro.core.database import _REPAIR_DELTA_SHARE, Database
from repro.planner.cost import Planner
from repro.shard import ShardedDatabase
from repro.xmltree.model import NodeType

#: four ``cd`` answers padded with label-disjoint documents, so that one
#: small document is well under every method's repair share
DOCS = [
    "<cd><title>piano works</title><artist>ann</artist></cd>",
    "<cd><title>piano etudes</title><artist>bob</artist></cd>",
    "<cd><title>cello suites</title><artist>ann</artist></cd>",
    "<cd><title>organ mass</title><artist>cae</artist></cd>",
] + ["<lp><side>piano</side></lp>"] * 100
QUERY = "cd[title]"
#: a new answer, a few nodes
NEW_DOC = "<cd><title>piano trio</title><artist>dee</artist></cd>"
#: a ``cd`` without the query's leaf, ``title`` — as a word only: the
#: write carries a cached entry as it is
LEAFLESS_DOC = "<cd><artist>title</artist></cd>"
KINDS = ("memory", "stored", "snapshot", "sharded")
#: the handles a write marks an entry for repair on (a snapshot's
#: generation never moves; a shard merge level drops touched entries)
REPAIRING = ("memory", "stored")


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
    """A caching handle of ``kind`` and a cache-off twin answering the
    same collection (a plain database for a snapshot)."""
    hot = _database(kind, str(tmp_path / "hot.apxq"))
    cold = _database("memory" if kind == "snapshot" else kind, str(tmp_path / "cold.apxq"))
    cold.set_query_cache(compiled_entries=0, result_entries=0)
    reader = hot.snapshot() if kind == "snapshot" else hot
    try:
        yield reader, hot, cold
    finally:
        if reader is not hot:
            reader.close()
        hot.close()
        cold.close()


@pytest.fixture()
def planned(monkeypatch):
    """The method of every :meth:`Planner.choose` call while the test
    runs."""
    methods = []
    original = Planner.choose

    def recording(self, *args, **kwargs):
        decision = original(self, *args, **kwargs)
        methods.append(decision[0])
        return decision

    monkeypatch.setattr(Planner, "choose", recording)
    return methods


def _pairs(result_set):
    return [(result.root, result.cost) for result in result_set]


def _read(reader, cold, planned, n=None, method="auto", costs=None):
    """``reader``'s answer, checked against the cache-off twin, and the
    methods its read planned."""
    del planned[:]
    served = reader.query(QUERY, n=n, method=method, costs=costs, collect="counters")
    plans = list(planned)
    assert _pairs(served) == _pairs(cold.query(QUERY, n=n, method=method, costs=costs))
    return served, plans


def _planner_counters(report):
    return {name for name in report.counters if name.startswith("planner.")}


def _write(hot, cold, xml):
    for database in (hot, cold):
        database.insert_document(xml)


def _sized_cd(before, share):
    """A ``cd`` of about ``share`` times ``before`` nodes, with the
    query's leaf ``title``: the write marks the cached entry for repair
    instead of carrying it."""
    artists = math.ceil((share * before - 3) / 2)
    return "<cd><title>x</title>" + "<artist>x</artist>" * artists + "</cd>"


def _repairs(database):
    stats = database.query_cache_stats()
    return stats["querycache.result_repairs"], stats["querycache.result_repair_fallbacks"]


# ----------------------------------------------------------------------
# hits and misses
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_miss_plans_once_and_a_hit_never(kind, tmp_path, planned):
    with _twins(kind, tmp_path) as (reader, _, cold):
        missed, plans = _read(reader, cold, planned)
        assert plans == ["direct"]  # full retrieval
        assert not missed.report.result_cache_hit
        assert missed.report.method == "direct"
        assert _planner_counters(missed.report)
        for n in (None, 2):
            served, plans = _read(reader, cold, planned, n=n)
            assert plans == []
            assert served.report.result_cache_hit
            assert served.report.method == "direct"
            assert not _planner_counters(served.report)


@pytest.mark.parametrize("kind", KINDS)
def test_a_served_read_names_the_storing_run_or_the_requested_method(kind, tmp_path, planned):
    with _twins(kind, tmp_path) as (reader, _, cold):
        stored, plans = _read(reader, cold, planned, method="schema")
        assert plans == [] and stored.report.method == "schema"
        for method, named in (("auto", "schema"), ("direct", "direct"), ("schema", "schema")):
            served, plans = _read(reader, cold, planned, n=2, method=method)
            assert plans == []
            assert served.report.result_cache_hit
            assert served.method == served.report.method == named


def test_a_merge_level_hit_builds_no_merged_statistics(tmp_path, planned, monkeypatch):
    built = []
    original = ShardedDatabase.collection_stats

    def counting(self):
        built.append(self)
        return original(self)

    monkeypatch.setattr(ShardedDatabase, "collection_stats", counting)
    with _twins("sharded", tmp_path) as (reader, _, cold):
        _read(reader, cold, planned)
        assert built.count(reader) == 1
        _read(reader, cold, planned, n=3)
        assert built.count(reader) == 1


def test_a_touched_merge_level_plans_once_and_its_shards_not_at_all(tmp_path, planned):
    """A write drops the merged entries it touches, so the next read is a
    merge-level miss: one plan, after which every shard answers under the
    chosen method, repairing its own entry without planning."""
    with _twins("sharded", tmp_path) as (reader, hot, cold):
        _read(reader, cold, planned)
        _write(hot, cold, NEW_DOC)
        served, plans = _read(reader, cold, planned)
        assert plans == ["direct"]
        assert not served.report.result_cache_hit
        assert served.report.get("querycache.shard_result_repairs") == 1


# ----------------------------------------------------------------------
# repairs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stored_by", ["auto", "schema"])
@pytest.mark.parametrize("kind", REPAIRING)
def test_a_repair_under_every_share_does_not_plan(kind, stored_by, tmp_path, planned):
    with _twins(kind, tmp_path) as (reader, hot, cold):
        _read(reader, cold, planned, method=stored_by)
        before = hot.node_count
        _write(hot, cold, NEW_DOC)
        assert hot.node_count - before < min(_REPAIR_DELTA_SHARE.values()) * before
        served, plans = _read(reader, cold, planned)
        assert plans == []
        assert served.report.result_cache_hit
        assert _repairs(hot) == (1, 0)
        assert served.report.method == ("direct" if stored_by == "auto" else "schema")
        assert not _planner_counters(served.report)


@pytest.mark.parametrize("decision", ["direct", "schema"])
@pytest.mark.parametrize("kind", REPAIRING)
def test_a_repair_inside_the_band_plans_once(kind, decision, tmp_path, planned, monkeypatch):
    """Between the two shares the plan decides: ``direct`` repairs and
    ``schema`` runs cold.  Every plan here is forced to ``decision``."""
    recording = Planner.choose

    def forced(self, *args, **kwargs):
        _, reason, estimates = recording(self, *args, **kwargs)
        return decision, reason, estimates

    monkeypatch.setattr(Planner, "choose", forced)
    with _twins(kind, tmp_path) as (reader, hot, cold):
        stored, _ = _read(reader, cold, planned, n=2)
        assert stored.report.method == decision
        before = hot.node_count
        _write(hot, cold, _sized_cd(before, 0.1))
        written = hot.node_count - before
        assert _REPAIR_DELTA_SHARE["schema"] * before <= written < _REPAIR_DELTA_SHARE["direct"] * before
        served, plans = _read(reader, cold, planned, n=2)
        assert len(plans) == 1
        assert _planner_counters(served.report)
        assert served.report.method == decision
        assert served.report.result_cache_hit == (decision == "direct")
        assert _repairs(hot) == ((1, 0) if decision == "direct" else (0, 1))


@pytest.mark.parametrize("method", ["direct", "schema"])
@pytest.mark.parametrize("kind", REPAIRING)
def test_inside_the_band_direct_repairs_and_schema_runs_cold(kind, method, tmp_path, planned):
    with _twins(kind, tmp_path) as (reader, hot, cold):
        _read(reader, cold, planned, method=method)
        _write(hot, cold, _sized_cd(hot.node_count, 0.1))
        served, plans = _read(reader, cold, planned, method=method)
        assert plans == []
        assert served.report.method == method
        assert served.report.result_cache_hit == (method == "direct")
        assert _repairs(hot) == ((1, 0) if method == "direct" else (0, 1))


@pytest.mark.parametrize("kind", REPAIRING)
def test_a_repair_past_every_share_plans_once_and_runs_cold(kind, tmp_path, planned):
    with _twins(kind, tmp_path) as (reader, hot, cold):
        _read(reader, cold, planned, n=2)
        _write(hot, cold, _sized_cd(hot.node_count, 0.3))
        served, plans = _read(reader, cold, planned, n=2)
        assert len(plans) == 1
        assert served.report.method == plans[0]
        assert not served.report.result_cache_hit
        assert _repairs(hot) == (0, 1)


# ----------------------------------------------------------------------
# a write marks an entry only when its documents hold a leaf
# ----------------------------------------------------------------------


def _direct_counters(report):
    return {name for name in report.counters if name.startswith("direct.")}


@pytest.mark.parametrize("kind", REPAIRING)
def test_written_documents_without_a_leaf_are_not_evaluated(kind, tmp_path, planned):
    """``LEAFLESS_DOC`` holds ``title`` only as a word, another node
    type than the query's leaf: the write carries the entry as it is, and
    the read is a plain hit with no repair and no direct pass.
    ``NEW_DOC`` holds the leaf: the write marks the entry, the repair's
    pass runs and the answer gains its ``cd``."""
    with _twins(kind, tmp_path) as (reader, hot, cold):
        _read(reader, cold, planned, method="schema")
        _write(hot, cold, LEAFLESS_DOC)
        served, plans = _read(reader, cold, planned, method="schema")
        assert served.report.result_cache_hit and plans == []
        assert _repairs(hot) == (0, 0)
        assert hot.query_cache_stats()["querycache.result_invalidations"] == 0
        assert not _direct_counters(served.report)
        _write(hot, cold, NEW_DOC)
        served, _ = _read(reader, cold, planned, method="schema")
        assert served.report.result_cache_hit
        assert _repairs(hot) == (1, 0)
        assert _direct_counters(served.report)
        assert len(served) == 5


@pytest.mark.parametrize("kind", REPAIRING)
def test_a_leaf_renaming_in_the_written_documents_is_evaluated(kind, tmp_path, planned):
    costs = CostModel()
    costs.add_renaming("title", "name", NodeType.STRUCT, 3)
    with _twins(kind, tmp_path) as (reader, hot, cold):
        _read(reader, cold, planned, costs=costs)
        _write(hot, cold, "<cd><name>x</name></cd>")
        served, _ = _read(reader, cold, planned, costs=costs)
        assert served.report.result_cache_hit
        assert _direct_counters(served.report)
        assert [cost for _, cost in _pairs(served)][-1] == 3
