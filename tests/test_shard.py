"""Unit tests for the sharded scatter-gather layer.

The contract under test: a :class:`~repro.shard.ShardedDatabase` answers
every *document-rooted* query exactly as the equivalent single-store
:class:`~repro.core.database.Database` would — same global root pre
numbers, same costs, best-n prefixes in the canonical (cost, root)
order — while routing mutations to owning shards and persisting a
manifest that survives close/reopen.  Randomized parity is in
``test_shard_oracle.py``; these tests pin the mechanics.
"""

import json
import os

import pytest

from repro.core.database import Database
from repro.errors import EvaluationError, ShardError, StorageError
from repro.shard import (
    MANIFEST_NAME,
    DocumentEntry,
    ShardManifest,
    ShardedDatabase,
    is_sharded_directory,
)
from repro.shard.partition import (
    PARTITIONERS,
    assign_insert,
    check_partitioner,
    hash_assign,
    range_assign,
)

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
  <cd><title>cello sonata</title><composer>chopin</composer></cd>
</catalog>
"""

SHOP = """
<shop>
  <cd><title>etudes</title><composer>chopin</composer></cd>
</shop>
"""

LIBRARY = """
<library>
  <book><title>piano technique</title><author>neuhaus</author></book>
  <book><title>on conducting</title><author>wagner</author></book>
</library>
"""

DOCUMENTS = [CATALOG, SHOP, LIBRARY]

NEW_DOC = "<catalog><cd><title>nocturnes</title><composer>field</composer></cd></catalog>"


def _canonical(results):
    return [(r.cost, r.root) for r in results]


def _reference(query, n=None, costs=None):
    """The single-store answer, filtered to document-rooted results
    (the sharded layer's contract excludes the collection super-root)."""
    single = Database.from_xml(*DOCUMENTS)
    results = [r for r in single.query(query, n=None, costs=costs) if r.root != 0]
    ordered = sorted((r.cost, r.root) for r in results)
    return ordered if n is None else ordered[:n]


# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------


def test_partitioner_names():
    assert PARTITIONERS == ("hash", "range")
    with pytest.raises(EvaluationError):
        check_partitioner("roundrobin")


def test_hash_assign_is_deterministic_and_in_range():
    for shards in (1, 2, 5):
        for ordinal in range(50):
            shard = hash_assign(ordinal, shards)
            assert shard == hash_assign(ordinal, shards)
            assert 0 <= shard < shards


def test_range_assign_is_contiguous_and_covers_all():
    sizes = [10, 3, 8, 2, 12, 5, 7]
    assignment = range_assign(sizes, 3)
    assert len(assignment) == len(sizes)
    # contiguous runs: shard ids never decrease across document order
    assert assignment == sorted(assignment)
    assert set(assignment) <= {0, 1, 2}


def test_range_assign_single_shard():
    assert range_assign([5, 5, 5], 1) == [0, 0, 0]


def test_assign_insert_routes_by_partitioner():
    assert assign_insert("hash", 7, 3) == hash_assign(7, 3)
    assert assign_insert("range", 7, 3) == 2  # appends to the last shard


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = ShardManifest(shards=2, partitioner="hash")
    manifest.add_document(shard=1, local_root=1, global_root=1, nodes=7)
    manifest.add_document(shard=0, local_root=1, global_root=8, nodes=5)
    manifest.save(str(tmp_path))
    assert is_sharded_directory(str(tmp_path))

    loaded = ShardManifest.load(str(tmp_path))
    assert loaded.shards == 2
    assert loaded.partitioner == "hash"
    assert loaded.next_doc_id == 2
    assert loaded.global_nodes == 13
    assert [e.doc_id for e in loaded.live_documents()] == [0, 1]
    assert loaded.find_by_global_root(8).shard == 0
    assert loaded.find_by_global_root(99) is None


def test_manifest_rejects_garbage(tmp_path):
    path = tmp_path / MANIFEST_NAME
    path.write_text("not json")
    with pytest.raises(StorageError):
        ShardManifest.load(str(tmp_path))
    path.write_text(json.dumps({"format": 99, "shards": 1, "partitioner": "hash"}))
    with pytest.raises(StorageError):
        ShardManifest.load(str(tmp_path))


def test_is_sharded_directory_negative(tmp_path):
    assert not is_sharded_directory(str(tmp_path))
    assert not is_sharded_directory(str(tmp_path / "absent"))
    assert not is_sharded_directory(__file__)


# ----------------------------------------------------------------------
# construction and querying
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2, 5])
@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_query_matches_single_store(shards, partitioner):
    sharded = ShardedDatabase.from_documents(
        DOCUMENTS, shards=shards, partitioner=partitioner
    )
    for query in ('cd[title["piano"]]', 'book[author["wagner"]]', "title"):
        for n in (1, 2, 3, None):
            got = _canonical(sharded.query(query, n=n))
            assert got == _reference(query, n=n), (query, n, shards, partitioner)


def test_stream_prefix_guarantee():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    reference = _reference("title", n=3)
    stream = sharded.stream("title")
    got = []
    try:
        for result in stream:
            got.append((result.cost, result.root))
            if len(got) == 3:
                break
    finally:
        stream.close()
    assert got == reference


def test_count_results_matches_single_store():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    single = Database.from_xml(*DOCUMENTS)
    for query in ("title", 'cd[title["piano"]]', "nosuchlabel"):
        expected = sum(
            1 for r in single.query(query, n=None, method="direct") if r.root != 0
        )
        assert sharded.count_results(query) == expected, query


def test_explain_matches_roots():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    explanations = sharded.explain('cd[title["piano"]]', n=2)
    assert [e.root for e in explanations] == [
        root for _, root in _reference('cd[title["piano"]]', n=2)
    ]


def test_query_many_matches_individual_queries():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    queries = ["title", 'cd[title["piano"]]', "book"]
    batched = sharded.query_many(queries, n=3)
    for query, result_set in zip(queries, batched):
        assert _canonical(result_set) == _canonical(sharded.query(query, n=3))


@pytest.mark.parametrize("method, n", [("direct", None), ("auto", 10)])
def test_query_many_mixed_insert_tables_match_single_store(method, n):
    """A batch mixing insert-cost tables on in-memory shards: each
    evaluation re-encodes its shard's shared per-node cost arrays for its
    own table, and the batch's answers equal the unsharded
    collection's."""
    from repro.approxql.costs import CostModel
    from repro.xmltree.model import NodeType

    documents = [
        f"<shop><cd><disc><side><title>piano {i % 7}</title></side></disc>"
        f"<label><name>house {i % 5}</name></label></cd>"
        f"<dvd><title>piano {i % 3}</title></dvd></shop>"
        for i in range(300)
    ]
    tables = []
    for base in (1, 4, 9):
        costs = CostModel(default_insert_cost=base)
        costs.set_insert_cost("disc", base + 2)
        costs.add_renaming("cd", "dvd", NodeType.STRUCT, base)
        tables.append(costs)
    queries = ['cd[title["piano"]]', "cd[title]", 'shop[title["piano"]]', "cd[name]"]
    items = [(query, costs) for query in queries for costs in tables]
    sharded = ShardedDatabase.from_documents(documents, shards=2)
    single = Database.from_documents(documents)
    batched = sharded.query_many(items, n=n, method=method)
    for (query, costs), got in zip(items, batched):
        truth = sorted(
            (r.cost, r.root)
            for r in single.query(query, n=None, costs=costs, method="direct")
            if r.root != 0
        )
        assert _canonical(got) == (truth if n is None else truth[:n])
    sharded.close()


def test_shard_result_accessors():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    (result,) = sharded.query('cd[title["piano"]]', n=1)
    assert result.label == "cd"
    assert result.path.endswith("/cd")
    assert "piano" in " ".join(result.words())
    assert "<cd>" in result.xml()
    assert "cd" in result.outline()
    assert result.shard in (0, 1)


def test_empty_shards_are_harmless():
    sharded = ShardedDatabase.from_documents([CATALOG], shards=5)
    assert _canonical(sharded.query("cd", n=None)) == sorted(
        (r.cost, r.root)
        for r in Database.from_xml(CATALOG).query("cd", n=None)
        if r.root != 0
    )


def test_describe_mentions_shards():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    description = sharded.describe()
    assert "2 shards" in description
    assert "3 documents" in description


# ----------------------------------------------------------------------
# mutation routing
# ----------------------------------------------------------------------


def _mutation_parity(partitioner):
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2, partitioner=partitioner)
    single = Database.from_xml(*DOCUMENTS)

    report = sharded.insert_document(NEW_DOC)
    single_report = single.insert_document(NEW_DOC)
    assert report.root == single_report.root
    assert sharded.documents() == single.documents()

    victim = sharded.documents()[1]
    sharded.delete_document(victim)
    single.delete_document(victim)
    assert sharded.documents() == single.documents()

    target = sharded.documents()[0]
    replace = sharded.replace_document(target, NEW_DOC)
    single_replace = single.replace_document(target, NEW_DOC)
    assert replace.root == single_replace.root
    assert sharded.documents() == single.documents()

    for query in ("cd", "title", 'cd[title["nocturnes"]]'):
        expected = sorted(
            (r.cost, r.root) for r in single.query(query, n=None) if r.root != 0
        )
        assert _canonical(sharded.query(query, n=None)) == expected, query


@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_mutations_match_single_store(partitioner):
    _mutation_parity(partitioner)


def test_delete_unknown_root_raises():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    with pytest.raises(EvaluationError):
        sharded.delete_document(99999)


def test_generation_advances_per_mutation():
    sharded = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    assert sharded.generation == 0
    sharded.insert_document(NEW_DOC)
    assert sharded.generation == 1
    sharded.delete_document(sharded.documents()[0])
    assert sharded.generation == 2


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def test_save_open_round_trip(tmp_path):
    directory = str(tmp_path / "shop.d")
    built = ShardedDatabase.from_documents(DOCUMENTS, shards=2)
    reference = _canonical(built.query("title", n=None))
    built.save(directory)
    assert is_sharded_directory(directory)

    with ShardedDatabase.open(directory) as reopened:
        assert _canonical(reopened.query("title", n=None)) == reference
        assert reopened.documents() == built.documents()


def test_mutations_persist_across_reopen(tmp_path):
    directory = str(tmp_path / "shop.d")
    ShardedDatabase.from_documents(DOCUMENTS, shards=2).save(directory)

    with ShardedDatabase.open(directory) as database:
        report = database.insert_document(NEW_DOC)
        new_root = report.root
        expected = database.documents()

    with ShardedDatabase.open(directory) as database:
        assert database.documents() == expected
        assert new_root in database.documents()
        results = database.query('cd[title["nocturnes"]]', n=None)
        assert new_root + 1 in [r.root for r in results]


def test_save_into_open_directory_is_refused(tmp_path):
    # regression: saving compacts the on-disk shard stores, but the live
    # in-memory shards keep their uncompacted numbering — a later
    # mutation would republish the stale manifest over the compacted
    # stores and the next open() would find a torn directory
    directory = str(tmp_path / "shop.d")
    ShardedDatabase.from_documents(DOCUMENTS, shards=2).save(directory)
    exported = str(tmp_path / "export.d")
    with ShardedDatabase.open(directory) as database:
        database.delete_document(database.documents()[0])
        with pytest.raises(ShardError, match="currently open directory"):
            database.save(directory)
        with pytest.raises(ShardError, match="currently open directory"):
            database.save(os.path.join(str(tmp_path), "shop.d"))
        database.save(exported)  # exporting elsewhere still works
        expected = database.documents()
    with ShardedDatabase.open(exported) as reopened:
        assert reopened.documents() == expected
    with ShardedDatabase.open(directory) as original:
        assert original.documents() == expected


def test_open_detects_manifest_shard_mismatch(tmp_path):
    directory = str(tmp_path / "shop.d")
    ShardedDatabase.from_documents(DOCUMENTS, shards=2).save(directory)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    payload = json.loads(open(manifest_path, encoding="utf-8").read())
    payload["documents"] = payload["documents"][:-1]  # drop one entry
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(ShardError):
        ShardedDatabase.open(directory)


def test_close_is_idempotent_and_blocks_use(tmp_path):
    directory = str(tmp_path / "shop.d")
    ShardedDatabase.from_documents(DOCUMENTS, shards=2).save(directory)
    database = ShardedDatabase.open(directory)
    database.close()
    database.close()
    with pytest.raises(EvaluationError):
        database.query("title")
    with pytest.raises(EvaluationError):
        database.insert_document(NEW_DOC)
