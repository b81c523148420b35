"""Statistics round-trip properties.

The planner's contract with the rest of the engine is that
:class:`~repro.planner.stats.CollectionStats` always describes the
generation it is stamped with *exactly*.  The statistics are read off
the schema (:meth:`CollectionStats.from_schema`) and maintained
incrementally by mutations (:meth:`CollectionStats.apply_mutation`);
each property here pins one leg of that contract: schema-derived sizes
equal the node indexes' posting lengths (an independent reference, and
on a stored handle a separate on-disk structure), incremental stats
equal schema-derived ones after every mutation, after reopen and on a
pinned snapshot, and merged per-shard statistics equal the unsharded
collection's.  Exactness is what lets the planner trust its candidate
estimate as an upper bound on what a query returns; the last property
checks that bound directly on every handle kind.
"""

import os
import random
from dataclasses import replace

import pytest

from repro.core.database import Database
from repro.core.persist import StoreOptions
from repro.planner.stats import CollectionStats, merge_stats
from repro.shard import ShardedDatabase
from repro.xmltree.model import NodeType

from .strategies import generated_case

DOCS = [
    "<cd><title>disc one</title><artist>ann</artist></cd>",
    "<cd><title>disc two</title><artist>bob</artist></cd>",
    "<cd><title>disc three</title><artist>ann</artist><genre>jazz</genre></cd>",
]
NEW_DOC = "<cd><title>piano works</title><genre>classical</genre></cd>"


def _from_schema(database, generation=None):
    state = database._state
    if generation is None:
        generation = state.generation
    return CollectionStats.from_schema(state.ensure_schema(), generation=generation)


def _assert_matches_node_indexes(stats, indexes):
    """Every label and term: the stats' size is the posting length the
    node indexes deliver, and no label is missing on either side."""
    for node_type, sizes in (
        (NodeType.STRUCT, stats.struct_sizes),
        (NodeType.TEXT, stats.text_sizes),
    ):
        labels = set(indexes.labels(node_type))
        assert set(sizes) <= labels
        for label in labels:
            assert stats.posting_size(label, node_type) == len(indexes.fetch(label, node_type))


def _random_doc(rng):
    labels = ["cd", "dvd", "book"]
    label = rng.choice(labels)
    title = " ".join(rng.choice(["alpha", "beta", "gamma", "delta"]) for _ in range(2))
    return f"<{label}><title>{title}</title><artist>x{rng.randrange(4)}</artist></{label}>"


class TestBuildEquality:
    def test_build_stats_equal_scratch_walk(self):
        database = Database.from_documents(DOCS)
        stats = database.collection_stats()
        assert stats == _from_schema(database)
        tree = database.tree
        sizes = {NodeType.STRUCT: {}, NodeType.TEXT: {}}
        for pre in range(len(tree)):
            counts = sizes[tree.types[pre]]
            counts[tree.labels[pre]] = counts.get(tree.labels[pre], 0) + 1
        assert stats == CollectionStats(
            generation=0,
            struct_sizes=sizes[NodeType.STRUCT],
            text_sizes=sizes[NodeType.TEXT],
        )

    def test_struct_sizes_match_index_posting_sizes(self):
        database = Database.from_documents(DOCS)
        _assert_matches_node_indexes(
            database.collection_stats(), database._state.ensure_node_indexes()
        )

    def test_randomized_collections_build_equal_scratch(self):
        for seed in range(5):
            case = generated_case(2500 + seed, num_elements=60)
            database = Database.from_tree(case.tree)
            stats = database.collection_stats()
            assert stats == _from_schema(database)
            _assert_matches_node_indexes(stats, database._state.ensure_node_indexes())


class TestPersistenceEquality:
    def test_stats_survive_save_open(self, tmp_path):
        path = os.path.join(tmp_path, "cat.apxq")
        database = Database.from_documents(DOCS)
        built = database.collection_stats()
        database.save(path)
        with Database.open(path) as reopened:
            assert reopened.collection_stats() == built
            # the stored I_struct / I_text postings are the reference
            _assert_matches_node_indexes(
                reopened.collection_stats(), reopened._state.node_indexes
            )


class TestMutationEquality:
    """Incremental maintenance == schema-derived stats after every
    mutation op, and both == the node indexes."""

    def _check(self, database):
        stats = database.collection_stats()
        assert stats == _from_schema(database)
        _assert_matches_node_indexes(stats, database._state.node_indexes)

    def test_insert_memory(self):
        database = Database.from_documents(DOCS)
        database.insert_document(NEW_DOC)
        self._check(database)

    def test_delete_memory(self):
        database = Database.from_documents(DOCS)
        database.delete_document(database.documents()[0])
        self._check(database)

    def test_replace_memory(self):
        database = Database.from_documents(DOCS)
        database.replace_document(database.documents()[1], NEW_DOC)
        self._check(database)

    def test_mutation_chain_stored(self, tmp_path):
        path = os.path.join(tmp_path, "mut.apxq")
        Database.from_documents(DOCS).save(path, durability="wal")
        database = Database.open(path, options=StoreOptions(durability="wal"))
        report = database.insert_document(NEW_DOC)
        self._check(database)
        database.replace_document(report.root, "<cd><title>swap</title></cd>")
        self._check(database)
        database.delete_document(database.documents()[0])
        self._check(database)
        kept = database.collection_stats()
        database.close()
        # reopening derives the same numbers from the recovered tree
        with Database.open(path) as reopened:
            assert reopened.collection_stats() == replace(kept, generation=0)
            self._check(reopened)

    def test_randomized_mutation_walk(self, tmp_path):
        rng = random.Random(4121)
        path = os.path.join(tmp_path, "walk.apxq")
        Database.from_documents(DOCS).save(path, durability="wal")
        database = Database.open(path, options=StoreOptions(durability="wal"))
        for step in range(20):
            op = rng.choice(["insert", "insert", "delete", "replace"])
            documents = database.documents()
            if op == "insert" or len(documents) < 2:
                database.insert_document(_random_doc(rng))
            elif op == "delete":
                database.delete_document(rng.choice(documents))
            else:
                database.replace_document(rng.choice(documents), _random_doc(rng))
            self._check(database)
        database.close()
        with Database.open(path) as reopened:
            self._check(reopened)


class TestShardMerge:
    def test_merged_shard_stats_equal_unsharded(self, tmp_path):
        documents = [
            "<catalog><cd><title>piano etudes</title></cd></catalog>",
            "<catalog><cd><title>cello suites</title></cd></catalog>",
            "<library><book><title>piano technique</title></book></library>",
            "<shop><cd><title>organ works</title></cd></shop>",
        ]
        single = Database.from_documents(documents)
        sharded = ShardedDatabase.from_documents(documents, shards=3)
        assert sharded.collection_stats() == single.collection_stats()

    def test_merge_empty_list_is_empty_stats(self):
        assert merge_stats([]) == CollectionStats()


class TestEngineStateIntegration:
    def test_snapshot_keeps_its_generations_stats(self):
        database = Database.from_documents(DOCS)
        before = database.collection_stats()
        with database.snapshot() as snap:
            database.insert_document(NEW_DOC)
            # the pinned snapshot still serves its own generation, and its
            # copy-on-write schema still derives exactly those sizes
            assert snap._state.ensure_stats() == before
            assert CollectionStats.from_schema(snap._state.schema) == before
        after = database.collection_stats()
        assert after != before
        assert after == _from_schema(database)


def _handle(kind, case, tmp_path):
    if kind == "memory":
        return Database.from_tree(case.tree)
    if kind == "sharded":
        return ShardedDatabase.from_tree(case.tree, shards=2)
    path = os.path.join(tmp_path, "bound.apxq")
    Database.from_tree(case.tree).save(path, durability="wal")
    return Database.open(path, options=StoreOptions(durability="wal"))


def _assert_candidates_bound_results(handle, case):
    for generated in case.queries:
        plan = handle.plan(generated.query, n=None, costs=generated.costs)
        results = handle.query(
            generated.query, n=None, costs=generated.costs, method="direct"
        )
        assert plan.estimates.candidate_roots >= len(results), case.describe()


class TestCandidateBound:
    """Full retrieval never returns more roots than the planner's
    candidate estimate, on every handle kind and after mutations."""

    @pytest.mark.parametrize("kind", ["memory", "stored", "sharded"])
    @pytest.mark.parametrize("seed", range(3))
    def test_candidate_roots_bound_full_retrieval(self, kind, seed, tmp_path):
        case = generated_case(2600 + seed, num_elements=60)
        handle = _handle(kind, case, tmp_path)
        _assert_candidates_bound_results(handle, case)
        rng = random.Random(seed)
        for op in ("insert", "delete", "replace", "insert", "delete"):
            documents = handle.documents()
            if op == "insert":
                handle.insert_document(_random_doc(rng))
            elif op == "delete":
                handle.delete_document(rng.choice(documents))
            else:
                handle.replace_document(rng.choice(documents), _random_doc(rng))
            _assert_candidates_bound_results(handle, case)
        handle.close()
