"""Document mutation: the Database insert/delete/replace API.

Covers the memory and stored paths of the incremental maintenance
machinery — mutation reports, document bookkeeping, rollback on a failed
memory mutation, handle poisoning on a failed stored mutation, reopen
after persisted mutations, and the unified open/save/load entry points.
"""

import os

import pytest

from repro.approxql.costs import CostModel
from repro.core.database import Database
from repro.core.persist import StoreOptions
from repro.errors import EvaluationError
from repro.transform.naive import evaluate_naive
from repro.xmltree.model import NodeType

DOCS = [
    "<cd><title>disc one</title><artist>ann</artist></cd>",
    "<cd><title>disc two</title><artist>bob</artist></cd>",
    "<cd><title>disc three</title><artist>ann</artist></cd>",
]
NEW_DOC = "<cd><title>piano works</title><genre>classical</genre></cd>"


def _results(database, query="cd[title]", method="direct"):
    return sorted(
        (result.cost, result.xml()) for result in database.query(query, n=None, method=method)
    )


@pytest.fixture
def memory_db():
    return Database.from_documents(DOCS)


@pytest.fixture
def stored_db(tmp_path):
    path = os.path.join(tmp_path, "cat.apxq")
    Database.from_documents(DOCS).save(path, durability="wal")
    return Database.open(path, options=StoreOptions(durability="wal"))


class TestMemoryMutation:
    def test_insert_reports_and_grows(self, memory_db):
        before = memory_db.node_count
        report = memory_db.insert_document(NEW_DOC)
        assert report.action == "insert"
        assert report.generation == 1
        assert report.root == before
        assert report.nodes_added == memory_db.node_count - before
        assert report.removed_root is None
        assert memory_db.generation == 1
        assert len(memory_db.documents()) == 4
        # the new document is queryable through both algorithms
        for method in ("direct", "schema"):
            hits = memory_db.query('cd[genre["classical"]]', n=None, method=method)
            assert [hit.root for hit in hits] == [report.root]

    def test_insert_new_labels_renumbers_schema(self, memory_db):
        schema_before = len(memory_db.schema)
        report = memory_db.insert_document(NEW_DOC)
        assert report.classes_added > 0
        assert report.schema_renumbered
        assert len(memory_db.schema) == schema_before + report.classes_added

    def test_delete_tombstones_without_renumbering(self, memory_db):
        first, second, third = memory_db.documents()
        before = memory_db.node_count
        report = memory_db.delete_document(first)
        assert report.action == "delete"
        assert report.removed_root == first
        assert report.nodes_removed == second - first
        # tombstones stay in the arrays; survivors keep their pres
        assert memory_db.node_count == before
        assert memory_db.live_node_count == before - report.nodes_removed
        assert memory_db.documents() == (second, third)
        assert len(memory_db.query("cd[title]", n=None, method="direct")) == 2

    def test_replace_is_one_generation(self, memory_db):
        target = memory_db.documents()[1]
        report = memory_db.replace_document(target, NEW_DOC)
        assert report.action == "replace"
        assert report.removed_root == target
        assert report.root is not None
        assert memory_db.generation == 1
        assert len(memory_db.documents()) == 3
        hits = memory_db.query('cd[title["piano"]]', n=None, method="schema")
        assert [hit.root for hit in hits] == [report.root]

    def test_emptied_class_returns_on_reinsert(self):
        database = Database.from_documents([DOCS[0], NEW_DOC])
        genre_root = database.documents()[1]
        database.delete_document(genre_root)
        assert database.query("cd[genre]", n=None, method="schema") == []
        report = database.insert_document(NEW_DOC)
        # the class emptied by the delete is reused, not duplicated
        assert not report.schema_renumbered
        hits = database.query("cd[genre]", n=None, method="schema")
        assert [hit.root for hit in hits] == [report.root]

    def test_delete_rejects_non_roots(self, memory_db):
        with pytest.raises(EvaluationError):
            memory_db.delete_document(0)
        with pytest.raises(EvaluationError):
            memory_db.delete_document(2)  # a title node, not a document root
        with pytest.raises(EvaluationError):
            memory_db.delete_document(memory_db.node_count + 5)

    def test_delete_rejects_double_delete(self, memory_db):
        root = memory_db.documents()[0]
        memory_db.delete_document(root)
        with pytest.raises(EvaluationError, match="already deleted"):
            memory_db.delete_document(root)

    def test_failed_memory_mutation_rolls_back(self, memory_db, monkeypatch):
        baseline = _results(memory_db)
        nodes = memory_db.node_count

        def explode(*args, **kwargs):
            raise RuntimeError("injected schema failure")

        monkeypatch.setattr(
            "repro.core.database.update_schema_for_insert", explode
        )
        with pytest.raises(RuntimeError):
            memory_db.insert_document(NEW_DOC)
        monkeypatch.undo()
        # the graft was rolled back: same arrays, same answers, still writable
        assert memory_db.node_count == nodes
        assert memory_db.generation == 0
        assert _results(memory_db) == baseline
        memory_db.insert_document(NEW_DOC)
        assert len(memory_db.documents()) == 4


class TestSuperRootAfterInsert:
    """An insert grows the super-root's bound.  Its one-row posting — the
    stored ``#root`` key and schema class 0 — must follow, or a query
    that renames a selector to ``#root`` misses the grafted document."""

    @pytest.mark.parametrize("backend", ["memory", "stored"])
    @pytest.mark.parametrize("method", ["direct", "schema"])
    def test_renaming_to_the_super_root_sees_the_new_document(self, backend, method, tmp_path):
        database = Database.from_xml("<cd><title>piano</title></cd>")
        if backend == "stored":
            path = os.path.join(tmp_path, "root.apxq")
            database.save(path)
            database = Database.open(path)
        database.insert_document("<cd><title>organ</title></cd>")
        costs = CostModel().add_renaming("box", "#root", NodeType.STRUCT, 1)
        query = 'box[cd[title["organ"]]]'
        expected = sorted((p.root, p.cost) for p in evaluate_naive(query, database.tree, costs))
        assert expected == [(0, 1.0)]
        results = database.query(query, n=None, costs=costs, method=method)
        assert sorted((r.root, r.cost) for r in results) == expected


class TestStoredMutation:
    def test_mutations_persist_across_reopen(self, stored_db, tmp_path):
        stored_db.insert_document(NEW_DOC)
        stored_db.delete_document(stored_db.documents()[0])
        expected = _results(stored_db, method="schema")
        stored_db._store.close()
        reopened = Database.open(os.path.join(tmp_path, "cat.apxq"))
        assert _results(reopened, method="schema") == expected
        assert _results(reopened, method="direct") == expected
        assert len(reopened.documents()) == 3

    def test_mutation_is_one_commit(self, stored_db):
        generation = stored_db._store.generation
        report = stored_db.insert_document(NEW_DOC)
        assert report.keys_rewritten > 0
        # many key writes, exactly one commit boundary is observable as
        # a consistent post-state; the crash matrix kills inside it
        assert stored_db._store.generation > generation

    def test_failed_stored_mutation_poisons_handle(self, stored_db, monkeypatch):
        from repro.core import database as database_module

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected index failure")

        monkeypatch.setattr(
            database_module.StoreMutator, "update_node_postings", explode
        )
        with pytest.raises(RuntimeError):
            stored_db.insert_document(NEW_DOC)
        monkeypatch.undo()
        # uncommitted half-writes may sit in btree memory: the handle is dead
        with pytest.raises(EvaluationError, match="unusable"):
            stored_db.query("cd[title]")
        with pytest.raises(EvaluationError, match="unusable"):
            stored_db.insert_document(NEW_DOC)
        with pytest.raises(EvaluationError, match="unusable"):
            stored_db.snapshot()

    def test_reopen_recovers_after_poisoned_handle(self, stored_db, tmp_path, monkeypatch):
        from repro.core import database as database_module

        baseline = _results(stored_db)

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected index failure")

        monkeypatch.setattr(
            database_module.StoreMutator, "update_node_postings", explode
        )
        with pytest.raises(RuntimeError):
            stored_db.insert_document(NEW_DOC)
        monkeypatch.undo()
        stored_db._store.close()
        reopened = Database.open(os.path.join(tmp_path, "cat.apxq"))
        assert _results(reopened) == baseline
        reopened.insert_document(NEW_DOC)
        assert len(reopened.documents()) == 4

    def test_save_compacts_tombstones(self, stored_db, tmp_path):
        stored_db.insert_document(NEW_DOC)
        stored_db.delete_document(stored_db.documents()[0])
        expected = _results(stored_db, method="schema")
        dense_path = os.path.join(tmp_path, "dense.apxq")
        stored_db.save(dense_path)
        dense = Database.open(dense_path)
        assert dense.node_count == stored_db.live_node_count
        assert dense.tree.dead_roots == set()
        assert _results(dense, method="schema") == expected

    def test_integer_cost_requirement_enforced_before_writes(self, tmp_path):
        path = os.path.join(tmp_path, "frac.apxq")
        costs = CostModel(default_insert_cost=1)
        Database.from_documents(DOCS, default_costs=costs).save(path)
        database = Database.open(path)
        database._pipeline.default_costs = CostModel(default_insert_cost=1.5)
        baseline_keys = dict(database._store.scan())
        from repro.errors import SchemaError

        with pytest.raises(SchemaError, match="integer insert costs"):
            database.insert_document(NEW_DOC)
        # the check fired before the first store write: nothing changed
        assert dict(database._store.scan()) == baseline_keys


class TestUnifiedEntryPoints:
    def test_open_takes_store_options_and_keyword_overrides(self, tmp_path):
        path = os.path.join(tmp_path, "cat.apxq")
        Database.from_documents(DOCS).save(path)
        options = StoreOptions(page_cache_pages=4, posting_cache_bytes=0)
        database = Database.open(path, options, durability="wal")
        # keyword overrides win over the options object's fields
        assert database._store.durability == "wal"
        assert database._store_options.page_cache_pages == 4
        assert len(database.query("cd[title]", n=None)) == 3

    def test_save_takes_store_options(self, tmp_path):
        path = os.path.join(tmp_path, "cat.apxq")
        Database.from_documents(DOCS).save(path, StoreOptions(durability="wal"))
        assert os.path.exists(path)
        assert len(Database.open(path).query("cd[title]", n=None)) == 3

    def test_resolution_errors_identical_across_entry_points(self, tmp_path):
        path = os.path.join(tmp_path, "cat.apxq")
        Database.from_documents(DOCS).save(path)
        database = Database.open(path)
        other_costs = CostModel(default_insert_cost=7)
        failures = {}
        for name, call in {
            "query": lambda: database.query("cd[title]", costs=other_costs),
            "count_results": lambda: database.count_results("cd[title]", costs=other_costs),
            "stream": lambda: database.stream("cd[title]", costs=other_costs),
            "explain": lambda: database.explain("cd[title]", costs=other_costs),
        }.items():
            with pytest.raises(EvaluationError) as excinfo:
                call()
            failures[name] = str(excinfo.value)
        assert len(set(failures.values())) == 1, failures


class TestMutationReportRendering:
    def test_format_mentions_everything(self, memory_db):
        report = memory_db.insert_document(NEW_DOC)
        rendered = report.format()
        assert "insert" in rendered
        assert f"root pre={report.root}" in rendered
        assert "generation 1" in rendered

    def test_mutation_counters_flow_to_telemetry(self, stored_db):
        stored_db.insert_document(NEW_DOC)
        result = stored_db.query("cd[title]", n=None, collect="counters")
        # overlay hits only appear for pinned readers; the plain query
        # runs against the current generation and reads the store
        assert result.report.overlay_hits == 0
        assert result.report.pages_read >= 0
