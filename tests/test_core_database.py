"""Tests for the Database façade, QueryResult, and persistence."""

import pytest

from repro import Database
from repro.approxql.costs import CostModel, paper_example_cost_model
from repro.errors import EvaluationError

CATALOG = """
<catalog>
  <cd year="1998">
    <title>the piano concertos</title>
    <composer>rachmaninov</composer>
    <tracks><track><title>vivace</title></track></tracks>
  </cd>
  <cd>
    <title>piano sonata</title>
    <performer>ashkenazy</performer>
  </cd>
  <mc>
    <category>piano concerto</category>
    <composer>rachmaninov</composer>
  </mc>
</catalog>
"""


@pytest.fixture
def db():
    return Database.from_xml(CATALOG)


class TestConstruction:
    def test_from_xml_fragment_with_multiple_roots(self):
        db = Database.from_xml("<a>x</a><b>y</b>")
        assert len(db.tree.document_roots()) == 2

    def test_from_documents(self):
        db = Database.from_documents(["<a>x</a>", "<b>y</b>"])
        assert len(db.tree.document_roots()) == 2

    def test_from_tree(self, db):
        again = Database.from_tree(db.tree)
        assert again.node_count == db.node_count

    def test_from_directory(self, tmp_path):
        (tmp_path / "a.xml").write_text("<cd><title>piano</title></cd>", encoding="utf-8")
        (tmp_path / "b.xml").write_text("<mc><title>cello</title></mc>", encoding="utf-8")
        (tmp_path / "ignored.txt").write_text("<dvd/>", encoding="utf-8")
        db = Database.from_directory(str(tmp_path))
        assert len(db.tree.document_roots()) == 2
        # deterministic order: a.xml before b.xml
        assert db.tree.label(db.tree.document_roots()[0]) == "cd"

    def test_from_directory_empty_rejected(self, tmp_path):
        with pytest.raises(EvaluationError):
            Database.from_directory(str(tmp_path))

    def test_describe(self, db):
        description = db.describe()
        assert "data nodes" in description
        assert "schema nodes" in description

    def test_suggest_costs(self, db):
        model = db.suggest_costs()
        # the collection has composer/performer as cd siblings
        from repro.approxql.costs import INFINITE
        from repro.xmltree.model import NodeType

        assert model.rename_cost("composer", "performer", NodeType.STRUCT) != INFINITE
        results = db.query('cd[performer["rachmaninov"]]', n=None, costs=model)
        assert results  # the composer entry is reachable via the rename


class TestQuerying:
    def test_exact_query_default_method(self, db):
        results = db.query('cd[title["piano"]]')
        assert [r.label for r in results] == ["cd", "cd"]
        assert all(r.cost == 0 for r in results)

    def test_methods_agree(self, db):
        costs = paper_example_cost_model()
        text = 'cd[title["piano" and "concerto"] and composer["rachmaninov"]]'
        direct = db.query(text, n=None, costs=costs, method="direct")
        schema = db.query(text, n=None, costs=costs, method="schema")
        assert direct == schema

    def test_unknown_method_rejected(self, db):
        with pytest.raises(EvaluationError):
            db.query("cd", method="magic")

    def test_n_defaults_to_ten(self, db):
        results = db.query('cd[title["piano"]]')
        assert len(results) <= 10

    def test_schema_counters_reported(self, db):
        results = db.query('cd[title["piano"]]', n=1, method="schema", collect="counters")
        assert results.report.second_level_queries >= 1

    def test_stream_yields_in_cost_order(self, db):
        costs = paper_example_cost_model()
        streamed = list(db.stream('cd[title["piano"]]', costs))
        assert [r.cost for r in streamed] == sorted(r.cost for r in streamed)
        assert streamed == db.query('cd[title["piano"]]', n=None, costs=costs, method="direct")

    def test_count_results(self, db):
        assert db.count_results('cd[title["piano"]]') == 2

    def test_default_costs_used(self):
        db = Database.from_xml(CATALOG, default_costs=paper_example_cost_model())
        results = db.query('cd[title["piano"]]', n=None)
        assert {r.label for r in results} == {"cd", "mc"}


class TestQueryResult:
    def test_label_and_path(self, db):
        (result,) = db.query("mc", n=1)
        assert result.label == "mc"
        assert result.path == "/catalog/mc"

    def test_words(self, db):
        results = db.query('cd[performer["ashkenazy"]]', n=1)
        assert "sonata" in results[0].words()

    def test_outline(self, db):
        (result,) = db.query("mc", n=1)
        outline = result.outline()
        assert "category" in outline
        assert "piano" in outline

    def test_xml_roundtrip_parses(self, db):
        from repro.xmltree.parser import parse_document

        (result,) = db.query("mc", n=1)
        parsed = parse_document(result.xml())
        assert parsed.tag == "mc"
        assert "piano" in parsed.text_content()

    def test_xml_attribute_nodes_rendered(self, db):
        results = db.query('cd[year["1998"]]', n=1)
        assert "<year>1998</year>" in results[0].xml()

    def test_equality_and_hash(self, db):
        first = db.query("mc", n=1)[0]
        second = db.query("mc", n=1)[0]
        assert first == second
        assert hash(first) == hash(second)

    def test_similarity_transform(self, db):
        costs = paper_example_cost_model()
        results = db.query('cd[title["piano"]]', n=None, costs=costs)
        assert results[0].similarity == 1.0  # cost 0
        similarities = [r.similarity for r in results]
        assert similarities == sorted(similarities, reverse=True)
        assert all(0 < s <= 1 for s in similarities)


class TestPersistence:
    def test_save_load_roundtrip(self, db, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        db.save(path)
        loaded = Database.open(path)
        assert loaded.node_count == db.node_count
        original = db.query('cd[title["piano"]]', n=None)
        restored = loaded.query('cd[title["piano"]]', n=None)
        assert [(r.root, r.cost) for r in original] == [(r.root, r.cost) for r in restored]

    def test_loaded_db_runs_both_methods(self, db, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        db.save(path)
        loaded = Database.open(path)
        costs = paper_example_cost_model()
        # the paper model keeps default insert costs only for some labels;
        # saved with unit costs, so use delete/rename-only model
        unit_costs = CostModel()
        unit_costs.set_delete_cost("concerto", 1, 6)  # NodeType.TEXT == 1
        text = 'cd[title["piano"]]'
        assert loaded.query(text, n=None, method="direct") == loaded.query(
            text, n=None, method="schema"
        )

    def test_loaded_db_rejects_different_insert_costs(self, db, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        db.save(path)
        loaded = Database.open(path)
        with pytest.raises(EvaluationError):
            loaded.query("cd", costs=CostModel(default_insert_cost=7))

    def test_save_with_custom_insert_costs(self, tmp_path):
        costs = CostModel()
        costs.set_insert_cost("tracks", 5)
        db = Database.from_xml(CATALOG, default_costs=costs)
        path = str(tmp_path / "weighted.apxq")
        db.save(path)
        loaded = Database.open(path)
        results = loaded.query('cd[title["vivace"]]', n=None)
        assert [r.cost for r in results] == [6.0]  # tracks(5) + track(1)

    def test_loaded_tree_structure_matches(self, db, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        db.save(path)
        loaded = Database.open(path)
        assert loaded.tree.labels == db.tree.labels
        assert loaded.tree.parents == db.tree.parents
        assert loaded.tree.bounds == db.tree.bounds
        for pre in range(len(db.tree)):
            assert loaded.tree.children(pre) == db.tree.children(pre)
