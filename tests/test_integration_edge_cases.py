"""Integration edge cases across the whole pipeline."""

import pytest

from repro import Database
from repro.approxql.costs import CostModel
from repro.engine.evaluator import DirectEvaluator
from repro.schema.evaluator import SchemaEvaluator
from repro.transform.naive import evaluate_naive
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType


def all_pairs(tree, query, costs=None):
    costs = costs or CostModel()
    direct = [(r.root, r.cost) for r in DirectEvaluator(tree).evaluate(query, costs)]
    schema = [(r.root, r.cost) for r in SchemaEvaluator(tree).evaluate(query, costs)]
    naive = [(p.root, p.cost) for p in evaluate_naive(query, tree, costs)]
    assert dict(direct) == dict(schema) == dict(naive)
    return direct


class TestRecursiveData:
    """Same-label nesting (l > 1) stresses the interval joins."""

    def test_nested_same_label(self):
        tree = tree_from_xml("<part><part><part><name>bolt</name></part></part></part>")
        results = all_pairs(tree, 'part[name["bolt"]]')
        # all three part nodes are results, at distances 2, 1, 0
        assert [cost for _, cost in results] == [0.0, 1.0, 2.0]

    def test_recursive_query_on_recursive_data(self):
        tree = tree_from_xml("<part><part><name>bolt</name></part><name>engine</name></part>")
        results = all_pairs(tree, 'part[part[name["bolt"]]]')
        assert len(results) == 1

    def test_deep_recursion(self):
        xml = "<a>" * 12 + "x" + "</a>" * 12
        tree = tree_from_xml(xml)
        results = all_pairs(tree, 'a["x"]')
        assert len(results) == 12
        assert results[0][1] == 0.0
        assert results[-1][1] == 11.0


class TestLabelCollisions:
    def test_element_and_term_share_spelling(self):
        tree = tree_from_xml("<cd><cd>cd</cd></cd>")
        # the text selector must match only the word, the name selector
        # only elements
        results = all_pairs(tree, 'cd["cd"]')
        assert len(results) == 2

    def test_rename_across_types_not_possible(self):
        tree = tree_from_xml("<cd>mc</cd>")
        costs = CostModel().add_renaming("cd", "mc", NodeType.STRUCT, 1)
        # struct renaming must not let the name selector match the word
        results = all_pairs(tree, "mc", costs)
        assert results == []


class TestDegenerateCollections:
    def test_empty_collection(self):
        db = Database.from_xml()
        assert db.query("cd") == []
        assert db.query("cd", method="direct") == []

    def test_single_empty_document(self):
        results = all_pairs(tree_from_xml("<cd/>"), "cd")
        assert len(results) == 1

    def test_query_for_missing_labels(self):
        tree = tree_from_xml("<cd>x</cd>")
        assert all_pairs(tree, 'dvd["y"]') == []

    def test_rename_into_existing_label(self):
        tree = tree_from_xml("<dvd><title>piano</title></dvd>")
        costs = CostModel().add_renaming("cd", "dvd", NodeType.STRUCT, 6)
        results = all_pairs(tree, 'cd[title["piano"]]', costs)
        assert [cost for _, cost in results] == [6.0]


class TestGlobalLeafRule:
    def test_everything_deletable_still_needs_one_leaf(self):
        tree = tree_from_xml("<cd><other>z</other></cd>")
        costs = CostModel()
        for term in ("x", "y"):
            costs.set_delete_cost(term, NodeType.TEXT, 1)
        costs.set_delete_cost("title", NodeType.STRUCT, 1)
        # no leaf of the query can match under this cd -> no result, even
        # though the transformation costs are all finite
        assert all_pairs(tree, 'cd[title["x" and "y"]]', costs) == []

    def test_one_leaf_matching_suffices(self):
        tree = tree_from_xml("<cd><title>x</title></cd>")
        costs = CostModel().set_delete_cost("y", NodeType.TEXT, 2)
        results = all_pairs(tree, 'cd[title["x" and "y"]]', costs)
        assert [cost for _, cost in results] == [2.0]

    def test_struct_leaf_counts_for_the_rule(self):
        tree = tree_from_xml("<cd><extra/></cd>")
        costs = CostModel().set_delete_cost("x", NodeType.TEXT, 1)
        results = all_pairs(tree, 'cd["x" and extra]', costs)
        assert [cost for _, cost in results] == [1.0]


class TestUnicode:
    XML = "<katalog><stück><titel>précis öde 音楽</titel></stück></katalog>"

    def test_unicode_end_to_end(self):
        tree = tree_from_xml(self.XML)
        results = all_pairs(tree, 'stück[titel["précis"]]')
        assert len(results) == 1

    def test_unicode_survives_persistence(self, tmp_path):
        db = Database.from_xml(self.XML)
        path = str(tmp_path / "unicode.apxq")
        db.save(path)
        loaded = Database.open(path)
        results = loaded.query('stück[titel["précis"]]', n=None)
        assert len(results) == 1
        assert "音楽" in loaded.query("titel", n=1)[0].words()


class TestResultLimits:
    def test_n_zero(self):
        tree = tree_from_xml("<cd>x</cd>")
        assert DirectEvaluator(tree).evaluate("cd", n=0) == []
        assert SchemaEvaluator(tree).evaluate("cd", n=0) == []

    def test_n_exceeds_results(self):
        tree = tree_from_xml("<cd>x</cd>", "<cd>y</cd>")
        assert len(SchemaEvaluator(tree).evaluate("cd", n=50)) == 2

    def test_many_equal_cost_results(self):
        documents = ["<cd><title>piano</title></cd>"] * 20
        tree = tree_from_xml(*documents)
        results = all_pairs(tree, 'cd[title["piano"]]')
        assert len(results) == 20
        assert all(cost == 0.0 for _, cost in results)
