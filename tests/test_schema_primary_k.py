"""Direct unit tests for the top-k primary evaluator (Section 7.2)."""

import pytest

from repro.approxql.costs import CostModel, paper_example_cost_model
from repro.approxql.expanded import build_expanded
from repro.approxql.parser import parse_query
from repro.schema.dataguide import build_schema
from repro.schema.indexes import SchemaNodeIndexes
from repro.schema.primary_k import PrimaryKEvaluator
from repro.schema.topk_ops import sort_roots
from repro.errors import EvaluationError
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
  <cd><title>piano sonata</title></cd>
  <mc><category>piano concerto</category></mc>
</catalog>
"""


@pytest.fixture
def setup():
    tree = tree_from_xml(CATALOG)
    schema = build_schema(tree)
    return tree, schema, SchemaNodeIndexes(schema)


def run(schema, indexes, query_text, costs, k):
    schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
    expanded = build_expanded(parse_query(query_text), costs)
    return sort_roots(k, PrimaryKEvaluator(indexes, k).evaluate(expanded))


class TestSkeletonGeneration:
    def test_exact_query_one_skeleton(self, setup):
        tree, schema, indexes = setup
        queries = run(schema, indexes, 'cd[title["piano"]]', CostModel(), k=5)
        assert len(queries) == 1
        (skeleton,) = queries
        assert skeleton.embcost == 0.0
        assert skeleton.label == "cd"
        (title_pointer,) = skeleton.pointers
        assert title_pointer.label == "title"
        (leaf_pointer,) = title_pointer.pointers
        assert leaf_pointer.label == "piano"

    def test_renaming_generates_alternative_skeletons(self, setup):
        tree, schema, indexes = setup
        costs = CostModel().add_renaming("cd", "mc", NodeType.STRUCT, 4)
        costs.add_renaming("title", "category", NodeType.STRUCT, 4)
        queries = run(schema, indexes, 'cd[title["piano"]]', costs, k=10)
        labels = [(entry.label, entry.embcost) for entry in queries]
        assert ("cd", 0.0) in labels
        assert ("mc", 8.0) in labels  # cd->mc + title->category

    def test_k_limits_global_output(self, setup):
        tree, schema, indexes = setup
        costs = paper_example_cost_model()
        queries = run(schema, indexes, 'cd[title["piano" and "concerto"]]', costs, k=2)
        assert len(queries) <= 2

    def test_skeleton_labels_are_renamed_labels(self, setup):
        tree, schema, indexes = setup
        costs = CostModel().add_renaming("piano", "cello", NodeType.TEXT, 3)
        queries = run(schema, indexes, 'cd[title["piano"]]', costs, k=10)
        # the only match is via the original label here; cello never occurs
        leaf_labels = {
            leaf.label
            for entry in queries
            for title in entry.pointers
            for leaf in title.pointers
        }
        assert leaf_labels == {"piano"}

    def test_deletion_skeletons_marked_invalid(self, setup):
        tree, schema, indexes = setup
        costs = CostModel().set_delete_cost("piano", NodeType.TEXT, 2)
        schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        expanded = build_expanded(parse_query('cd[title["piano"]]'), costs)
        raw = PrimaryKEvaluator(indexes, 5).evaluate(expanded)
        # the raw list contains the all-deleted skeletons...
        assert any(not entry.has_leaf for entry in raw)
        # ...but sort_roots filters them
        assert all(entry.has_leaf for entry in sort_roots(5, raw))

    def test_exact_for_large_k(self, setup):
        tree, schema, indexes = setup
        schema.encode_costs(CostModel().insert_cost, fingerprint=(1.0, ()))
        expanded = build_expanded(parse_query('cd[title["piano"]]'), CostModel())
        evaluator = PrimaryKEvaluator(indexes, 1000)
        assert evaluator.evaluate(expanded).exact
        assert evaluator.exact

    def test_inexact_for_k1_with_alternatives(self, setup):
        tree, schema, indexes = setup
        costs = paper_example_cost_model()
        schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        expanded = build_expanded(
            parse_query('cd[title["piano" and "concerto"]]'), costs
        )
        evaluator = PrimaryKEvaluator(indexes, 1)
        assert not evaluator.evaluate(expanded).exact
        assert not evaluator.exact

    def test_invalid_k_rejected(self, setup):
        tree, schema, indexes = setup
        with pytest.raises(EvaluationError):
            PrimaryKEvaluator(indexes, 0)

    def test_bare_selector_skeletons(self, setup):
        tree, schema, indexes = setup
        queries = run(schema, indexes, "mc", CostModel(), k=5)
        assert len(queries) == 1
        assert queries[0].pointers == ()
        assert queries[0].has_leaf

    def test_same_text_class_supports_both_terms(self, setup):
        """'piano' and 'concerto' share the cd/title text class; the
        skeleton keeps them as separate pointers with the same class."""
        tree, schema, indexes = setup
        queries = run(
            schema, indexes, 'cd[title["piano" and "concerto"]]', CostModel(), k=5
        )
        (skeleton,) = queries
        (title_ptr,) = skeleton.pointers
        assert len(title_ptr.pointers) == 2
        pres = {pointer.pre for pointer in title_ptr.pointers}
        assert len(pres) == 1  # same compacted text class
        labels = {pointer.label for pointer in title_ptr.pointers}
        assert labels == {"piano", "concerto"}
