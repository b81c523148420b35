"""Tests for the root-class saturation termination rule."""

import random

import pytest

from repro.approxql.costs import CostModel
from repro.engine.evaluator import DirectEvaluator
from repro.schema.evaluator import SchemaEvaluator
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType

from .driver_probe import observe
from .strategies import random_cost_model, random_query, random_tree


class TestSaturation:
    def test_permissive_model_terminates_quickly(self):
        """When every root-class instance is a result, the driver stops
        without enumerating the (combinatorial) rest of the closure."""
        documents = ["<cd><title>piano</title><x>y</x></cd>"] * 5
        tree = tree_from_xml(*documents)
        costs = CostModel()
        # everything deletable and renameable -> huge skeleton closure
        for term in ("piano", "y"):
            costs.set_delete_cost(term, NodeType.TEXT, 1)
            costs.add_renaming(term, "piano" if term == "y" else "y", NodeType.TEXT, 1)
        costs.set_delete_cost("title", NodeType.STRUCT, 1)
        costs.set_delete_cost("x", NodeType.STRUCT, 1)
        results, _, state = observe(SchemaEvaluator(tree), 'cd[title["piano"] and x]', costs)
        assert len(results) == 5  # every cd
        assert state.exhausted

    def test_saturation_preserves_minimal_costs(self):
        documents = [
            "<cd><title>piano</title></cd>",
            "<cd><title>sonata</title></cd>",
        ]
        tree = tree_from_xml(*documents)
        costs = CostModel().add_renaming("piano", "sonata", NodeType.TEXT, 3)
        schema_results = {
            (r.root, r.cost)
            for r in SchemaEvaluator(tree).evaluate('cd[title["piano"]]', costs)
        }
        direct_results = {
            (r.root, r.cost)
            for r in DirectEvaluator(tree).evaluate('cd[title["piano"]]', costs)
        }
        assert schema_results == direct_results

    def test_unsaturated_collections_still_complete(self):
        """When some instances never match, the ordinary exhaustion path
        must still produce the full answer."""
        documents = ["<cd><title>piano</title></cd>", "<cd><other>z</other></cd>"]
        tree = tree_from_xml(*documents)
        results = SchemaEvaluator(tree).evaluate('cd[title["piano"]]')
        assert len(results) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_equivalence_with_saturation(self, seed):
        """The saturation rule must never change results — re-run the
        core equivalence property on fresh seeds."""
        rng = random.Random(12000 + seed)
        tree = random_tree(rng)
        query = random_query(rng)
        costs = random_cost_model(rng)
        direct = {r.root: r.cost for r in DirectEvaluator(tree).evaluate(query, costs)}
        schema = {r.root: r.cost for r in SchemaEvaluator(tree).evaluate(query, costs)}
        assert direct == schema
