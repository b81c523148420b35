"""Tests for the incremental driver's k-growth modes and counters."""

import random

import pytest

from repro.errors import EvaluationError
from repro.schema.evaluator import SchemaEvaluator
from repro.xmltree.builder import tree_from_xml

from .driver_probe import observe
from .strategies import random_cost_model, random_query, random_tree

CATALOG = """
<catalog>
  <cd><title>piano concerto</title></cd>
  <cd><title>piano sonata</title></cd>
  <cd><title>cello suite</title></cd>
</catalog>
"""


class TestGrowthModes:
    def test_linear_growth_paper_style(self):
        tree = tree_from_xml(CATALOG)
        results, counters, _ = observe(
            SchemaEvaluator(tree), 'cd[title["piano"]]', initial_k=1, delta=1, growth="linear"
        )
        assert len(results) == 2
        assert counters["schema.rounds"] >= 1

    def test_geometric_growth_fewer_rounds(self):
        rng = random.Random(17)
        tree = random_tree(rng, max_nodes=40)
        query = random_query(rng)
        costs = random_cost_model(rng)
        evaluator = SchemaEvaluator(tree)
        linear, linear_counters, _ = observe(
            evaluator, query, costs, initial_k=1, delta=1, growth="linear"
        )
        geometric, geometric_counters, _ = observe(
            evaluator, query, costs, initial_k=1, delta=1, growth="geometric"
        )
        assert {(r.root, r.cost) for r in linear} == {(r.root, r.cost) for r in geometric}
        assert geometric_counters["schema.rounds"] <= linear_counters["schema.rounds"]

    def test_unknown_growth_rejected(self):
        tree = tree_from_xml(CATALOG)
        with pytest.raises(EvaluationError):
            SchemaEvaluator(tree).evaluate("cd", growth="fibonacci")

    @pytest.mark.parametrize("growth", ["linear", "geometric"])
    def test_both_modes_complete(self, growth):
        rng = random.Random(23)
        for _ in range(5):
            tree = random_tree(rng)
            query = random_query(rng)
            costs = random_cost_model(rng)
            reference = SchemaEvaluator(tree).evaluate(query, costs)
            tested = SchemaEvaluator(tree).evaluate(
                query, costs, initial_k=2, delta=2, growth=growth
            )
            assert {(r.root, r.cost) for r in reference} == {
                (r.root, r.cost) for r in tested
            }


class TestSecondaryCounters:
    def test_counters_populated(self):
        tree = tree_from_xml(CATALOG)
        _, counters, _ = observe(SchemaEvaluator(tree), 'cd[title["piano"]]')
        assert counters["index.sec_fetches"] >= 2  # cd class + text class at least
        assert counters["schema.semijoins"] >= 1

    def test_counters_monotone_in_work(self):
        tree = tree_from_xml(CATALOG)
        _, small, _ = observe(SchemaEvaluator(tree), 'cd[title["piano"]]', n=1)
        _, full, _ = observe(SchemaEvaluator(tree), 'cd[title["piano"]]')
        assert full["index.sec_fetches"] >= small["index.sec_fetches"]
