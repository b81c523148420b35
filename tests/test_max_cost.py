"""Tests for the max_cost retrieval bound."""

import random

import pytest

from repro import Database
from repro.approxql.costs import paper_example_cost_model
from repro.engine.evaluator import DirectEvaluator
from repro.schema.evaluator import SchemaEvaluator
from repro.xmltree.builder import tree_from_xml

from .driver_probe import observe
from .strategies import random_cost_model, random_query, random_tree

CATALOG = """
<catalog>
  <cd><title>the piano concertos</title><composer>rachmaninov</composer></cd>
  <mc><category>piano concerto</category><composer>rachmaninov</composer></mc>
</catalog>
"""
QUERY = 'cd[title["piano" and "concerto"] and composer["rachmaninov"]]'


@pytest.fixture
def db():
    return Database.from_xml(CATALOG, default_costs=paper_example_cost_model())


class TestMaxCost:
    def test_bound_excludes_expensive_results(self, db):
        # cd costs 6, mc costs 8
        assert len(db.query(QUERY, n=None, method="direct")) == 2
        bounded = db.query(QUERY, n=None, method="direct", max_cost=6)
        assert [r.cost for r in bounded] == [6.0]

    def test_boundary_inclusive(self, db):
        bounded = db.query(QUERY, n=None, method="direct", max_cost=8)
        assert [r.cost for r in bounded] == [6.0, 8.0]

    def test_schema_method_agrees(self, db):
        for bound in (0, 5, 6, 7, 8, 100):
            direct = db.query(QUERY, n=None, method="direct", max_cost=bound)
            schema = db.query(QUERY, n=None, method="schema", max_cost=bound)
            assert [(r.root, r.cost) for r in direct] == [(r.root, r.cost) for r in schema]

    def test_schema_stops_early(self, db):
        _, counters, _ = observe(
            SchemaEvaluator(db.tree), QUERY, paper_example_cost_model(), max_cost=0
        )
        # second-level queries above the bound are never executed
        assert counters.get("schema.second_level_executed", 0) <= 1

    def test_zero_bound_keeps_exact_matches(self, db):
        results = db.query('cd[title["piano"]]', n=None, method="schema", max_cost=0)
        assert [r.cost for r in results] == [0.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_agreement(self, seed):
        rng = random.Random(9000 + seed)
        tree = random_tree(rng)
        query = random_query(rng)
        costs = random_cost_model(rng)
        full = DirectEvaluator(tree).evaluate(query, costs)
        for bound in (0, 2, 5, 10):
            direct = DirectEvaluator(tree).evaluate(query, costs, max_cost=bound)
            schema = SchemaEvaluator(tree).evaluate(query, costs, max_cost=bound)
            expected = {(r.root, r.cost) for r in full if r.cost <= bound}
            assert {(r.root, r.cost) for r in direct} == expected
            assert {(r.root, r.cost) for r in schema} == expected
