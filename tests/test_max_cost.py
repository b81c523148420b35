"""Tests for the max_cost retrieval bound."""

import math
import random

import pytest

from repro import Database, ServeClient, ServerThread, ShardedDatabase
from repro.approxql.costs import paper_example_cost_model
from repro.engine.evaluator import DirectEvaluator
from repro.errors import EvaluationError
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
        _, counters = observe(
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


# ----------------------------------------------------------------------
# NaN: a bound no cost compares with
# ----------------------------------------------------------------------

NAN_DOCUMENTS = ["<a><b>x</b></a>", "<a><b>y</b><c>x</c></a>"]


def _nan_handle(kind, tmp_path):
    if kind == "sharded":
        return ShardedDatabase.from_documents(NAN_DOCUMENTS, shards=2)
    database = Database.from_documents(NAN_DOCUMENTS)
    if kind == "memory":
        return database
    path = str(tmp_path / "nan.apxq")
    database.save(path)
    return Database.open(path)


@pytest.mark.parametrize("method", ["direct", "schema", "auto"])
@pytest.mark.parametrize("kind", ["memory", "stored", "sharded"])
def test_nan_max_cost_is_refused_on_every_handle_and_method(kind, method, tmp_path):
    # regression: NaN compares false with every cost, so direct and auto
    # answered [] while schema answered [(2, 0.0)]
    handle = _nan_handle(kind, tmp_path)
    with pytest.raises(EvaluationError, match="max_cost"):
        handle.query("b", max_cost=float("nan"), method=method)
    with pytest.raises(EvaluationError, match="max_cost"):
        handle.query_many(["b"], max_cost=float("nan"), method=method)
    with pytest.raises(EvaluationError, match="max_cost"):
        handle.query("b", max_cost="5", method=method)
    unbounded = [(r.root, r.cost) for r in handle.query("b", n=None, method=method)]
    assert unbounded
    infinite = handle.query("b", n=None, method=method, max_cost=math.inf)
    assert [(r.root, r.cost) for r in infinite] == unbounded
    handle.close()


def test_nan_max_cost_is_refused_over_the_wire():
    database = Database.from_documents(NAN_DOCUMENTS)
    with ServerThread(database) as address:
        with ServeClient(*address) as client:
            for method in ("direct", "schema", "auto"):
                with pytest.raises(EvaluationError, match="max_cost"):
                    client.query("b", method=method, max_cost=float("nan"))
            counters = client.stats()
    assert counters["server.queries"] == 0
    assert counters["server.protocol_errors"] == 3
