"""Randomized equivalence: schema-driven evaluation == direct evaluation.

Section 7.1 argues that tree classes and the transitivity of embeddings
make the schema pipeline exact: for every (tree, query, cost model), full
retrieval through second-level queries must produce the same root-cost
mapping as the direct algorithm, and best-n retrieval must return n
results of exactly the same costs.
"""

import random

import pytest

from repro.engine.evaluator import DirectEvaluator
from repro.schema.evaluator import SchemaEvaluator

from .strategies import random_cost_model, random_query, random_tree


@pytest.mark.parametrize("seed", range(30))
def test_schema_equals_direct_full_retrieval(seed):
    rng = random.Random(3000 + seed)
    for _ in range(6):
        tree = random_tree(rng)
        query = random_query(rng)
        costs = random_cost_model(rng)
        direct = {r.root: r.cost for r in DirectEvaluator(tree).evaluate(query, costs)}
        schema = {r.root: r.cost for r in SchemaEvaluator(tree).evaluate(query, costs)}
        assert direct == schema, (
            f"query={query.unparse()!r}\ncosts={costs.to_lines()}\n"
            f"tree=\n{tree.format_subtree()}"
        )


@pytest.mark.parametrize("seed", range(12))
def test_schema_best_n_matches_direct(seed):
    rng = random.Random(4000 + seed)
    tree = random_tree(rng)
    query = random_query(rng)
    costs = random_cost_model(rng)
    direct = DirectEvaluator(tree).evaluate(query, costs)
    direct_map = {r.root: r.cost for r in direct}
    for n in (1, 2, 5):
        schema_n = SchemaEvaluator(tree).evaluate(query, costs, n=n)
        # same multiset of costs as the direct top-n...
        assert sorted(r.cost for r in schema_n) == sorted(r.cost for r in direct[:n])
        # ...and every returned root carries its true minimal cost
        for result in schema_n:
            assert direct_map[result.root] == result.cost


@pytest.mark.parametrize("seed", range(8))
def test_streaming_order_is_nondecreasing(seed):
    rng = random.Random(6000 + seed)
    tree = random_tree(rng)
    query = random_query(rng)
    costs = random_cost_model(rng)
    costs_seen = [r.cost for r in SchemaEvaluator(tree).iter_results(query, costs)]
    assert costs_seen == sorted(costs_seen)


def test_schema_decodes_fewer_postings_for_best_n():
    """The paper's Figure 7 claim, stated in counters instead of seconds:
    for best-n retrieval with renamings over template-shaped data, the
    schema-driven algorithm must touch strictly fewer postings than the
    direct one.  The direct algorithm fetches the instance lists of every
    renamed label up front; the schema path weighs the renamings on
    class-level lists (bounded by the schema, not the data) and only its
    winning second-level queries ever touch instance lists."""
    from repro.approxql.costs import CostModel
    from repro.telemetry.collector import Telemetry, collecting
    from repro.telemetry.report import POSTING_COUNTERS
    from repro.xmltree.builder import tree_from_xml
    from repro.xmltree.model import NodeType

    rng = random.Random(77)
    documents = []
    for _ in range(150):
        title = rng.choice(["alpha", "beta", "gamma", "delta"])
        documents.append(f"<cd><title>{title}</title></cd>")
    for _ in range(150):
        name = rng.choice(["alpha", "beta", "gamma", "delta"])
        documents.append(f"<song><name>{name}</name></song>")
    tree = tree_from_xml(*documents)
    costs = CostModel()
    costs.add_renaming("cd", "song", NodeType.STRUCT, 2)
    costs.add_renaming("title", "name", NodeType.STRUCT, 2)
    query = 'cd[title["alpha"]]'

    def postings(counters):
        return sum(counters.get(name, 0) for name in POSTING_COUNTERS)

    for n in (1, 5):
        direct_telemetry, schema_telemetry = Telemetry(), Telemetry()
        with collecting(direct_telemetry):
            direct = DirectEvaluator(tree).evaluate(query, costs, n=n)
        with collecting(schema_telemetry):
            schema = SchemaEvaluator(tree).evaluate(query, costs, n=n)
        assert sorted(r.cost for r in schema) == sorted(r.cost for r in direct[:n])
        assert postings(schema_telemetry.counters) < postings(direct_telemetry.counters)


def test_schema_equals_direct_on_regular_data():
    """Template-shaped data (many instances per class) stresses the
    instance/class machinery differently from random trees."""
    rng = random.Random(99)
    documents = []
    for index in range(20):
        title = rng.choice(["x", "y", "z"])
        extra = '<b><c>%s</c></b>' % rng.choice(["x", "y"]) if rng.random() < 0.5 else ""
        documents.append(f"<a><b>{title}</b>{extra}</a>")
    from repro.xmltree.builder import tree_from_xml

    tree = tree_from_xml(*documents)
    for query_text in ['a[b["x"]]', 'a[b["x" or "y"]]', 'a[b[c["x"]] and b["y"]]']:
        costs = random_cost_model(rng)
        direct = {r.root: r.cost for r in DirectEvaluator(tree).evaluate(query_text, costs)}
        schema = {r.root: r.cost for r in SchemaEvaluator(tree).evaluate(query_text, costs)}
        assert direct == schema
