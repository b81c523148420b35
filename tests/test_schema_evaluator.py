"""Integration tests for the schema-driven evaluator (Section 7.4)."""

import pytest

from repro.approxql.costs import CostModel, paper_example_cost_model
from repro.schema.evaluator import SchemaEvaluator
from repro.xmltree.builder import tree_from_xml

from .driver_probe import observe

CATALOG = """
<catalog>
  <cd>
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


#: the cost-0 skeleton of ``SPLIT_QUERY`` has no instance (no cd holds
#: both a title and a composer); the one result needs the inserted
#: ``disc`` — so best-1 must pass over a dead conjunction
SPLIT_CATALOG = """
<catalog>
  <cd><title>piano</title></cd>
  <cd><composer>liszt</composer></cd>
  <cd><disc><title>piano</title></disc><composer>liszt</composer></cd>
</catalog>
"""
SPLIT_QUERY = 'cd[title["piano"] and composer["liszt"]]'


@pytest.fixture
def split():
    return SchemaEvaluator(tree_from_xml(SPLIT_CATALOG))


@pytest.fixture
def tree():
    return tree_from_xml(CATALOG)


@pytest.fixture
def evaluator(tree):
    return SchemaEvaluator(tree)


class TestBasicEvaluation:
    def test_exact_query(self, tree, evaluator):
        results = evaluator.evaluate('cd[title["piano"]]')
        assert [tree.label(r.root) for r in results] == ["cd", "cd"]
        assert all(r.cost == 0 for r in results)

    def test_paper_running_query(self, tree, evaluator):
        costs = paper_example_cost_model()
        results = evaluator.evaluate(
            'cd[title["piano" and "concerto"] and composer["rachmaninov"]]', costs
        )
        assert [(tree.label(r.root), r.cost) for r in results] == [("cd", 6.0), ("mc", 8.0)]

    def test_best_n(self, tree, evaluator):
        costs = paper_example_cost_model()
        results = evaluator.evaluate(
            'cd[title["piano" and "concerto"] and composer["rachmaninov"]]', costs, n=1
        )
        assert [(tree.label(r.root), r.cost) for r in results] == [("cd", 6.0)]

    def test_no_results(self, evaluator):
        assert evaluator.evaluate('cd[title["wagner"]]') == []

    def test_bare_selector(self, tree, evaluator):
        results = evaluator.evaluate("mc")
        assert [tree.label(r.root) for r in results] == ["mc"]

    def test_results_in_cost_order(self, evaluator):
        costs = paper_example_cost_model()
        results = evaluator.evaluate('cd[title["piano"]]', costs)
        assert [r.cost for r in results] == sorted(r.cost for r in results)


class TestIncrementalBehaviour:
    def test_best_1_passes_the_dead_conjunction_and_returns_the_first_full_result(self, split):
        """Best-1 skips the cost-0 skeleton, which has no instance, in its
        one pull; it is full retrieval's first result."""
        full = split.evaluate(SPLIT_QUERY)
        first, counters = observe(split, SPLIT_QUERY, n=1)
        assert counters["schema.rounds"] == 1
        assert counters["schema.conjunctions_dead"] >= 1
        assert first == full[:1]

    def test_stats_recorded(self, evaluator):
        costs = paper_example_cost_model()
        _, counters = observe(evaluator, 'cd[title["piano"]]', costs, n=2)
        assert counters["schema.rounds"] >= 1
        assert counters["schema.second_level_executed"] >= 1
        assert counters["schema.results_found"] == 2

    def test_exhaustion_detected(self, evaluator):
        """A request for more results than exist drains the pull: it
        returns fewer than ``n``, and they are all of them."""
        results, _ = observe(evaluator, 'cd[title["piano"]]', n=10)
        assert len(results) < 10
        assert results == evaluator.evaluate('cd[title["piano"]]')

    def test_a_pull_executes_each_skeleton_once(self, evaluator):
        """A full run executes every skeleton it pulls, once; a best-1
        run executes a subset of them, and stops at most one skeleton
        past its cost class."""
        costs = paper_example_cost_model()
        query = 'cd[title["piano"]]'
        _, first = observe(evaluator, query, costs, n=1)
        _, full = observe(evaluator, query, costs)
        assert full["schema.second_level_executed"] == full["schema.skeletons_enumerated"]
        assert first["schema.second_level_executed"] < full["schema.second_level_executed"]
        assert first["schema.skeletons_enumerated"] - first["schema.second_level_executed"] <= 1

    def test_n_0_builds_nothing(self, evaluator):
        """Best-0 returns before any top-k list is built or any index
        is read."""
        results, counters = observe(evaluator, 'cd[title["piano"]]', n=0)
        assert results == []
        assert not [name for name in counters if name.startswith(("schema.", "index."))]

    def test_streaming_results(self, tree, evaluator):
        costs = paper_example_cost_model()
        stream = evaluator.iter_results('cd[title["piano"]]', costs)
        first = next(stream)
        assert tree.label(first.root) == "cd"
        assert first.cost == 0.0
        rest = list(stream)
        assert all(r.cost >= first.cost for r in rest)

    def test_every_executed_skeleton_has_an_instance(self, split):
        """Dead conjunctions are skipped while the top-k lists are built,
        so the driver executes only second-level queries with results."""
        for n in (1, None):
            _, counters = observe(split, SPLIT_QUERY, n=n)
            assert counters["schema.second_level_executed"] >= 1
            assert (
                counters["schema.second_level_executed"]
                == counters["schema.second_level_nonempty"]
            )

    def test_count_results(self, evaluator):
        costs = paper_example_cost_model()
        assert evaluator.count_results('cd[title["piano"]]', costs) == 3


class TestSecondLevelQuerySemantics:
    def test_second_level_results_share_cost(self, tree):
        """Every result of one second-level query has the skeleton's cost
        (instances of a class pair are equidistant)."""
        documents = [
            "<cd><x><title>piano</title></x></cd>",
            "<cd><x><title>piano</title></x></cd>",
            "<cd><title>piano</title></cd>",
        ]
        tree = tree_from_xml(*documents)
        evaluator = SchemaEvaluator(tree)
        results = evaluator.evaluate('cd[title["piano"]]')
        by_cost = {}
        for result in results:
            by_cost.setdefault(result.cost, []).append(result.root)
        assert len(by_cost[0.0]) == 1   # the direct cd/title
        assert len(by_cost[1.0]) == 2   # the two cd/x/title instances
