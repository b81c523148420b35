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
#: ``disc`` — so best-1, starting at k = 1 (every closure has width 1),
#: takes a second round
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
    def test_small_initial_k_still_complete(self, split):
        """Best-1 starts at k = 1 and grows; it is full retrieval's first
        result, and resuming its state completes the full answer."""
        full = split.evaluate(SPLIT_QUERY)
        first, counters, state = observe(split, SPLIT_QUERY, n=1)
        assert counters["schema.rounds"] > 1
        assert first == full[:1]
        rest = split.evaluate(SPLIT_QUERY, resume=state)
        assert first + rest == full

    def test_stats_recorded(self, evaluator):
        costs = paper_example_cost_model()
        _, counters, state = observe(evaluator, 'cd[title["piano"]]', costs, n=2)
        assert counters["schema.rounds"] >= 1
        assert counters["schema.second_level_executed"] >= 1
        assert counters["schema.results_found"] == 2
        # what the executed skeletons delivered is on the driver state
        assert len(state.found) == 2

    def test_exhaustion_detected(self, evaluator):
        _, _, state = observe(evaluator, 'cd[title["piano"]]')
        assert state.exhausted

    def test_growing_k_never_reexecutes(self, split):
        """Executed second-level queries are remembered by signature."""
        _, grown, grown_state = observe(split, SPLIT_QUERY, n=1)
        _, single, single_state = observe(split, SPLIT_QUERY)
        assert grown["schema.rounds"] > single["schema.rounds"] == 1
        # the rounds of a growing k execute the skeletons one large round
        # executes, each once
        assert grown_state.executed <= single_state.executed
        assert grown["schema.second_level_executed"] == single["schema.second_level_executed"]

    def test_streaming_results(self, tree, evaluator):
        costs = paper_example_cost_model()
        stream = evaluator.iter_results('cd[title["piano"]]', costs)
        first = next(stream)
        assert tree.label(first.root) == "cd"
        assert first.cost == 0.0
        rest = list(stream)
        assert all(r.cost >= first.cost for r in rest)

    def test_max_k_bounds_work(self, evaluator):
        costs = paper_example_cost_model()
        results = evaluator.evaluate('cd[title["piano"]]', costs, max_k=2)
        # bounded k may truncate the result list but never corrupt it
        full = evaluator.evaluate('cd[title["piano"]]', costs)
        assert results == full[: len(results)]

    def test_max_k_stop_is_counted_and_exhaustion_is_not(self, evaluator):
        """A run that gives up at max_k says so; a run that ends because
        every second-level query was executed does not."""
        costs = paper_example_cost_model()
        query = 'cd[title["piano"]]'
        _, capped, state = observe(evaluator, query, costs, n=50, max_k=2)
        assert capped["schema.max_k_stops"] == 1
        assert not state.exhausted
        _, complete, state = observe(evaluator, query, costs, n=50)
        assert "schema.max_k_stops" not in complete
        assert state.exhausted

    def test_rounds_reuse_exact_lists(self, split):
        """A further round takes over what the smaller k did not truncate
        instead of rebuilding it."""
        _, counters, _ = observe(split, SPLIT_QUERY, n=1)
        assert counters["schema.rounds"] > 1
        assert counters["schema.lists_reused"] > 0

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
