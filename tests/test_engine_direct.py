"""Integration tests for the direct evaluator (algorithm primary)."""

import pytest

from repro.approxql.costs import CostModel, paper_example_cost_model
from repro.core.database import Database
from repro.engine.evaluator import DirectEvaluator
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType


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
  <dvd>
    <title>piano favourites</title>
  </dvd>
</catalog>
"""


@pytest.fixture
def tree():
    return tree_from_xml(CATALOG)


@pytest.fixture
def evaluator(tree):
    return DirectEvaluator(tree)


def labels_of(tree, results):
    return [tree.label(result.root) for result in results]


class TestExactMatching:
    def test_exact_query(self, tree, evaluator):
        results = evaluator.evaluate('cd[title["piano"]]')
        assert labels_of(tree, results) == ["cd", "cd"]
        assert all(result.cost == 0 for result in results)

    def test_no_results_without_transformations(self, evaluator):
        assert evaluator.evaluate('cd[title["concerto"]]') == []

    def test_insertions_priced_by_distance(self, tree, evaluator):
        results = evaluator.evaluate('cd[title["vivace"]]')
        # vivace sits under tracks/track (insert cost 1 each by default)
        assert [result.cost for result in results] == [2.0]

    def test_and_requires_both(self, evaluator):
        assert evaluator.evaluate('cd[title["piano"] and performer["ashkenazy"]]') != []
        assert evaluator.evaluate('cd[title["piano"] and performer["gould"]]') == []

    def test_or_takes_either(self, tree, evaluator):
        results = evaluator.evaluate('cd[composer["rachmaninov"] or performer["ashkenazy"]]')
        assert len(results) == 2

    def test_bare_selector_query(self, tree, evaluator):
        results = evaluator.evaluate("mc")
        assert labels_of(tree, results) == ["mc"]
        assert results[0].cost == 0


class TestTransformations:
    def test_paper_running_query(self, tree, evaluator):
        """The motivating query finds the CD by deleting "concerto" (6)
        and the MC via cd->mc (4) + title->category (4)."""
        costs = paper_example_cost_model()
        results = evaluator.evaluate(
            'cd[title["piano" and "concerto"] and composer["rachmaninov"]]', costs
        )
        assert [(tree.label(r.root), r.cost) for r in results] == [("cd", 6.0), ("mc", 8.0)]

    def test_rename_root_reaches_other_media(self, tree, evaluator):
        costs = paper_example_cost_model()
        results = evaluator.evaluate('cd[title["piano"]]', costs)
        by_label = {tree.label(r.root): r.cost for r in results}
        # cd matches exactly; mc via cd->mc (4) + title->category (4);
        # dvd via cd->dvd (6)
        assert by_label == {"cd": 0.0, "mc": 8.0, "dvd": 6.0}

    def test_track_title_promoted_by_deletion(self, tree, evaluator):
        """Deleting track searches the term in CD titles (Section 5.2)."""
        costs = paper_example_cost_model()
        results = evaluator.evaluate('cd[track[title["vivace"]]]', costs)
        assert [r.cost for r in results] == [1.0]
        # cost 1: the track query node matches nothing at distance 0, but
        # deleting track (cost 3) is beaten by keeping it: cd/tracks/track
        # needs one insertion (tracks, cost 1)

    def test_composer_rename_to_performer(self, tree, evaluator):
        costs = paper_example_cost_model()
        results = evaluator.evaluate('cd[composer["ashkenazy"]]', costs)
        assert [r.cost for r in results] == [4.0]

    def test_leaf_deletion_not_allowed_for_sole_leaf(self, tree, evaluator):
        costs = paper_example_cost_model()
        # "wagner" appears nowhere; composer's sole leaf can't be deleted
        # (infinite delete cost in the paper's table), so no approximate
        # result may drop it
        assert evaluator.evaluate('cd[composer["wagner"]]', costs) == []

    def test_all_leaves_deleted_rejected(self, tree, evaluator):
        costs = CostModel()
        costs.set_delete_cost("piano", NodeType.TEXT, 1)
        costs.set_delete_cost("concerto", NodeType.TEXT, 1)
        results = evaluator.evaluate('cd[title["piano" and "concerto"]]', costs)
        # deleting only "concerto" is fine (cost 1, piano still matched)
        assert [r.cost for r in results] == [1.0, 1.0]
        # but a cd whose title matches neither term is NOT a result even
        # though deleting both leaves would "explain" it
        no_piano = tree_from_xml("<cd><title>quartet</title></cd>")
        assert DirectEvaluator(no_piano).evaluate('cd[title["piano" and "concerto"]]', costs) == []


class TestBestN:
    def test_prunes_after_n(self, evaluator):
        costs = paper_example_cost_model()
        all_results = evaluator.evaluate('cd[title["piano"]]', costs)
        top = evaluator.evaluate('cd[title["piano"]]', costs, n=2)
        assert top == all_results[:2]

    def test_n_larger_than_results(self, evaluator):
        results = evaluator.evaluate('cd[title["piano"]]', n=99)
        assert len(results) == 2

    def test_n_zero(self, evaluator):
        assert evaluator.evaluate('cd[title["piano"]]', n=0) == []

    def test_count_results(self, evaluator):
        assert evaluator.count_results('cd[title["piano"]]') == 2

    def test_results_sorted(self, evaluator):
        costs = paper_example_cost_model()
        results = evaluator.evaluate('cd[title["piano"]]', costs)
        costs_list = [r.cost for r in results]
        assert costs_list == sorted(costs_list)


class TestIndexBackends:
    def test_stored_indexes_agree_with_memory(self, tree, tmp_path):
        """A stored handle answers from the node index it derives from
        the loaded tree: the memory evaluator's answer, pair for pair."""
        costs = paper_example_cost_model()
        memory_results = DirectEvaluator(tree).evaluate('cd[title["piano"]]', costs)
        path = str(tmp_path / "catalog.apxq")
        Database.from_tree(tree).save(path)
        with Database.open(path) as stored:
            stored_results = stored.query(
                'cd[title["piano"]]', n=None, costs=costs, method="direct"
            )
        assert [(r.root, r.cost) for r in stored_results] == [
            (r.root, r.cost) for r in memory_results
        ]


class TestCustomInsertCosts:
    def test_insert_costs_change_distances(self, tree):
        evaluator = DirectEvaluator(tree)
        expensive = CostModel()
        expensive.set_insert_cost("tracks", 10)
        expensive.set_insert_cost("track", 20)
        results = evaluator.evaluate('cd[title["vivace"]]', expensive)
        assert [r.cost for r in results] == [30.0]

    def test_reencoding_roundtrip(self, tree):
        evaluator = DirectEvaluator(tree)
        first = evaluator.evaluate('cd[title["vivace"]]', CostModel())
        evaluator.evaluate('cd[title["vivace"]]', CostModel(default_insert_cost=5))
        again = evaluator.evaluate('cd[title["vivace"]]', CostModel())
        assert again == first
