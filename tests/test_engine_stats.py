"""Tests for the direct evaluator's observability counters."""

import pytest

from repro.approxql.costs import CostModel, paper_example_cost_model
from repro.approxql.expanded import build_expanded
from repro.approxql.parser import parse_query
from repro.engine.evaluator import DirectEvaluator
from repro.engine.primary import PrimaryEvaluator, root_cost_pairs
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.indexes import MemoryNodeIndexes
from repro.xmltree.model import NodeType

from .driver_probe import observe
from .figure4 import reference_primary


@pytest.fixture
def tree():
    return tree_from_xml(
        "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>",
        "<cd><title>piano sonata</title></cd>",
    )


class TestDirectStats:
    """What one direct evaluation did, read from its ``direct.*`` counters."""

    def test_counters_filled(self, tree):
        _, counters, _ = observe(DirectEvaluator(tree), 'cd[title["piano"]]')
        assert counters["direct.index_fetches"] == 3  # cd, title, piano
        assert counters["direct.postings_fetched"] == 2 + 2 + 2
        assert counters["direct.lists_materialized"] >= 2
        assert counters["direct.results_total"] == 2

    def test_stats_accumulate(self, tree):
        evaluator = DirectEvaluator(tree)
        fetches = [
            observe(evaluator, 'cd[title["piano"]]')[1]["direct.index_fetches"]
            for _ in range(2)
        ]
        # every evaluation fetches afresh: one fetch memo per evaluation
        assert fetches == [3, 3]
        assert sum(fetches) == 6

    def test_renamings_fetch_more(self, tree):
        model = CostModel().add_renaming("piano", "cello", NodeType.TEXT, 2)
        _, counters, _ = observe(DirectEvaluator(tree), 'cd[title["piano"]]', model)
        assert counters["direct.index_fetches"] == 4  # cd, title, piano, cello

    def test_no_stats_is_fine(self, tree):
        assert DirectEvaluator(tree).evaluate('cd[title["piano"]]') != []


class TestReusedEvaluator:
    def test_another_query_does_not_see_the_first_ones_fetches(self):
        """A reused evaluator handed a second expanded query — here the
        same text under another insert-cost table, which changes the
        fetched path costs — must fetch afresh, not serve the first
        query's lists."""
        tree = tree_from_xml("<cd><x><title>piano</title></x></cd>")
        query = parse_query('cd[title["piano"]]')
        indexes = MemoryNodeIndexes(tree)
        reused = PrimaryEvaluator(indexes)

        def run(evaluator, costs):
            tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
            return root_cost_pairs(evaluator.evaluate(build_expanded(query, costs)))

        assert run(reused, CostModel()) == [(1, 1.0)]
        costly = CostModel().set_insert_cost("x", 7)
        assert run(PrimaryEvaluator(indexes), costly) == [(1, 7.0)]
        assert run(reused, costly) == [(1, 7.0)]


class TestMemoization:
    def _expanded(self):
        # nested deletable chain -> shared subtrees in the expanded DAG;
        # a renamed selector -> two candidate lists over one match list
        model = CostModel()
        model.set_delete_cost("a", NodeType.STRUCT, 1)
        model.set_delete_cost("b", NodeType.STRUCT, 1)
        model.add_renaming("a", "c", NodeType.STRUCT, 1)
        return model, parse_query('r[a[b["x"]]]')

    def test_memoization_hits_on_shared_subtrees(self):
        tree = tree_from_xml("<r><a><b>x</b></a><c><b>x</b></c><b>x</b></r>")
        model, query = self._expanded()
        tree.encode_costs(model.insert_cost, fingerprint=model.insert_fingerprint)
        evaluator = PrimaryEvaluator(MemoryNodeIndexes(tree))
        evaluator.evaluate(build_expanded(query, model))
        assert evaluator.memo_hits >= 1

    def test_disabling_memoization_preserves_results(self):
        # the "without DP" side is Figure 4 as printed: no memo, no
        # scoping, entry-per-object operators (tests/figure4.py)
        tree = tree_from_xml("<r><a><b>x</b></a><b>x</b><a>x</a><c><b>x</b>x</c></r>")
        model, query = self._expanded()
        tree.encode_costs(model.insert_cost, fingerprint=model.insert_fingerprint)
        expanded = build_expanded(query, model)
        indexes = MemoryNodeIndexes(tree)
        with_dp = PrimaryEvaluator(indexes).evaluate(expanded)
        without_dp = reference_primary(indexes, expanded)
        assert [(e.pre, e.embcost, e.leafcost) for e in with_dp] == [
            (e.pre, e.embcost, e.leafcost) for e in without_dp
        ]

    PAPER_QUERY = 'cd[track[title["piano" and "concerto"]] and composer["rachmaninov"]]'
    PAPER_CD = (
        "<cd><track><title>piano concerto</title></track>"
        "<composer>rachmaninov</composer></cd>"
    )
    #: the same record under the paper model's renamings (cd->mc,
    #: title->category, composer->performer, concerto->sonata)
    PAPER_MC = (
        "<mc><track><category>piano sonata</category></track>"
        "<performer>rachmaninov</performer></mc>"
    )

    def _evaluated(self, *documents):
        tree = tree_from_xml("<catalog>" + "".join(documents) + "</catalog>")
        costs = paper_example_cost_model()
        tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        evaluator = PrimaryEvaluator(MemoryNodeIndexes(tree))
        evaluator.evaluate(build_expanded(parse_query(self.PAPER_QUERY), costs))
        return evaluator

    def test_paper_query_memoization_counts(self):
        evaluator = self._evaluated(self.PAPER_CD)
        # 12 labels: cd dvd mc / track / title category / piano /
        # concerto sonata / composer performer / rachmaninov
        assert evaluator.fetch_count == 12
        assert evaluator.postings_fetched > 0
        # no renaming target occurs in the data, so every selector has a
        # single candidate list and every (selector, scope) match list
        # is asked for exactly once: nothing to reuse
        assert evaluator.memo_hits == 0

    def test_match_lists_are_shared_across_renamings(self):
        evaluator = self._evaluated(self.PAPER_CD, self.PAPER_MC)
        assert evaluator.fetch_count == 12
        # A selector with two live labels joins the match lists below it
        # into two candidate lists; the second join is a memo hit.
        #   root cd|mc: track, title (bridge over track), piano,
        #     concerto (bridges over title), composer, rachmaninov
        #     (bridge over composer)                              -> 6
        #   title|category, reached in the scope of track and, over
        #     the bridge, of cd: piano and concerto, twice         -> 4
        #   composer|performer: rachmaninov                        -> 1
        assert evaluator.memo_hits == 11
        # one merge step per renaming, per scope the selector is matched
        # in: cd (dvd, mc), title x2, composer, and the leaf
        # concerto|sonata in its four scopes (cd, track, title x2)
        assert evaluator.merge_ops == 9
