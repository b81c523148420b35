"""The incremental driver's k schedule is not part of the answer, and
the driver's secondary counters.

Every top-k list is a prefix of the (cost, signature) order, so however
the driver grows k the skeletons execute in that order, and a best-n
answer is the first n results of full retrieval, ties included.  That is
why the schedule is a private policy of the driver and why one result
cache entry serves every n."""

from repro.schema.evaluator import SchemaEvaluator
from repro.xmltree.builder import tree_from_xml

from .driver_probe import observe
from .strategies import generated_case

CATALOG = """
<catalog>
  <cd><title>piano concerto</title></cd>
  <cd><title>piano sonata</title></cd>
  <cd><title>cello suite</title></cd>
</catalog>
"""

PREFIX_SEEDS = range(40)
PREFIX_NS = (0, 1, 2, 3, 5, 10, 25)


def test_best_n_is_a_prefix_of_full_retrieval():
    """``evaluate(q, n) == evaluate(q, None)[:n]`` as sequences on
    generated cases — and some of the requests run several rounds, so the
    round boundaries really move between ``n`` and full retrieval."""
    multi_round = 0
    for seed in PREFIX_SEEDS:
        case = generated_case(seed)
        evaluator = SchemaEvaluator(case.tree)
        for generated in case.queries:
            full = evaluator.evaluate(generated.query, generated.costs)
            for n in PREFIX_NS:
                best, counters, _ = observe(
                    evaluator, generated.query, generated.costs, n=n
                )
                assert [(r.root, r.cost) for r in best] == [
                    (r.root, r.cost) for r in full[:n]
                ], (n, case.describe())
                multi_round += counters.get("schema.rounds", 0) >= 2
    assert multi_round > 0


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
