"""Randomized differential oracle: three independent evaluators, one answer.

The naive closure-enumeration evaluator (Section 5.3, exponential but
obviously correct), the direct algorithm (Section 6), and the
schema-driven algorithm (Section 7) implement the same problem
definition three unrelated ways; on data and queries produced by the
paper's own generators they must agree on the exact root-cost mapping.
Every case is keyed by an integer seed and each assertion message names
the replay call (``generated_case(seed, num_elements=...)``) — shrinking
a failure is re-running the same seed with a smaller collection.

The planner leg at the bottom lifts the same discipline to the
cost-based planner: ``method="auto"`` may *choose* either algorithm per
query, but its answers must be byte-identical to the forced run of the
chosen method, and cost-equivalent to the forced run of the method it
rejected (best-n tie-cuts may legitimately pick different equal-cost
roots across methods, so the cross-method comparison is on cost
multisets plus per-root true costs — the same semantics
``test_best_n_prefix_matches_naive`` uses).
"""

import os

import pytest

from repro.core.database import Database
from repro.engine.evaluator import DirectEvaluator
from repro.schema.evaluator import SchemaEvaluator
from repro.transform.naive import evaluate_naive

from .strategies import generated_case

SEEDS = range(8)


def _oracle(tree, query, costs):
    return {pair.root: pair.cost for pair in evaluate_naive(query, tree, costs)}


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_matches_naive_on_generated_cases(seed):
    case = generated_case(700 + seed)
    evaluator = DirectEvaluator(case.tree)
    for generated in case.queries:
        naive = _oracle(case.tree, generated.query, generated.costs)
        direct = {
            r.root: r.cost for r in evaluator.evaluate(generated.query, generated.costs)
        }
        assert direct == naive, case.describe()


@pytest.mark.parametrize("seed", SEEDS)
def test_schema_matches_naive_on_generated_cases(seed):
    case = generated_case(700 + seed)
    evaluator = SchemaEvaluator(case.tree)
    for generated in case.queries:
        naive = _oracle(case.tree, generated.query, generated.costs)
        schema = {
            r.root: r.cost for r in evaluator.evaluate(generated.query, generated.costs)
        }
        assert schema == naive, case.describe()


@pytest.mark.parametrize("seed", range(4))
def test_best_n_prefix_matches_naive(seed):
    """Best-n retrieval returns the naive oracle's n cheapest costs, and
    every returned root carries its true minimal cost."""
    case = generated_case(800 + seed)
    evaluator = SchemaEvaluator(case.tree)
    for generated in case.queries:
        naive = evaluate_naive(generated.query, case.tree, generated.costs)
        naive_map = {pair.root: pair.cost for pair in naive}
        for n in (1, 3):
            best = evaluator.evaluate(generated.query, generated.costs, n=n)
            assert sorted(r.cost for r in best) == sorted(
                pair.cost for pair in naive[:n]
            ), case.describe()
            for result in best:
                assert naive_map[result.root] == result.cost, case.describe()


@pytest.mark.parametrize("seed", range(4))
def test_query_many_schema_matches_naive(seed):
    """A batch mixing the generated cost tables must reproduce the
    oracle's mapping and the ``query`` loop's emission order exactly."""
    case = generated_case(900 + seed)
    database = Database.from_tree(case.tree)
    # the batch must evaluate, not be served what the loop cached
    database.set_query_cache(result_entries=0)
    batch = [(generated.query, generated.costs) for generated in case.queries]
    loop = [
        database.query(query, n=None, costs=costs, method="schema") for query, costs in batch
    ]
    batched = database.query_many(batch, n=None, method="schema")
    for generated, loop_run, batch_run in zip(case.queries, loop, batched):
        naive = _oracle(case.tree, generated.query, generated.costs)
        assert _pairs(batch_run) == _pairs(loop_run), case.describe()
        assert dict(_pairs(batch_run)) == naive, case.describe()


# ---------------------------------------------------------------------------
# planner leg: method="auto" with statistics vs the forced methods
# ---------------------------------------------------------------------------

#: 30 memory seeds + 20 stored seeds, 4 generated queries each -> 200
#: randomized cases; every case checks full retrieval and best-n
PLANNER_MEMORY_SEEDS = range(30)
PLANNER_STORED_SEEDS = range(20)

#: the best-n sizes the planner leg exercises (one tiny, one mid)
PLANNER_NS = (3, None)


def _pairs(results):
    return [(r.root, r.cost) for r in results]


def _assert_auto_agrees(database, case):
    """The planner-leg contract for every generated query of one case.

    The plan choice is free; the answers are not: auto must be
    byte-identical to the forced run of whichever method it chose, and
    cost-equivalent to the forced run of the *other* method, with every
    returned root carrying its true minimal cost from the full
    retrieval."""
    for generated in case.queries:
        truth = {
            r.root: r.cost
            for r in database.query(
                generated.query, n=None, costs=generated.costs, method="direct"
            )
        }
        for n in PLANNER_NS:
            auto = database.query(generated.query, n=n, costs=generated.costs)
            chosen = auto.report.method
            assert chosen in ("direct", "schema"), case.describe()
            forced_same = database.query(
                generated.query, n=n, costs=generated.costs, method=chosen
            )
            assert _pairs(auto) == _pairs(forced_same), case.describe()
            other = "schema" if chosen == "direct" else "direct"
            forced_other = database.query(
                generated.query, n=n, costs=generated.costs, method=other
            )
            if n is None:
                assert {r.root: r.cost for r in auto} == truth, case.describe()
                assert (
                    {r.root: r.cost for r in forced_other} == truth
                ), case.describe()
            else:
                assert sorted(r.cost for r in auto) == sorted(
                    r.cost for r in forced_other
                ), case.describe()
                for result in list(auto) + list(forced_other):
                    assert truth[result.root] == result.cost, case.describe()


@pytest.mark.parametrize("seed", PLANNER_MEMORY_SEEDS)
def test_auto_planner_matches_forced_methods(seed):
    case = generated_case(1200 + seed, num_elements=60)
    database = Database.from_tree(case.tree)
    _assert_auto_agrees(database, case)


@pytest.mark.parametrize("seed", PLANNER_STORED_SEEDS)
def test_auto_planner_matches_forced_methods_stored(seed, tmp_path):
    """The stored leg plans from the *persisted* statistics segment —
    the same contract must hold when the estimates come off disk."""
    case = generated_case(1300 + seed, num_elements=60)
    path = os.path.join(tmp_path, "oracle.apxq")
    Database.from_tree(case.tree).save(path)
    database = Database.open(path)
    _assert_auto_agrees(database, case)


# ---------------------------------------------------------------------------
# querycache leg: the hot-query fast path vs a cache-disabled twin
# ---------------------------------------------------------------------------

CACHE_MEMORY_SEEDS = range(10)
CACHE_STORED_SEEDS = range(4)
CACHE_SHARDED_SEEDS = range(4)

#: n in mixed order, so a longer cached prefix serves a shorter n, a
#: shorter one is resumed for a longer n, and the generation protocol
#: fires in between
CACHE_NS = (3, 1, 10, None, 2)

#: a mutation interleaved mid-case moves the generation and must evict
MUTATION_DOC = "<cd><title>interleaved</title><artist>mutation</artist></cd>"


def _assert_cached_matches_cold(hot, cold, case):
    """The fast-path contract: every answer the caching database serves
    — cold, tier-1, tier-2 prefix, or resumed — is byte-identical to the
    cache-disabled twin's answer to the same request, before and after
    an interleaved mutation on both."""

    def sweep():
        from repro.approxql.parser import parse_query
        from repro.errors import QuerySyntaxError

        for generated in case.queries:
            # submit text where it round-trips (the tier-1 path); the
            # occasional generated query that does not reparse goes
            # through the AST bypass instead
            text = generated.query.unparse()
            try:
                parse_query(text)
            except QuerySyntaxError:
                text = generated.query
            for n in CACHE_NS:
                for method in ("schema", "direct", "auto"):
                    served = hot.query(text, n=n, costs=generated.costs, method=method)
                    cold_run = cold.query(text, n=n, costs=generated.costs, method=method)
                    assert _pairs(served) == _pairs(cold_run), (
                        n, method, case.describe()
                    )

    sweep()  # first pass populates, second pass serves hot
    sweep()
    hot.insert_document(MUTATION_DOC)
    cold.insert_document(MUTATION_DOC)
    sweep()


@pytest.mark.parametrize("seed", CACHE_MEMORY_SEEDS)
def test_cached_answers_match_cold_memory(seed):
    case = generated_case(1400 + seed, num_elements=60)
    hot = Database.from_tree(case.tree)
    cold = Database.from_tree(case.tree)
    cold.set_query_cache(compiled_entries=0, result_entries=0)
    _assert_cached_matches_cold(hot, cold, case)


@pytest.mark.parametrize("seed", CACHE_STORED_SEEDS)
def test_cached_answers_match_cold_stored(seed, tmp_path):
    """The stored leg tags entries with the composite (state, store)
    generation — the same contract must hold when mutations move the
    store's write counter."""
    case = generated_case(1500 + seed, num_elements=60)
    hot_path = os.path.join(tmp_path, "hot.apxq")
    cold_path = os.path.join(tmp_path, "cold.apxq")
    Database.from_tree(case.tree).save(hot_path)
    Database.from_tree(case.tree).save(cold_path)
    hot = Database.open(hot_path)
    cold = Database.open(cold_path)
    cold.set_query_cache(compiled_entries=0, result_entries=0)
    _assert_cached_matches_cold(hot, cold, case)
    hot.close()
    cold.close()


@pytest.mark.parametrize("seed", CACHE_SHARDED_SEEDS)
def test_cached_answers_match_cold_sharded(seed):
    """The merge-level cache composes per-shard generation vectors; its
    served prefixes must match a cache-disabled sharded twin (which also
    has every shard-level cache off)."""
    from repro.shard import ShardedDatabase

    case = generated_case(1700 + seed, num_elements=60)
    hot = ShardedDatabase.from_tree(case.tree, shards=3)
    cold = ShardedDatabase.from_tree(case.tree, shards=3)
    cold.set_query_cache(compiled_entries=0, result_entries=0)
    _assert_cached_matches_cold(hot, cold, case)
    hot.close()
    cold.close()
