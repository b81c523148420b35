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

The querycache legs at the bottom hold the hot-query fast path to a
cache-disabled twin, across interleaved writes; the decomposition leg
checks the relation write-scoped invalidation rests on — an answer over
a collection is the merge of every document's own answer.
"""

import os
import random

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
    """The stored leg plans on statistics read off the schema an opened
    store rebuilds — the same contract must hold there."""
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


# ---------------------------------------------------------------------------
# write-scoped invalidation: a seeded write walk vs a cache-disabled twin
# ---------------------------------------------------------------------------

#: the leg's budget: seeds per handle kind and writes per walk
WRITE_WALK_SEEDS = {"memory": range(5), "stored": range(2), "sharded": range(3)}
WRITE_WALK_STEPS = 10
WRITE_WALK_NS = (1, 3, 10, None)


def _walk_handles(kind, seed, tmp_path):
    """A caching handle of ``kind`` over one generated collection and its
    cache-off twin, each over a tree of its own (a memory handle writes
    into the tree it wraps)."""
    from repro.shard import ShardedDatabase

    handles = []
    for name in ("hot", "cold"):
        tree = generated_case(seed, num_elements=60).tree
        if kind == "sharded":
            database = ShardedDatabase.from_tree(tree, shards=2)
        else:
            database = Database.from_tree(tree)
            if kind == "stored":
                path = os.path.join(tmp_path, f"{name}.apxq")
                database.save(path)
                database = Database.open(path)
        handles.append(database)
    handles[1].set_query_cache(compiled_entries=0, result_entries=0)
    return handles


def _walk_document(rng, copies):
    """Half the time a small document sharing no label with the generated
    collection (every write of it carries the cached answers), otherwise
    one of ``copies``, the collection's own documents."""
    if rng.random() < 0.5:
        outer, inner = rng.sample(["x0", "x1", "x2"], 2)
        return f"<{outer}><{inner}>t{rng.randrange(12)}</{inner}>t1<{inner}/></{outer}>"
    return rng.choice(copies)


def _walk_sweep(hot, cold, case):
    """Every generated query at every n and method, hot against cold;
    returns how many (query, method) keys the hot handle served from an
    entry it already held when the sweep began."""
    held = 0
    for generated in case.queries:
        for method in ("schema", "direct", "auto"):
            for position, n in enumerate(WRITE_WALK_NS):
                served = hot.query(
                    generated.query, n=n, costs=generated.costs, method=method,
                    collect="counters",
                )
                cold_run = cold.query(generated.query, n=n, costs=generated.costs, method=method)
                assert _pairs(served) == _pairs(cold_run), (n, method, case.describe())
                # the first request of an explicit method is the first of
                # its key in this sweep: a hit there predates the sweep
                if position == 0 and method != "auto" and served.report.result_cache_hit:
                    held += 1
    return held


@pytest.mark.parametrize(
    "kind, seed",
    [(kind, seed) for kind, seeds in WRITE_WALK_SEEDS.items() for seed in seeds],
)
def test_write_scoped_cache_matches_cold_across_a_write_walk(kind, seed, tmp_path):
    """A seeded insert/delete/replace walk: after every write the caching
    handle answers byte-identically to its cache-off twin, and at least
    one write carried an entry that then served."""
    from repro.xmltree.serialize import subtree_to_xml

    case = generated_case(1900 + seed, num_elements=60)
    copies = [subtree_to_xml(case.tree, root) for root in case.tree.document_roots()]
    hot, cold = _walk_handles(kind, 1900 + seed, tmp_path)
    rng = random.Random(seed)
    carried_hits = 0
    with hot, cold:
        _walk_sweep(hot, cold, case)
        for _ in range(WRITE_WALK_STEPS):
            action = rng.choice(("insert", "delete", "replace"))
            live = hot.documents()
            if action != "insert" and len(live) < 2:
                action = "insert"
            if action == "insert":
                document = _walk_document(rng, copies)
                hot.insert_document(document)
                cold.insert_document(document)
            elif action == "delete":
                root = rng.choice(live)
                hot.delete_document(root)
                cold.delete_document(root)
            else:
                root, document = rng.choice(live), _walk_document(rng, copies)
                hot.replace_document(root, document)
                cold.replace_document(root, document)
            carried_hits += _walk_sweep(hot, cold, case)
    assert carried_hits > 0, case.describe()


# ---------------------------------------------------------------------------
# decomposition: an answer is the merge of every document's own answer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_answer_decomposes_per_document(seed):
    """Every embedding lies inside its result node's subtree, so the full
    answer over a collection is the cost-ordered merge of each document's
    answer, roots translated to the collection's numbering.  The schema
    method breaks cost ties by skeleton signature, so its side compares
    (cost, root) multisets per cost; the direct method's order is
    (cost, root) on both sides."""
    from repro.xmltree.model import extract_document

    case = generated_case(seed, num_elements=60)
    tree = case.tree
    whole = Database.from_tree(tree)
    parts = [
        (root, Database.from_tree(extract_document(tree, root)))
        for root in tree.document_roots()
    ]
    for generated in case.queries:
        for method in ("direct", "schema"):
            full = [
                (r.cost, r.root)
                for r in whole.query(generated.query, n=None, costs=generated.costs, method=method)
                if r.root != 0  # the super-root lies outside every document
            ]
            merged = sorted(
                (r.cost, root + r.root - 1)
                for root, part in parts
                for r in part.query(generated.query, n=None, costs=generated.costs, method=method)
                if r.root != 0
            )
            if method == "direct":
                assert full == merged, case.describe()
            else:
                assert [cost for cost, _ in full] == [cost for cost, _ in merged]
                assert sorted(full) == merged, case.describe()
