"""Differential property suite: the columnar kernel against the retained
entry-per-object reference implementation.

:mod:`repro.engine.reference` is the executable specification of the
Section 6.4 list algebra; every operator of the columnar kernel
(:mod:`repro.engine.ops`) must reproduce it entry for entry — under both
range-minimum strategies, each steered to by the *shape of the input*
(wide nested intervals make the sparse tables pay, many narrow ones the
slice sweep), on hypothesis-generated lists and on generated
collections.  The suite also covers the duplicate-``pre`` collapse in
``merge`` and the derived-column caches the kernel's ``fetch`` rides on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ops, reference
from repro.engine.columns import EvalColumns, SparseTable
from repro.engine.entries import INFINITE, ListEntry
from repro.engine.evaluator import DirectEvaluator
from repro.schema.evaluator import SchemaEvaluator
from repro.storage.cache import PostingCache
from repro.storage.kv import MemoryStore, Namespace
from repro.telemetry.collector import Telemetry, collecting
from repro.transform.naive import evaluate_naive
from repro.xmltree.indexes import MemoryNodeIndexes, StoredNodeIndexes
from repro.xmltree.model import NodeType, TreeBuilder

from .strategies import (
    STRUCT_LABELS,
    TEXT_LABELS,
    generated_case,
    random_cost_model,
    random_query,
)


def assert_same(actual, expected):
    """The columnar result must equal the reference list entry for entry,
    across all six fields."""
    assert isinstance(actual, EvalColumns)
    assert actual.rows() == [
        (e.pre, e.bound, e.pathcost, e.inscost, e.embcost, e.leafcost)
        for e in expected
    ]


# same generation scheme as tests/test_properties_engine_ops.py: entries
# over a small universe, bounds chosen so nesting happens
entry_strategy = st.builds(
    lambda pre, span, pathcost, inscost, embcost, has_leaf: ListEntry(
        pre, pre + span, float(pathcost), float(inscost), float(embcost),
        float(embcost) if has_leaf else INFINITE,
    ),
    pre=st.integers(min_value=0, max_value=40),
    span=st.integers(min_value=0, max_value=10),
    pathcost=st.integers(min_value=0, max_value=9),
    inscost=st.integers(min_value=0, max_value=4),
    embcost=st.integers(min_value=0, max_value=9),
    has_leaf=st.booleans(),
)


def eval_list(entries):
    """Deduplicate by pre (keep first) and sort — a legal evaluation list."""
    by_pre = {}
    for entry in entries:
        by_pre.setdefault(entry.pre, entry)
    return [by_pre[pre] for pre in sorted(by_pre)]


lists = st.lists(entry_strategy, max_size=25).map(eval_list)
edges = st.integers(min_value=0, max_value=5)


def stretched(entries):
    """The same rows as ancestors that each reach past every descendant:
    the total interval width is (rows x descendants below), far above the
    |D| log |D| a sparse-table build costs once there are a few of them."""
    return [
        ListEntry(e.pre, 1_000, e.pathcost, e.inscost, e.embcost, e.leafcost)
        for e in entries
    ]


#: ancestor lists of both shapes: many narrow intervals / wide nested ones
ancestor_lists = st.one_of(lists, lists.map(stretched))


def range_minimum_joins(run):
    """The (sparse-table, slice-sweep) join counts of ``run()``."""
    telemetry = Telemetry()
    with collecting(telemetry):
        run()
    counters = telemetry.counters
    return counters.get("kernel.rmq_joins", 0), counters.get("kernel.linear_joins", 0)


class TestSparseTable:
    @settings(max_examples=60, deadline=None)
    @given(scores=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=24))
    def test_minimum_matches_slice_min_on_every_range(self, scores):
        scores = [float(value) for value in scores]
        table = SparseTable(scores)
        for low in range(len(scores)):
            for high in range(low + 1, len(scores) + 1):
                assert table.minimum(low, high) == min(scores[low:high])

    def test_handles_infinities(self):
        scores = [INFINITE, 3.0, INFINITE, 1.0]
        table = SparseTable(scores)
        assert table.minimum(0, 1) == INFINITE
        assert table.minimum(0, 4) == 1.0
        assert table.minimum(0, 3) == 3.0


class TestOperatorEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(ancestors=ancestor_lists, descendants=lists, edge=edges)
    def test_join(self, ancestors, descendants, edge):
        assert_same(
            ops.join(ancestors, descendants, float(edge)),
            reference.join(ancestors, descendants, float(edge)),
        )

    @settings(max_examples=80, deadline=None)
    @given(
        ancestors=ancestor_lists,
        descendants=lists,
        edge=edges,
        delete=st.one_of(st.integers(min_value=0, max_value=9), st.just(INFINITE)),
    )
    def test_outerjoin(self, ancestors, descendants, edge, delete):
        assert_same(
            ops.outerjoin(ancestors, descendants, float(edge), float(delete)),
            reference.outerjoin(ancestors, descendants, float(edge), float(delete)),
        )

    def test_both_range_minimum_strategies_are_reached(self):
        """The two ancestor shapes above are not decoration: over one
        descendant list, narrow intervals take the slice sweep and
        stretched ones the sparse tables — and both equal the reference."""
        descendants = [ListEntry(pre, pre, float(pre % 7), 0.0, float(pre % 3), float(pre % 5))
                       for pre in range(10, 60)]
        narrow = [ListEntry(pre, pre + 3, 1.0, 1.0, 0.0, 0.0) for pre in range(0, 60, 4)]
        for ancestors, strategy in ((narrow, (0, 2)), (stretched(narrow), (2, 0))):
            results = []
            assert strategy == range_minimum_joins(
                lambda: results.extend(
                    (ops.join(ancestors, descendants, 1.0),
                     ops.outerjoin(ancestors, descendants, 1.0, 4.0))
                )
            )
            assert_same(results[0], reference.join(ancestors, descendants, 1.0))
            assert_same(results[1], reference.outerjoin(ancestors, descendants, 1.0, 4.0))

    @settings(max_examples=80, deadline=None)
    @given(left=lists, right=lists, rename=edges)
    def test_merge(self, left, right, rename):
        # overlapping pres are deliberately NOT filtered: both kernels
        # must collapse them identically
        assert_same(
            ops.merge(left, right, float(rename)),
            reference.merge(left, right, float(rename)),
        )

    @settings(max_examples=80, deadline=None)
    @given(left=lists, right=lists, edge=edges)
    def test_intersect(self, left, right, edge):
        assert_same(
            ops.intersect(left, right, float(edge)),
            reference.intersect(left, right, float(edge)),
        )

    @settings(max_examples=80, deadline=None)
    @given(left=lists, right=lists, edge=edges)
    def test_union(self, left, right, edge):
        assert_same(
            ops.union(left, right, float(edge)),
            reference.union(left, right, float(edge)),
        )

    @settings(max_examples=80, deadline=None)
    @given(entries=lists, n=st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
    def test_sort_best(self, entries, n):
        assert_same(ops.sort_best(n, entries), reference.sort_best(n, entries))

    @settings(max_examples=60, deadline=None)
    @given(entries=lists, edge=st.integers(min_value=1, max_value=5))
    def test_add_edge_cost(self, entries, edge):
        assert_same(
            ops.add_edge_cost(entries, float(edge)),
            reference.add_edge_cost(entries, float(edge)),
        )


class TestMergeDuplicatePre:
    """Regression: two renamings landing on the same data node must fold
    into one entry (unique-``pre`` invariant) taking the cheaper cost per
    track — in both kernels."""

    def collapse(self, merge_impl):
        left = [ListEntry(5, 9, 1.0, 1.0, 3.0, 4.0)]
        right = [ListEntry(5, 9, 1.0, 1.0, 1.0, INFINITE)]
        merged = merge_impl(left, right, 1.0)
        assert len(merged) == 1
        only = merged[0]
        assert only.pre == 5
        assert only.embcost == 2.0  # right + rename beats left
        assert only.leafcost == 4.0  # right has no leaf track: left wins
        return merged

    def test_columnar_kernel_collapses(self):
        self.collapse(ops.merge)

    def test_reference_kernel_collapses(self):
        self.collapse(reference.merge)

    def test_infinite_leafcosts_stay_infinite(self):
        left = [ListEntry(5, 9, 1.0, 1.0, 3.0, INFINITE)]
        right = [ListEntry(5, 9, 1.0, 1.0, 1.0, INFINITE)]
        for merge_impl in (ops.merge, reference.merge):
            merged = merge_impl(left, right, 2.0)
            assert len(merged) == 1
            assert merged[0].leafcost == INFINITE

    def test_mixed_equal_and_distinct_pres_stay_sorted_unique(self):
        left = [ListEntry(1, 1, 0.0, 1.0, 0.0, 0.0), ListEntry(5, 9, 1.0, 1.0, 2.0, 2.0)]
        right = [ListEntry(3, 3, 0.0, 1.0, 0.0, 0.0), ListEntry(5, 9, 1.0, 1.0, 0.0, 0.0)]
        for merge_impl in (ops.merge, reference.merge):
            merged = merge_impl(left, right, 1.0)
            pres = [entry.pre for entry in merged]
            assert pres == [1, 3, 5]
            collapsed = merged[2]
            assert collapsed.embcost == 1.0  # renamed right wins
            assert collapsed.leafcost == 1.0


class TestFetchEquivalence:
    def test_fetch_matches_reference_on_generated_collection(self):
        case = generated_case(4321, num_elements=60)
        costs = case.queries[0].costs
        case.tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        indexes = MemoryNodeIndexes(case.tree)
        for node_type in (NodeType.STRUCT, NodeType.TEXT):
            for label in indexes.labels(node_type):
                for as_leaf in (False, True):
                    assert_same(
                        ops.fetch(indexes, label, node_type, as_leaf),
                        reference.fetch(indexes, label, node_type, as_leaf),
                    )


def _nested_collection(rng: random.Random, depth: int):
    """One document that is a single chain of ``depth`` nested elements
    with words at every level: each element's interval holds everything
    below it, so a join's total interval width grows with depth x size —
    the shape where the sparse tables pay for themselves."""
    builder = TreeBuilder()
    for _ in range(depth):
        builder.start_struct(rng.choice(STRUCT_LABELS[:2]))
        builder.add_word(rng.choice(TEXT_LABELS))
    for _ in range(depth):
        builder.add_word(rng.choice(TEXT_LABELS))
        builder.end_struct()
    return builder.finish()


@pytest.mark.parametrize("pin", ["rmq-always", "rmq-never"])
@pytest.mark.parametrize("seed", range(3))
def test_oracle_agreement_under_pinned_crossover(pin, seed):
    """The full differential oracle on each side of the per-join
    range-minimum choice: naive ≡ direct ≡ schema however interval minima
    are answered.  Nothing is pinned any more — the *collection* steers:
    a deep chain of nested elements (``rmq-always``) makes direct
    evaluation build sparse tables, the flat generated collections
    (``rmq-never``) keep it on slice sweeps; both are asserted."""
    if pin == "rmq-always":
        rng = random.Random(640 + seed)
        tree = _nested_collection(rng, depth=40)
        queries = [(random_query(rng, max_depth=2), random_cost_model(rng)) for _ in range(6)]
        describe = f"nested chain, seed {640 + seed}"
    else:
        case = generated_case(640 + seed)
        tree = case.tree
        queries = [(generated.query, generated.costs) for generated in case.queries]
        describe = case.describe()
    direct = DirectEvaluator(tree)
    schema = SchemaEvaluator(tree)
    tables = sweeps = 0
    for query, costs in queries:
        naive = {pair.root: pair.cost for pair in evaluate_naive(query, tree, costs)}
        answered = {}
        used = range_minimum_joins(
            lambda: answered.update(
                (r.root, r.cost) for r in direct.evaluate(query, costs)
            )
        )
        tables, sweeps = tables + used[0], sweeps + used[1]
        assert answered == naive, describe
        via_schema = {r.root: r.cost for r in schema.evaluate(query, costs)}
        assert via_schema == naive, describe
    assert (tables if pin == "rmq-always" else sweeps) > 0
    if pin == "rmq-never":
        assert tables == 0


class TestColumnCaching:
    """The derived-value caches the kernel's ``fetch`` rides on."""

    def _encoded_memory_indexes(self):
        case = generated_case(777, num_elements=50)
        case.tree.encode_costs(lambda label: 1.0, fingerprint=("unit", 1.0))
        indexes = MemoryNodeIndexes(case.tree)
        label = next(iter(indexes.labels(NodeType.STRUCT)))
        return case.tree, indexes, label

    def test_memory_indexes_reuse_columns_until_reencode(self):
        tree, indexes, label = self._encoded_memory_indexes()
        first = ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert ops.fetch(indexes, label, NodeType.STRUCT, False) is first
        # the leaf variant is a distinct derived value under the same label
        leaf = ops.fetch(indexes, label, NodeType.STRUCT, True)
        assert leaf is not first
        assert ops.fetch(indexes, label, NodeType.STRUCT, True) is leaf
        # re-encoding under a different cost table drops the cached columns
        tree.encode_costs(lambda label: 2.0, fingerprint=("unit", 2.0))
        rebuilt = ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert rebuilt is not first

    def test_memory_indexes_without_fingerprint_do_not_cache(self):
        tree, indexes, label = self._encoded_memory_indexes()
        tree.encode_costs(lambda label: 1.0, fingerprint=None)
        first = ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert ops.fetch(indexes, label, NodeType.STRUCT, False) is not first

    def test_cached_columns_carry_their_sparse_tables(self):
        _, indexes, label = self._encoded_memory_indexes()
        first = ops.fetch(indexes, label, NodeType.STRUCT, False)
        table = first.emb_rmq()
        again = ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert again.emb_rmq() is table

    def test_stored_indexes_columns_invalidated_by_store_write(self):
        case = generated_case(888, num_elements=50)
        case.tree.encode_costs(lambda label: 1.0, fingerprint=("unit", 1.0))
        store = MemoryStore()
        StoredNodeIndexes.build(case.tree, store)
        indexes = StoredNodeIndexes(store, posting_cache=PostingCache())
        label = next(iter(indexes.labels(NodeType.STRUCT)))
        first = ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert ops.fetch(indexes, label, NodeType.STRUCT, False) is first
        # any write moves the generation and lazily drops cached columns
        Namespace(store, b"unrelated").put(b"key", b"value")
        rebuilt = ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert rebuilt is not first

    def test_stored_indexes_without_cache_rebuild_every_time(self):
        case = generated_case(888, num_elements=50)
        case.tree.encode_costs(lambda label: 1.0, fingerprint=("unit", 1.0))
        store = MemoryStore()
        StoredNodeIndexes.build(case.tree, store)
        indexes = StoredNodeIndexes(store)
        label = next(iter(indexes.labels(NodeType.STRUCT)))
        first = ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert ops.fetch(indexes, label, NodeType.STRUCT, False) is not first

    def test_kernel_counters_surface_in_telemetry(self):
        tree, indexes, label = self._encoded_memory_indexes()
        telemetry = Telemetry()
        with collecting(telemetry):
            ops.fetch(indexes, label, NodeType.STRUCT, False)
            ops.fetch(indexes, label, NodeType.STRUCT, False)
        assert telemetry.counters.get("kernel.columns_built", 0) >= 1
        assert telemetry.counters.get("kernel.column_cache_misses", 0) == 1
        assert telemetry.counters.get("kernel.column_cache_hits", 0) == 1

    def test_rmq_counters_tick_under_forced_sparse_tables(self):
        # forced by the input: eight nested ancestors over 39 descendants
        # sweep 8 x 39 = 312 rows, more than the 39 x 6 a table build costs
        nested = [ListEntry(pre, 100, 0.0, 1.0, 0.0, 0.0) for pre in range(-8, 0)]
        descendants = [
            ListEntry(pre, pre, 1.0, 0.0, 0.0, 0.0) for pre in range(1, 40)
        ]
        telemetry = Telemetry()
        with collecting(telemetry):
            ops.join(nested, descendants, 0.0)
        assert telemetry.counters.get("kernel.rmq_joins", 0) == 1
        assert telemetry.counters.get("kernel.rmq_builds", 0) == 2  # emb + leaf
        assert telemetry.counters.get("kernel.linear_joins", 0) == 0
        # one ancestor sweeps 39 rows once: no table
        with collecting(telemetry):
            ops.join(nested[-1:], descendants, 0.0)
        assert telemetry.counters.get("kernel.linear_joins", 0) == 1
        assert telemetry.counters.get("kernel.rmq_joins", 0) == 1
