"""Property-based tests for the segmented top-k operations."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.entries import SchemaEntry
from repro.schema.topk_ops import (
    fetch_k,
    intersect_k,
    join_k,
    merge_k,
    merge_shifted_k,
    outerjoin_k,
    sort_roots,
    union_k,
)


def make_entry(pre, embcost, label, has_leaf=True, bound=None, pathcost=0.0):
    return SchemaEntry(
        pre, pre if bound is None else bound, pathcost, 1.0, embcost, label, (), has_leaf
    )


entry_strategy = st.builds(
    make_entry,
    pre=st.integers(min_value=1, max_value=20),
    embcost=st.floats(min_value=0, max_value=50, allow_nan=False),
    label=st.sampled_from(["a", "b", "c", "d", "e"]),
    has_leaf=st.booleans(),
)


def as_list(entries):
    return sorted(entries, key=lambda e: (e.pre, e.embcost, e.signature))


def segment_sizes(entries):
    counts = {}
    for entry in entries:
        key = (entry.pre, entry.has_leaf)
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestSegmentInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(entry_strategy, max_size=25),
        right=st.lists(entry_strategy, max_size=25),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_merge_respects_quotas_and_order(self, left, right, k):
        result = merge_k(as_list(left), as_list(right), 2.0, k)
        assert all(count <= k for count in segment_sizes(result).values())
        pres = [entry.pre for entry in result]
        assert pres == sorted(pres)
        signatures = {(e.pre, e.has_leaf, e.signature) for e in result}
        assert len(signatures) == len(result)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(entry_strategy, max_size=25),
        right=st.lists(entry_strategy, max_size=25),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_union_monotone_in_k(self, left, right, k):
        """Growing k only adds entries (the §7.4 prefix property at the
        segment level)."""
        small = union_k(as_list(left), as_list(right), 0.0, k)
        large = union_k(as_list(left), as_list(right), 0.0, k + 2)
        small_keys = {(e.pre, e.has_leaf, e.signature) for e in small}
        large_keys = {(e.pre, e.has_leaf, e.signature) for e in large}
        assert small_keys <= large_keys

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(entry_strategy, max_size=20),
        right=st.lists(entry_strategy, max_size=20),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_intersect_only_common_pres(self, left, right, k):
        result = intersect_k(as_list(left), as_list(right), 0.0, k)
        left_pres = {entry.pre for entry in left}
        right_pres = {entry.pre for entry in right}
        assert all(entry.pre in left_pres & right_pres for entry in result)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(entry_strategy, max_size=15),
        right=st.lists(entry_strategy, max_size=15),
    )
    def test_intersect_costs_are_pair_sums(self, left, right):
        result = intersect_k(as_list(left), as_list(right), 0.0, k=100)
        sums = {
            (le.pre, le.embcost + re.embcost)
            for le in left
            for re in right
            if le.pre == re.pre
        }
        for entry in result:
            assert (entry.pre, entry.embcost) in sums


class TestJoinProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        descendants=st.lists(entry_strategy, max_size=25),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_join_output_bounded_by_k_per_class(self, descendants, k):
        ancestors = [make_entry(0, 0.0, "root", has_leaf=False, bound=100)]
        result = join_k(ancestors, as_list(descendants), 0.0, k)
        assert all(count <= k for count in segment_sizes(result).values())

    @settings(max_examples=60, deadline=None)
    @given(descendants=st.lists(entry_strategy, max_size=25))
    def test_join_picks_global_minimum(self, descendants):
        ancestors = [make_entry(0, 0.0, "root", has_leaf=False, bound=100)]
        result = join_k(ancestors, as_list(descendants), 0.0, k=1)
        if descendants:
            expected = min(e.pathcost + e.embcost for e in descendants) - 1.0
            assert min(e.embcost for e in result) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        descendants=st.lists(entry_strategy, max_size=20),
        delete_cost=st.floats(min_value=0, max_value=20, allow_nan=False),
    )
    def test_outerjoin_always_keeps_ancestors(self, descendants, delete_cost):
        ancestors = [make_entry(0, 0.0, "root", has_leaf=False, bound=100)]
        result = outerjoin_k(ancestors, as_list(descendants), 0.0, delete_cost, k=2)
        assert any(not entry.has_leaf for entry in result)  # the deletion candidate

    @settings(max_examples=40, deadline=None)
    @given(descendants=st.lists(entry_strategy, min_size=1, max_size=30))
    def test_inexact_iff_candidates_exceed_k(self, descendants):
        ancestors = [make_entry(0, 0.0, "root", has_leaf=False, bound=100)]
        joined = join_k(ancestors, as_list(descendants), 0.0, k=1)
        valid = len({e.signature for e in descendants if e.has_leaf})
        invalid = len({e.signature for e in descendants if not e.has_leaf})
        assert joined.exact == (valid <= 1 and invalid <= 1)


class TestSortRoots:
    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(entry_strategy, max_size=30), k=st.integers(min_value=0, max_value=10))
    def test_prefix_property(self, entries, k):
        ordered = as_list(entries)
        small = sort_roots(k, ordered)
        large = sort_roots(k + 3, ordered)
        assert [(e.pre, e.signature) for e in large[: len(small)]] == [
            (e.pre, e.signature) for e in small
        ]

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(entry_strategy, max_size=30))
    def test_only_valid_and_sorted(self, entries):
        result = sort_roots(None, as_list(entries))
        assert all(entry.has_leaf for entry in result)
        costs = [entry.embcost for entry in result]
        assert costs == sorted(costs)


class TestIncrementalPrefixEndToEnd:
    def test_growing_k_extends_second_level_list(self):
        """The root query list for k is a prefix of the list for k' > k
        on a real workload (the property Figure 6 relies on)."""
        from repro.approxql import CostModel, build_expanded, parse_query
        from repro.schema.dataguide import build_schema
        from repro.schema.indexes import SchemaNodeIndexes
        from repro.schema.primary_k import PrimaryKEvaluator
        from .strategies import random_cost_model, random_query, random_tree

        rng = random.Random(321)
        for _ in range(10):
            tree = random_tree(rng)
            schema = build_schema(tree)
            costs = random_cost_model(rng)
            schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
            expanded = build_expanded(random_query(rng), costs)
            indexes = SchemaNodeIndexes(schema)
            previous = None
            for k in (1, 2, 4, 8, 16):
                entries = sort_roots(k, PrimaryKEvaluator(indexes, k).evaluate(expanded))
                keys = [(e.pre, e.signature) for e in entries]
                if previous is not None:
                    assert keys[: len(previous)] == previous
                previous = keys


# ----------------------------------------------------------------------
# the kernel's contracts: prefixes under ties, exactness, brute force
# ----------------------------------------------------------------------

#: few costs and few schema nodes, so most draws contain cost ties
POINTER_POOL = [make_entry(10 + i, 0.0, label) for i, label in enumerate("pqrs")]

tied_entry = st.builds(
    lambda pre, embcost, label, has_leaf, pointers: SchemaEntry(
        pre, 9, 0.0, 1.0, embcost, label, tuple(pointers), has_leaf
    ),
    pre=st.integers(min_value=1, max_value=3),
    embcost=st.sampled_from([0.0, 1.0, 2.0]),
    label=st.sampled_from(["a", "b", "c"]),
    has_leaf=st.booleans(),
    pointers=st.lists(st.sampled_from(POINTER_POOL), max_size=2, unique=True),
)
#: join inputs: descendants of the single ancestor below, tied costs
tied_descendant = st.builds(
    make_entry,
    pre=st.integers(min_value=1, max_value=6),
    embcost=st.sampled_from([0.0, 1.0, 2.0]),
    label=st.sampled_from(["a", "b", "c"]),
    has_leaf=st.booleans(),
)
ANCESTORS = [make_entry(0, 0.0, "root", has_leaf=False, bound=100)]

#: every operator as ``(inputs, k) -> list``
OPERATORS = {
    "merge": lambda left, right, k: merge_k(left, right, 1.0, k),
    "union": lambda left, right, k: union_k(left, right, 1.0, k),
    "intersect": lambda left, right, k: intersect_k(left, right, 0.0, k),
}
JOINS = {
    "join": lambda descendants, k: join_k(ANCESTORS, descendants, 0.0, k),
    "outerjoin": lambda descendants, k: outerjoin_k(ANCESTORS, descendants, 0.0, 1.0, k),
}


def runs(entries):
    """(pre, validity) -> the run's [(cost, signature)], in list order."""
    grouped = {}
    for entry in entries:
        grouped.setdefault((entry.pre, entry.has_leaf), []).append(
            (entry.embcost, entry.signature)
        )
    return grouped


def assert_k_is_prefix_of_4k(small, large, k):
    large_runs = runs(large)
    for key, run in runs(small).items():
        assert run == sorted(run), "a run is ordered by (cost, signature)"
        assert len(set(signature for _, signature in run)) == len(run) <= k
        assert large_runs[key][: len(run)] == run
    if small.exact:
        assert runs(small) == large_runs
        assert large.exact


def rebuild(entries, k):
    """The specification of a truncation: per (pre, validity) the first
    copy of every skeleton in (cost, signature) order, the best k."""
    grouped = {}
    for entry in sorted(entries, key=lambda e: (e.embcost, e.signature)):
        run = grouped.setdefault((entry.pre, entry.has_leaf), [])
        if entry.signature not in {signature for _, signature in run} and len(run) < k:
            run.append((entry.embcost, entry.signature))
    return grouped


class TestKernelContracts:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(OPERATORS)),
        left=st.lists(tied_entry, max_size=12),
        right=st.lists(tied_entry, max_size=12),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_binary_operators_prefix_and_exact(self, name, left, right, k):
        operator = OPERATORS[name]
        assert_k_is_prefix_of_4k(operator(left, right, k), operator(left, right, 4 * k), k)

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(JOINS)),
        descendants=st.lists(tied_descendant, max_size=14),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_joins_prefix_and_exact(self, name, descendants, k):
        operator = JOINS[name]
        assert_k_is_prefix_of_4k(operator(descendants, k), operator(descendants, 4 * k), k)

    @settings(max_examples=150, deadline=None)
    @given(
        left=st.lists(tied_entry, max_size=12),
        right=st.lists(tied_entry, max_size=12),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_intersect_equals_all_pairs_rebuilt(self, left, right, k):
        pairs = []
        for le in left:
            for re in right:
                if le.pre != re.pre:
                    continue
                pointers = {p.signature: p for p in le.pointers + re.pointers}
                pairs.append(
                    SchemaEntry(
                        le.pre, le.bound, le.pathcost, le.inscost,
                        le.embcost + re.embcost, le.label,
                        tuple(pointers.values()), le.has_leaf or re.has_leaf,
                    )
                )
        result = intersect_k(left, right, 0.0, k)
        assert runs(result) == rebuild(pairs, k)
        if result.exact:
            # (the bit may be cleared without loss — a pair left on the
            # frontier can repeat a taken skeleton — never set with loss)
            assert rebuild(pairs, k) == rebuild(pairs, len(pairs) + 1)

    @settings(max_examples=100, deadline=None)
    @given(
        left=st.lists(tied_entry, max_size=12),
        right=st.lists(tied_entry, max_size=12),
        shift=st.sampled_from([0.0, 1.0]),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_merge_equals_concatenation_rebuilt(self, left, right, shift, k):
        moved = [entry.with_cost(entry.embcost + shift) for entry in right]
        result = merge_shifted_k([(left, 0.0), (right, shift)], k)
        assert runs(result) == rebuild(left + moved, k)


def unscoped_roots(indexes, expanded, k):
    """The root list of Figure 4 over the schema with every selector's
    classes fetched whole and nothing shared between calls — the reference
    the scoped, memoizing evaluator must agree with."""
    from repro.approxql.expanded import RepType

    def labels(node):
        return [(node.label, 0.0), *node.renamings]

    def matches(node):
        if node.reptype == RepType.LEAF:
            parts = [
                (fetch_k(indexes, label, node.node_type, True), cost)
                for label, cost in labels(node)
            ]
        else:
            parts = [
                (primary(node.child, fetch_k(indexes, label, node.node_type, False)), cost)
                for label, cost in labels(node)
            ]
        return merge_shifted_k(parts, k)

    def primary(node, ancestors):
        if node.reptype == RepType.LEAF:
            return outerjoin_k(ancestors, matches(node), 0.0, node.delcost, k)
        if node.reptype == RepType.NODE:
            return join_k(ancestors, matches(node), 0.0, k)
        left = primary(node.left, ancestors)
        right = primary(node.right, ancestors)
        if node.reptype == RepType.AND:
            return intersect_k(left, right, 0.0, k)
        return merge_shifted_k([(left, 0.0), (right, node.edgecost)], k)

    return matches(expanded.root)


def deletable_cost_model(rng):
    """A random cost model in which every inner selector may be deleted,
    so the expanded query shares sub-queries (a DAG) wherever it nests."""
    from repro.xmltree.model import NodeType

    from .strategies import STRUCT_LABELS, random_cost_model

    costs = random_cost_model(rng)
    for label in STRUCT_LABELS:
        costs.set_delete_cost(label, NodeType.STRUCT, rng.randint(1, 6))
    return costs


class TestScopingAndResumption:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_scoped_root_list_equals_unscoped(self, seed):
        from repro.approxql import build_expanded
        from repro.schema.dataguide import build_schema
        from repro.schema.indexes import SchemaNodeIndexes
        from repro.schema.primary_k import PrimaryKEvaluator

        from .strategies import random_query, random_tree

        rng = random.Random(seed)
        schema = build_schema(random_tree(rng, max_nodes=40))
        costs = deletable_cost_model(rng)
        schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        expanded = build_expanded(random_query(rng, max_depth=4), costs)
        indexes = SchemaNodeIndexes(schema)
        resumed = PrimaryKEvaluator(indexes, 1)
        for k in (1, 2, 8, 64):
            reference = unscoped_roots(indexes, expanded, k)
            fresh = PrimaryKEvaluator(indexes, k).evaluate(expanded)
            # the same evaluator with k grown keeps its exact lists
            grown = resumed.evaluate(expanded, k)
            assert runs(fresh) == runs(reference) == runs(grown)
            assert fresh.exact == grown.exact
            if reference.exact:
                assert fresh.exact
