"""Property: the scoped, memoized evaluator ≡ Figure 4 as printed.

:class:`~repro.engine.primary.PrimaryEvaluator` builds a selector's match
list once per scope, cuts fetched postings down to the rows below the
enclosing selector's candidates and lets every join pick its own
range-minimum strategy.  None of that may show in the result: on every
generated (tree, query, cost model) the root list must equal, row for row
and on both cost tracks, what the unscoped, unmemoized recursion over the
entry-per-object reference operators (:mod:`tests.figure4`) produces —
for list-backed postings (:class:`MemoryNodeIndexes`) and for the
``array('q')``-backed columns a store decodes (:class:`StoredNodeIndexes`).

The generator leans on what scoping and the shared match lists could get
wrong: deletable inner nodes (every deletion bridge reaches its child
under a second scope), nested same-label elements (candidate intervals
that nest), and renaming lists the cost-model API would refuse but the
recursion must still survive — a renaming equal to the label, two
renamings sharing a target (the same posting merged in twice, every row a
duplicate ``pre``).
"""

import random
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approxql.expanded import RepType, build_expanded
from repro.engine.primary import PrimaryEvaluator
from repro.storage.kv import MemoryStore
from repro.xmltree.indexes import MemoryNodeIndexes, StoredNodeIndexes
from repro.xmltree.model import NodeType

from .figure4 import reference_primary
from .strategies import STRUCT_LABELS, TEXT_LABELS, random_cost_model, random_query, random_tree


def overlap_renamings(rng: random.Random, expanded) -> None:
    """Give selectors renaming lists that overlap: the label itself as a
    renaming, one target twice at different costs."""
    for node in expanded.iter_unique_nodes():
        if node.reptype not in (RepType.NODE, RepType.LEAF):
            continue
        if rng.random() < 0.4:
            node.renamings = [*node.renamings, (node.label, float(rng.randint(0, 3)))]
        if rng.random() < 0.4:
            labels = TEXT_LABELS if node.node_type == NodeType.TEXT else STRUCT_LABELS
            target = node.renamings[0][0] if node.renamings else rng.choice(labels)
            node.renamings = [*node.renamings, (target, float(rng.randint(1, 6)))]


def generated(seed: int):
    rng = random.Random(seed)
    # four struct labels over up to seven levels: same-label nesting is
    # the rule, not the exception
    tree = random_tree(rng, max_nodes=40, max_depth=6)
    costs = random_cost_model(rng)
    for label in STRUCT_LABELS:  # deletable inner nodes -> a DAG
        if rng.random() < 0.6:
            costs.set_delete_cost(label, NodeType.STRUCT, rng.randint(1, 9))
    tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
    expanded = build_expanded(random_query(rng, max_depth=4), costs)
    overlap_renamings(rng, expanded)
    return tree, expanded


def rows(entries) -> list:
    return [(e.pre, e.bound, e.pathcost, e.inscost, e.embcost, e.leafcost) for e in entries]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_scoped_root_list_equals_unscoped_reference(seed):
    tree, expanded = generated(seed)
    memory = MemoryNodeIndexes(tree)
    expected = rows(reference_primary(memory, expanded))
    assert PrimaryEvaluator(memory).evaluate(expanded).rows() == expected, expanded.format()

    store = MemoryStore()
    StoredNodeIndexes.build(tree, store)
    stored = StoredNodeIndexes(store)
    assert PrimaryEvaluator(stored).evaluate(expanded).rows() == expected, expanded.format()


def test_stored_postings_are_array_backed():
    """The second leg above is only worth running while a store's
    postings really are flat buffers."""
    tree, _ = generated(1)
    store = MemoryStore()
    StoredNodeIndexes.build(tree, store)
    posting = StoredNodeIndexes(store).fetch(tree.label(tree.document_roots()[0]), NodeType.STRUCT)
    assert isinstance(posting.pre, array)


def test_scoping_and_sharing_are_exercised():
    """The generator reaches what it is for: across a few seeds, rows are
    scoped out, match lists are reused, and duplicate-``pre`` merges
    happen — otherwise the property above proves less than it says."""
    scoped_out = reused = 0
    for seed in range(40):
        tree, expanded = generated(seed)
        evaluator = PrimaryEvaluator(MemoryNodeIndexes(tree))
        evaluator.evaluate(expanded)
        scoped_out += evaluator.postings_scoped_out
        reused += evaluator.memo_hits
    assert scoped_out > 0
    assert reused > 0
