"""Property: the scoped, memoized evaluator ≡ Figure 4 as printed.

:class:`~repro.engine.primary.PrimaryEvaluator` builds a selector's match
list once, at its widest scope, cuts fetched postings down to the rows
below the enclosing selector's candidates, cuts the candidates of a
*trunk* selector (one whose subtree holds every query leaf) to those
with a query-leaf match below them, keeps a trunk selector's rows on one
track and lets every join pick its own range-minimum strategy.  None of
that may show in the answer: on every generated (tree, query, cost
model) the root list must be, row for row, the roots with a valid
embedding in what the unscoped, unmemoized recursion over the
entry-per-object reference operators (:mod:`tests.figure4`) produces,
with ``embcost`` equal to their ``leafcost`` — for list-backed postings
(:class:`MemoryNodeIndexes`) and for postings handed out as
``array('q')``-backed :class:`PostingColumns`, which the kernel borrows
zero-copy.

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
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.approxql.expanded import RepType, build_expanded
from repro.engine import primary
from repro.engine.entries import INFINITE
from repro.engine.primary import PrimaryEvaluator
from repro.storage.postings import PostingColumns
from repro.xmltree.indexes import MemoryNodeIndexes
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


class ColumnarIndexes(MemoryNodeIndexes):
    """The memory index with every posting as flat ``array('q')``
    columns (the generated cost models are integral)."""

    def fetch(self, label, node_type):
        rows = super().fetch(label, node_type)
        return PostingColumns.from_rows([tuple(map(int, row)) for row in rows])


def rows(entries) -> list:
    return [(e.pre, e.bound, e.pathcost, e.inscost, e.embcost, e.leafcost) for e in entries]


def one_track(reference: list) -> list:
    """The root list a trunk-cut evaluation returns for ``reference``: its
    roots with a valid embedding (finite ``leafcost``), in order, each on
    one track (``embcost`` set to ``leafcost``)."""
    return [(*row[:4], row[5], row[5]) for row in reference if row[5] != INFINITE]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
@example(seed=80692)  # a valid root whose unconditional cost is lower
def test_scoped_root_list_equals_unscoped_reference(seed):
    tree, expanded = generated(seed)
    memory = MemoryNodeIndexes(tree)
    expected = rows(reference_primary(memory, expanded))
    fresh = PrimaryEvaluator(memory).evaluate(expanded).rows()
    assert fresh == one_track(expected), expanded.format()

    columnar = ColumnarIndexes(tree)
    assert isinstance(columnar.fetch(tree.label(tree.document_roots()[0]), NodeType.STRUCT).pre, array)
    assert PrimaryEvaluator(columnar).evaluate(expanded).rows() == fresh, expanded.format()


def test_scoping_and_sharing_are_exercised():
    """The generator reaches what it is for: across a few seeds, rows are
    scoped out, root and inner trunk candidates without a leaf match below
    them are dropped, match lists are reused, and duplicate-``pre`` merges
    happen — otherwise the property above proves less than it says."""
    scoped_out = unwitnessed = trunk_unwitnessed = reused = 0
    for seed in range(40):
        tree, expanded = generated(seed)
        evaluator = PrimaryEvaluator(MemoryNodeIndexes(tree))
        evaluator.evaluate(expanded)
        scoped_out += evaluator.postings_scoped_out
        unwitnessed += evaluator.roots_unwitnessed
        trunk_unwitnessed += evaluator.trunk_unwitnessed
        reused += evaluator.memo_hits
    assert scoped_out > 0
    assert unwitnessed > 0
    assert trunk_unwitnessed > 0
    assert reused > 0


class _Rows:
    """A fetched list reduced to what a scope reads: ``pre``, ``bound``
    and ``take``."""

    def __init__(self, pre, bound=None) -> None:
        self.pre = pre
        self.bound = bound if bound is not None else pre

    def __len__(self) -> int:
        return len(self.pre)

    def take(self, rows):
        return _Rows([self.pre[row] for row in rows])


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.integers(-3, 1), max_size=80),
    chosen=st.sets(st.integers(0, 80), max_size=8),
    posting=st.sets(st.integers(0, 80)),
)
def test_a_scope_keeps_the_rows_below_a_candidate(steps, chosen, posting):
    """Read through its mask or bisected per interval, a scope keeps
    exactly the rows inside some candidate's ``(pre, bound]``; the tree is
    a preorder of depths, each node one deeper than the last or back up."""
    depths = [0]
    for step in steps:
        depths.append(max(1, depths[-1] + step))
    size = len(depths)
    bounds = []
    for node, depth in enumerate(depths):
        end = node
        while end + 1 < size and depths[end + 1] > depth:
            end += 1
        bounds.append(end)
    nodes = sorted(node for node in chosen if node < size)
    candidates = _Rows(nodes, [bounds[node] for node in nodes])
    pre = sorted(node for node in posting if node < size)
    expected = [p for p in pre if any(node < p <= bounds[node] for node in nodes)]
    for ratio in (0, 10**9):  # per interval, through the mask
        with patch.object(primary, "_MASK_RATIO", ratio):
            scope = primary._Scope(1, [candidates], None)
            assert list(scope.restrict(_Rows(pre)).pre) == expected
