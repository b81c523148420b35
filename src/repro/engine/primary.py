"""Algorithm ``primary`` — direct query evaluation (Section 6.5).

The recursion is the one of Figure 4, in the shape it also has over the
schema (:mod:`repro.schema.primary_k`): :meth:`PrimaryEvaluator._matches`
is what a selector matches — label and renamings merged, child content
embedded — and :meth:`PrimaryEvaluator._primary` is the list of a query
node under one candidate list of the enclosing selector.  Three things
keep the work linear in the renamings per selector and proportional to
what can reach a root match:

* ``fetch`` results are cached per (label, type), so the identical list
  object flows into every context that needs the same posting;
* a selector's match list does not depend on the ancestor list it is
  joined into, so it is built once per *scope* and reused by every
  candidate list of the enclosing selector and every deletion bridge
  that reaches it — the paper's "dynamic programming to avoid the
  duplicate evaluation of query subtrees";
* *scoping*: a selector's fetched postings are cut down to the rows that
  lie below a candidate of the enclosing selector before any list is
  built from them — a row below no candidate is dropped by the enclosing
  ``join``/``outerjoin`` whatever it costs, so results are unchanged.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import chain

from ..approxql.expanded import ExpandedNode, ExpandedQuery, RepType
from ..errors import EvaluationError
from ..storage.cache import FetchMemo
from ..xmltree.indexes import NodeIndexes
from ..xmltree.model import NodeType
from .columns import EvalColumns
from .entries import INFINITE, ListEntry
from .ops import (
    add_edge_cost,
    fetch,
    intersect,
    join,
    merge_shifted,
    outerjoin,
    union,
)


class _Scope:
    """The data nodes below any candidate of one enclosing selector, as
    the sorted, disjoint ``(start, end]`` preorder intervals of the
    outermost candidates (subtree intervals nest or are disjoint)."""

    __slots__ = ("uid", "starts", "ends")

    def __init__(self, uid: int, candidates: "list[EvalColumns]") -> None:
        self.uid = uid
        self.starts: list[int] = []
        self.ends: list[int] = []
        reach = -1
        for pre, bound in sorted(
            chain.from_iterable(zip(columns.pre, columns.bound) for columns in candidates)
        ):
            if pre > reach and bound > pre:
                self.starts.append(pre)
                self.ends.append(bound)
                reach = bound

    def restrict(self, columns: EvalColumns) -> EvalColumns:
        """The rows of a fetched list that lie in scope, located by
        ``bisect`` from whichever side is shorter: a long posting under
        few candidates costs what the candidates cost, not its length."""
        pre, starts, ends = columns.pre, self.starts, self.ends
        if len(pre) > len(ends):
            lows = [bisect_right(pre, start) for start in starts]
            highs = [bisect_right(pre, end) for end in ends]
            keep = [row for low, high in zip(lows, highs) for row in range(low, high)]
        else:
            # per row, the first interval that does not end before it
            nearest = [bisect_left(ends, value) for value in pre]
            count = len(ends)
            keep = [
                row
                for row, (value, interval) in enumerate(zip(pre, nearest))
                if interval < count and starts[interval] < value
            ]
        return columns if len(keep) == len(pre) else columns.take(keep)


class PrimaryEvaluator:
    """Evaluates expanded queries against the ``I_struct``/``I_text``
    indexes of a data tree.

    The public counters (``fetch_count``, ``postings_fetched``,
    ``postings_scoped_out``, ``memo_hits``, ``list_ops``, ``merge_ops``,
    ``fetch_cache_hits``) expose what one evaluation did — the quantities
    the Section 6.5 complexity bound is phrased in.
    """

    def __init__(self, indexes: NodeIndexes) -> None:
        self._indexes = indexes
        # Lifetime contract (see repro.storage.cache): one memo per
        # evaluator instance, one instance per evaluation — never
        # invalidated; cross-query posting reuse lives in the shared
        # PostingCache underneath the indexes.
        self._fetch_cache = FetchMemo()
        # The lists.  Keys name a place in the query, never an object:
        # (selector uid, scope uid) for what a selector matches,
        # (node uid, scope uid, ancestor label) for a node's list under
        # one label of the enclosing selector.  The expanded query is a
        # DAG (a deletion bridge shares the child), so one node is
        # reached under several scopes.
        self._memo: dict[tuple, EvalColumns] = {}
        self._scopes = 0
        self.fetch_count = 0
        self.postings_fetched = 0
        self.postings_scoped_out = 0
        self.memo_hits = 0
        self.list_ops = 0
        self.merge_ops = 0

    def evaluate(self, expanded: ExpandedQuery) -> EvalColumns:
        """Return the list of root matches of all approximate embeddings;
        entry costs are the embedding costs of the best embedding per
        root (``embcost`` unconditional, ``leafcost`` with the global
        at-least-one-leaf rule enforced)."""
        self._memo.clear()
        root = expanded.root
        if root.reptype not in (RepType.LEAF, RepType.NODE):
            raise EvaluationError("the root of an expanded query must be a selector")
        return self._matches(root, None)

    # ------------------------------------------------------------------
    # the four cases of Figure 4
    # ------------------------------------------------------------------

    def _cached(self, key: tuple, build, *args) -> EvalColumns:
        entries = self._memo.get(key)
        if entries is None:
            entries = self._memo[key] = build(*args)
        else:
            self.memo_hits += 1
        return entries

    def _primary(
        self, node: ExpandedNode, label: str, ancestors: EvalColumns, scope: _Scope
    ) -> EvalColumns:
        """``primary(u, L_A)``: the list of ``node`` under ``ancestors`` —
        the (non-empty) candidates of one ``label`` of the enclosing
        selector; ``scope`` is what all that selector's labels cover
        together."""
        key = (node.uid, scope.uid, label)
        return self._cached(key, self._primary_base, node, label, ancestors, scope)

    def _primary_base(
        self, node: ExpandedNode, label: str, ancestors: EvalColumns, scope: _Scope
    ) -> EvalColumns:
        self.list_ops += 1
        reptype = node.reptype
        if reptype == RepType.LEAF:
            return outerjoin(ancestors, self._matches(node, scope), 0.0, node.delcost)
        if reptype == RepType.NODE:
            return join(ancestors, self._matches(node, scope), 0.0)
        assert node.left is not None and node.right is not None
        left = self._primary(node.left, label, ancestors, scope)
        right = self._primary(node.right, label, ancestors, scope)
        if reptype == RepType.AND:
            return intersect(left, right, 0.0)
        if reptype == RepType.OR:
            # the right edge of a deletion choice carries the delete cost
            return union(left, add_edge_cost(right, node.edgecost), 0.0)
        raise EvaluationError(f"unknown representation type {reptype!r}")

    def _matches(self, node: ExpandedNode, scope: "_Scope | None") -> EvalColumns:
        """What a selector matches in ``scope``, all its labels merged: a
        leaf's fetched rows, an inner selector's candidates annotated
        with the embedding cost of the child subtree beneath them."""
        key = (node.uid, -1 if scope is None else scope.uid)
        return self._cached(key, self._matches_base, node, scope)

    def _matches_base(self, node: ExpandedNode, scope: "_Scope | None") -> EvalColumns:
        candidates = self._fetch_candidates(node, scope)
        if node.reptype == RepType.NODE:
            assert node.child is not None
            self._scopes += 1
            inner = _Scope(self._scopes, [columns for _, columns, _ in candidates])
            candidates = [
                (label, self._primary(node.child, label, columns, inner), cost)
                for label, columns, cost in candidates
            ]
        self.merge_ops += len(node.renamings)
        return merge_shifted([(columns, cost) for _, columns, cost in candidates])

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------

    @property
    def fetch_cache_hits(self) -> int:
        return self._fetch_cache.hits

    def _fetch_candidates(
        self, node: ExpandedNode, scope: "_Scope | None"
    ) -> "list[tuple[str, EvalColumns, float]]":
        """The non-empty ``(label, fetched rows in scope, renaming
        cost)`` of a selector's label and renamings."""
        as_leaf = node.reptype == RepType.LEAF
        candidates = []
        for label, cost in [(node.label, 0.0), *node.renamings]:
            columns = self._fetch(label, node.node_type, as_leaf)
            if scope is not None:
                fetched = len(columns)
                columns = scope.restrict(columns)
                self.postings_scoped_out += fetched - len(columns)
            if len(columns):
                candidates.append((label, columns, cost))
        return candidates

    def _fetch(self, label: str, node_type: NodeType, as_leaf: bool) -> EvalColumns:
        return self._fetch_cache.get_or_build(
            (label, node_type, as_leaf),
            lambda: self._fetch_build(label, node_type, as_leaf),
        )

    def _fetch_build(self, label: str, node_type: NodeType, as_leaf: bool) -> EvalColumns:
        built = fetch(self._indexes, label, node_type, as_leaf)
        self.fetch_count += 1
        self.postings_fetched += len(built)
        return built


def root_cost_pairs(
    entries: "EvalColumns | list[ListEntry]", n: "int | None" = None
) -> list[tuple[int, float]]:
    """Convert a root evaluation list into (root, cost) result pairs,
    keeping only roots with a valid embedding and sorting by (cost, pre).

    Accepts the kernel's columnar lists (the fast path: two column reads,
    no entry views) and plain ``ListEntry`` lists alike; infinity checks
    use the shared ``INFINITE`` sentinel.  ``n`` keeps only the ``n``
    cheapest pairs via a bounded heap selection — O(R log n) instead of
    the O(R log R) full sort, identical output to ``sorted(...)[:n]``
    (the (cost, pre) key is a total order, so ties cut identically)."""
    if isinstance(entries, EvalColumns):
        pairs = [
            (pre, leaf)
            for pre, leaf in zip(entries.pre, entries.leafcost)
            if leaf != INFINITE
        ]
    else:
        pairs = [
            (entry.pre, entry.leafcost)
            for entry in entries
            if entry.leafcost != INFINITE
        ]
    if n is not None and n < len(pairs):
        return heapq.nsmallest(n, pairs, key=lambda pair: (pair[1], pair[0]))
    pairs.sort(key=lambda pair: (pair[1], pair[0]))
    return pairs
