"""Algorithm ``primary`` adapted to the schema — finding the best k
second-level queries (Section 7.2).

The recursion is the one of Figure 4; the list operations are the
segmented top-k variants, and the result entries are second-level query
skeletons (schema node + label + pointer set).  Tree classes and the
transitivity of embeddings (Section 7.1) guarantee that running the same
algorithm over the schema's indexes enumerates exactly the images of all
approximate embeddings of the query in the schema.

Two things keep a round's work proportional to what can reach a root
match.  *Scoping*: a selector's fetched classes are kept only where they
lie below a candidate of the enclosing selector — a class with no
candidate ancestor is dropped by the enclosing join whatever it costs, so
it is dropped before any list is built from it.  *Resumption*: one
evaluator serves all of a query's growing-k rounds; what does not depend
on k (scopes, scoped candidates) is built once, and a list that came out
exact (see :mod:`.topk_ops`) is the list for every larger k and is reused
as it is.
"""

from __future__ import annotations

from bisect import bisect_left

from ..approxql.expanded import ExpandedNode, ExpandedQuery, RepType
from ..errors import EvaluationError
from ..storage.cache import FetchMemo
from ..telemetry.collector import count as _telemetry_count
from ..xmltree.model import NodeType
from .indexes import SchemaNodeIndexes
from .topk_ops import (
    TopKList,
    fetch_k,
    intersect_k,
    join_k,
    merge_shifted_k,
    outerjoin_k,
)


class _Scope:
    """The schema nodes below any candidate of one enclosing selector, as
    the sorted, disjoint ``(start, end]`` preorder intervals of the
    outermost candidates (class intervals nest or are disjoint)."""

    __slots__ = ("uid", "starts", "ends")

    def __init__(self, uid: int, candidates: "list[TopKList]") -> None:
        self.uid = uid
        self.starts: list[int] = []
        self.ends: list[int] = []
        reach = -1
        for pre, bound in sorted(
            (entry.pre, entry.bound) for entries in candidates for entry in entries
        ):
            if pre > reach:
                self.starts.append(pre)
                self.ends.append(bound)
                reach = bound

    def restrict(self, entries: TopKList) -> TopKList:
        """The entries of a fetched list (one per schema node) that lie
        in scope."""
        starts, ends = self.starts, self.ends
        kept = []
        for entry in entries:
            pre = entry.pre
            interval = bisect_left(starts, pre) - 1
            if interval >= 0 and ends[interval] >= pre:
                kept.append(entry)
        if len(kept) == len(entries):
            return entries
        _telemetry_count("schema.candidates_scoped_out", len(entries) - len(kept))
        return TopKList(kept)


class PrimaryKEvaluator:
    """Top-k runs of ``primary`` over the schema indexes.

    One instance serves one query: the incremental driver calls
    :meth:`evaluate` once per round with a growing ``k``.  After a call,
    :attr:`exact` tells whether the returned root list contains *all*
    second-level queries of the query's closure (nothing was discarded
    anywhere).
    """

    def __init__(self, indexes: SchemaNodeIndexes, k: int) -> None:
        if k < 1:
            raise EvaluationError(f"k must be positive, got {k}")
        self._indexes = indexes
        self._k = k
        #: whether the last :meth:`evaluate` discarded nothing
        self.exact = False
        # Same lifetime contract as PrimaryEvaluator._fetch_cache (see
        # repro.storage.cache): one memo per query evaluation.
        self._fetch_cache = FetchMemo()
        self._expanded: "ExpandedQuery | None" = None
        # What does not depend on k, per (selector uid, scope uid): the
        # selector's scoped candidates and the scope they span for its
        # content (None for a leaf).
        self._selectors: dict[tuple[int, int], tuple[list, "_Scope | None"]] = {}
        # The lists.  Keys name a place in the query, never an object, so
        # they mean the same in every round: (selector uid, scope uid) for
        # what a selector matches, (node uid, ancestor label, scope uid)
        # for a node's list under one label of the enclosing selector.
        # The expanded query is a DAG (a deletion bridge shares the
        # child), so one node is reached under several scopes.
        self._exact_lists: dict[tuple, TopKList] = {}
        self._round_lists: dict[tuple, TopKList] = {}

    def evaluate(self, expanded: ExpandedQuery, k: "int | None" = None) -> TopKList:
        """All candidate second-level queries (root matches with their
        skeletons), as a segmented list over root schema classes.  ``k``
        replaces the evaluator's k for this and later calls; growing it
        on the same query keeps every exact list of the earlier calls."""
        if k is None:
            k = self._k
        if k < 1:
            raise EvaluationError(f"k must be positive, got {k}")
        if expanded is not self._expanded or k < self._k:
            # another query (or a smaller k, which an exact list of a
            # larger one may exceed): nothing carries over
            self._expanded = expanded
            self._fetch_cache = FetchMemo()
            self._selectors.clear()
            self._exact_lists.clear()
        self._k = k
        self._round_lists = {}
        root = expanded.root
        if root.reptype not in (RepType.LEAF, RepType.NODE):
            raise EvaluationError("the root of an expanded query must be a selector")
        result = self._matches(root, None)
        self.exact = result.exact
        return result

    # ------------------------------------------------------------------
    # Figure 4 over the schema
    # ------------------------------------------------------------------

    def _cached(self, key: tuple, build, *args) -> TopKList:
        """The list under ``key``: this round's, an exact one of an
        earlier round, or a newly built one."""
        entries = self._round_lists.get(key)
        if entries is None:
            entries = self._exact_lists.get(key)
            if entries is not None:
                _telemetry_count("schema.lists_reused")
            else:
                entries = build(*args)
                if entries.exact:
                    self._exact_lists[key] = entries
            self._round_lists[key] = entries
        return entries

    def _primary(self, node: ExpandedNode, ancestors: TopKList, scope: _Scope) -> TopKList:
        """The list of ``node`` under ``ancestors`` — the (non-empty)
        candidates of one label of the enclosing selector; ``scope`` is
        what all that selector's labels cover together."""
        key = (node.uid, ancestors[0].label, scope.uid)
        return self._cached(key, self._primary_base, node, ancestors, scope)

    def _primary_base(
        self, node: ExpandedNode, ancestors: TopKList, scope: _Scope
    ) -> TopKList:
        _telemetry_count("schema.topk_list_ops")
        k = self._k
        reptype = node.reptype
        if reptype == RepType.LEAF:
            return outerjoin_k(ancestors, self._matches(node, scope), 0.0, node.delcost, k)
        if reptype == RepType.NODE:
            return join_k(ancestors, self._matches(node, scope), 0.0, k)
        assert node.left is not None and node.right is not None
        left = self._primary(node.left, ancestors, scope)
        right = self._primary(node.right, ancestors, scope)
        if reptype == RepType.AND:
            return intersect_k(left, right, 0.0, k)
        if reptype == RepType.OR:
            # the right edge of a deletion choice carries the delete cost
            return merge_shifted_k([(left, 0.0), (right, node.edgecost)], k)
        raise EvaluationError(f"unknown representation type {reptype!r}")

    def _matches(self, node: ExpandedNode, scope: "_Scope | None") -> TopKList:
        """What a selector matches in ``scope``, all its labels merged: a
        leaf's fetched classes, an inner selector's candidates that embed
        its content."""
        key = (node.uid, -1 if scope is None else scope.uid)
        return self._cached(key, self._matches_base, node, scope, key)

    def _matches_base(
        self, node: ExpandedNode, scope: "_Scope | None", key: tuple[int, int]
    ) -> TopKList:
        known = self._selectors.get(key)
        if known is None:
            candidates = self._fetch_candidates(node, scope)
            inner = None
            if node.reptype == RepType.NODE:
                inner = _Scope(len(self._selectors), [entries for entries, _ in candidates])
            known = self._selectors[key] = (candidates, inner)
        candidates, inner = known
        if inner is None:
            return merge_shifted_k(candidates, self._k)
        assert node.child is not None
        return merge_shifted_k(
            [
                (self._primary(node.child, entries, inner), cost)
                for entries, cost in candidates
            ],
            self._k,
        )

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------

    def _fetch_candidates(
        self, node: ExpandedNode, scope: "_Scope | None"
    ) -> "list[tuple[TopKList, float]]":
        """The non-empty ``(fetched classes in scope, renaming cost)`` of
        a selector's label and renamings."""
        as_leaf = node.reptype == RepType.LEAF
        candidates = []
        for label, cost in [(node.label, 0.0), *node.renamings]:
            entries = self._fetch(label, node.node_type, as_leaf)
            if scope is not None and entries:
                entries = scope.restrict(entries)
            if entries:
                candidates.append((entries, cost))
        return candidates

    def _fetch(self, label: str, node_type: NodeType, as_leaf: bool) -> TopKList:
        return self._fetch_cache.get_or_build(
            (label, node_type, as_leaf),
            lambda: fetch_k(self._indexes, label, node_type, as_leaf),
        )
