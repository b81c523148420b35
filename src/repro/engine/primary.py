"""Algorithm ``primary`` — the recursion of Figure 4, written once.

Direct evaluation (Section 6.5) and the top-k ``primary`` over the schema
(Section 7.2) are one recursion over two list algebras: data postings
(:class:`~repro.engine.ops.PostingAlgebra`, behind
:class:`PrimaryEvaluator`) and schema class segments at a round's k
(:class:`~repro.schema.topk_ops.SegmentAlgebra`, behind
:class:`~repro.schema.primary_k.PrimaryKEvaluator`).  An algebra supplies
``fetch``, ``join``, ``outerjoin``, ``intersect`` and ``merge_shifted``
plus two hooks: ``exact(list)`` — whether a list is the whole list, the
same for every larger k (always true for data postings) — and
``counters``, the telemetry name of each counter of the recursion.

:meth:`PrimaryRecursion._matches` is what a selector matches — label and
renamings merged, child content embedded — and
:meth:`PrimaryRecursion._primary` is the list of a query node under one
candidate list of the enclosing selector.  Three things keep the work
linear in the renamings per selector and proportional to what can reach a
root match:

* fetches are kept per (label, type, leaf/inner) for the query, so the
  identical list object flows into every context that needs it;
* a selector's match list does not depend on the ancestor list it is
  joined into, so it is built once per *scope* and reused by every
  candidate list of the enclosing selector and every deletion bridge
  that reaches it — the paper's "dynamic programming to avoid the
  duplicate evaluation of query subtrees";
* *scoping*: a selector's fetched list is cut down to the entries that
  lie below a candidate of the enclosing selector before any list is
  built from it — an entry below no candidate is dropped by the enclosing
  ``join``/``outerjoin`` whatever it costs, so results are unchanged.

One evaluator may serve several calls on the same expanded query (the
growing-k rounds of Section 7.4): what does not depend on k — fetches,
scoped candidates, scopes — is kept for the query, and so is every exact
list; a different expanded query resets all of it.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import chain

from ..approxql.expanded import ExpandedNode, ExpandedQuery, RepType
from ..errors import EvaluationError
from ..telemetry import collector as _telemetry
from ..xmltree.indexes import NodeIndexes
from ..xmltree.model import NodeType
from .columns import EvalColumns
from .entries import INFINITE
from .ops import PostingAlgebra


class _Scope:
    """The nodes below any candidate of one enclosing selector, as the
    sorted, disjoint ``(start, end]`` preorder intervals of the outermost
    candidates (subtree intervals nest or are disjoint; a zero-width one —
    a text node, a leaf class — holds nothing and is left out)."""

    __slots__ = ("uid", "starts", "ends")

    def __init__(self, uid: int, candidates: list) -> None:
        self.uid = uid
        self.starts: list[int] = []
        self.ends: list[int] = []
        reach = -1
        for pre, bound in sorted(
            chain.from_iterable(zip(fetched.pre, fetched.bound) for fetched in candidates)
        ):
            if pre > reach and bound > pre:
                self.starts.append(pre)
                self.ends.append(bound)
                reach = bound

    def restrict(self, fetched):
        """The entries of a fetched list (one per data node or schema
        class) that lie in scope, located by ``bisect`` from whichever
        side is shorter: a long posting under few candidates costs what
        the candidates cost, not its length."""
        pre, starts, ends = fetched.pre, self.starts, self.ends
        keep: list[int] = []
        if len(pre) > len(ends):
            for start, end in zip(starts, ends):
                low = bisect_right(pre, start)
                keep.extend(range(low, bisect_right(pre, end, low)))
        else:
            count = len(ends)
            for row, value in enumerate(pre):
                # the first interval that does not end before the row
                interval = bisect_left(ends, value)
                if interval < count and starts[interval] < value:
                    keep.append(row)
        return fetched if len(keep) == len(pre) else fetched.take(keep)


class PrimaryRecursion:
    """Figure 4 over one list algebra (see the module docstring).

    The counters describe the last :meth:`_evaluate` call, which also adds
    them to the active telemetry under the algebra's names: fetches built
    and their entries (``fetch_count``, ``postings_fetched``), fetches
    served again (``fetch_cache_hits``), fetched entries scoped out
    (``postings_scoped_out``), lists asked for again in the call
    (``memo_hits``) or taken over exact from an earlier call
    (``lists_reused``), lists built by a case of Figure 4 (``list_ops``)
    and renamings merged into match lists (``merge_ops``).
    """

    def __init__(self, algebra) -> None:
        self._algebra = algebra
        self._expanded: "ExpandedQuery | None" = None
        self._fetched: dict[tuple[str, NodeType, bool], object] = {}
        # What does not depend on k, per (selector uid, scope uid) whose
        # match list came out inexact: the selector's scoped candidates
        # and the scope they span for its content (None for a leaf).  An
        # exact match list is never rebuilt, so its selector is not kept.
        self._selectors: dict[tuple[int, int], tuple[list, "_Scope | None"]] = {}
        self._scopes = 0
        # The lists.  Keys name a place in the query, never an object, so
        # they mean the same in every call: (selector uid, scope uid) for
        # what a selector matches, (node uid, scope uid, ancestor label)
        # for a node's list under one label of the enclosing selector.
        # The expanded query is a DAG (a deletion bridge shares the
        # child), so one node is reached under several scopes.
        self._exact_lists: dict[tuple, object] = {}
        self._round_lists: dict[tuple, object] = {}

    def _evaluate(self, expanded: ExpandedQuery):
        root = expanded.root
        if root.reptype not in (RepType.LEAF, RepType.NODE):
            raise EvaluationError("the root of an expanded query must be a selector")
        if expanded is not self._expanded:
            # another query: nothing carries over
            self._expanded = expanded
            self._fetched = {}
            self._selectors = {}
            self._exact_lists = {}
        self._round_lists = {}
        self.fetch_count = self.postings_fetched = self.fetch_cache_hits = 0
        self.postings_scoped_out = self.memo_hits = self.lists_reused = 0
        self.list_ops = self.merge_ops = 0
        result = self._matches(root, None)
        telemetry = _telemetry.current()
        if telemetry is not None:
            for attribute, name in self._algebra.counters:
                telemetry.count(name, getattr(self, attribute))
        return result

    # ------------------------------------------------------------------
    # the four cases of Figure 4
    # ------------------------------------------------------------------

    def _cached(self, key: tuple, build, *args):
        """The list under ``key``: this call's, an exact one of an earlier
        call, or a newly built one."""
        entries = self._round_lists.get(key)
        if entries is not None:
            self.memo_hits += 1
            return entries
        entries = self._exact_lists.get(key)
        if entries is not None:
            self.lists_reused += 1
        else:
            entries = build(*args)
            if self._algebra.exact(entries):
                self._exact_lists[key] = entries
        self._round_lists[key] = entries
        return entries

    def _primary(self, node: ExpandedNode, label: str, ancestors, scope: _Scope):
        """``primary(u, L_A)``: the list of ``node`` under ``ancestors`` —
        the (non-empty) candidates of one ``label`` of the enclosing
        selector; ``scope`` is what all that selector's labels cover
        together."""
        key = (node.uid, scope.uid, label)
        return self._cached(key, self._primary_base, node, label, ancestors, scope)

    def _primary_base(self, node: ExpandedNode, label: str, ancestors, scope: _Scope):
        self.list_ops += 1
        algebra = self._algebra
        reptype = node.reptype
        if reptype == RepType.LEAF:
            return algebra.outerjoin(ancestors, self._matches(node, scope), 0.0, node.delcost)
        if reptype == RepType.NODE:
            return algebra.join(ancestors, self._matches(node, scope), 0.0)
        assert node.left is not None and node.right is not None
        left = self._primary(node.left, label, ancestors, scope)
        right = self._primary(node.right, label, ancestors, scope)
        if reptype == RepType.AND:
            return algebra.intersect(left, right, 0.0)
        if reptype == RepType.OR:
            # the right edge of a deletion choice carries the delete cost
            return algebra.merge_shifted([(left, 0.0), (right, node.edgecost)])
        raise EvaluationError(f"unknown representation type {reptype!r}")

    def _matches(self, node: ExpandedNode, scope: "_Scope | None"):
        """What a selector matches in ``scope``, all its labels merged: a
        leaf's fetched entries, an inner selector's candidates annotated
        with the embedding cost of the child subtree beneath them."""
        key = (node.uid, -1 if scope is None else scope.uid)
        return self._cached(key, self._matches_base, node, scope, key)

    def _matches_base(self, node: ExpandedNode, scope: "_Scope | None", key: tuple[int, int]):
        known = self._selectors.get(key)
        if known is None:
            candidates = self._fetch_candidates(node, scope)
            inner = None
            if node.reptype == RepType.NODE:
                self._scopes += 1
                inner = _Scope(self._scopes, [fetched for _, fetched, _ in candidates])
            known = (candidates, inner)
        candidates, inner = known
        self.merge_ops += len(node.renamings)
        matches = self._algebra.merge_shifted(
            [
                (fetched if inner is None else self._primary(node.child, label, fetched, inner), cost)
                for label, fetched, cost in candidates
            ]
        )
        if not self._algebra.exact(matches):
            self._selectors[key] = known
        return matches

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------

    def _fetch_candidates(self, node: ExpandedNode, scope: "_Scope | None") -> list:
        """The non-empty ``(label, fetched entries in scope, renaming
        cost)`` of a selector's label and renamings."""
        as_leaf = node.reptype == RepType.LEAF
        candidates = []
        for label, cost in [(node.label, 0.0), *node.renamings]:
            fetched = self._fetch(label, node.node_type, as_leaf)
            if scope is not None and fetched:
                size = len(fetched)
                fetched = scope.restrict(fetched)
                self.postings_scoped_out += size - len(fetched)
            if fetched:
                candidates.append((label, fetched, cost))
        return candidates

    def _fetch(self, label: str, node_type: NodeType, as_leaf: bool):
        key = (label, node_type, as_leaf)
        fetched = self._fetched.get(key)
        if fetched is None:
            fetched = self._fetched[key] = self._algebra.fetch(label, node_type, as_leaf)
            self.fetch_count += 1
            self.postings_fetched += len(fetched)
        else:
            self.fetch_cache_hits += 1
        return fetched


class PrimaryEvaluator(PrimaryRecursion):
    """Evaluates expanded queries against the ``I_struct``/``I_text``
    indexes of a data tree: the recursion over data postings, whose
    counters are published as ``direct.*``."""

    def __init__(self, indexes: NodeIndexes) -> None:
        super().__init__(PostingAlgebra(indexes))

    def evaluate(self, expanded: ExpandedQuery) -> EvalColumns:
        """Return the list of root matches of all approximate embeddings;
        entry costs are the embedding costs of the best embedding per
        root (``embcost`` unconditional, ``leafcost`` with the global
        at-least-one-leaf rule enforced)."""
        return self._evaluate(expanded)


def root_cost_pairs(entries: EvalColumns, n: "int | None" = None) -> list[tuple[int, float]]:
    """Convert a root evaluation list into (root, cost) result pairs,
    keeping only roots with a valid embedding and sorting by (cost, pre).

    ``n`` keeps only the ``n`` cheapest pairs via a bounded heap
    selection — O(R log n) instead of the O(R log R) full sort, identical
    output to ``sorted(...)[:n]`` (the (cost, pre) key is a total order,
    so ties cut identically)."""
    pairs = [(pre, leaf) for pre, leaf in zip(entries.pre, entries.leafcost) if leaf != INFINITE]
    if n is not None and n < len(pairs):
        return heapq.nsmallest(n, pairs, key=lambda pair: (pair[1], pair[0]))
    pairs.sort(key=lambda pair: (pair[1], pair[0]))
    return pairs
