"""Algorithm ``primary`` — the recursion of Figure 4, written once.

Direct evaluation (Section 6.5) and the top-k ``primary`` over the schema
(Section 7.2) are one recursion over two list algebras: data postings
(:class:`~repro.engine.ops.PostingAlgebra`, behind
:class:`PrimaryEvaluator`) and schema class segments built on demand
(:class:`~repro.schema.topk_ops.SegmentAlgebra`, behind
:class:`~repro.schema.primary_k.PrimaryKEvaluator`).  An algebra supplies
``fetch``, ``join``, ``outerjoin``, ``intersect`` and ``merge_shifted``
plus ``counters``, the telemetry name of each counter of the recursion.

:meth:`PrimaryRecursion._matches` is what a selector matches — label and
renamings merged, child content embedded — and
:meth:`PrimaryRecursion._primary` is the list of a query node under one
candidate list of the enclosing selector.  Four things keep the work
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
  ``join``/``outerjoin`` whatever it costs, so results are unchanged;
* *witnessing*: the query root's candidates are cut, before their scope
  is built, to those with a *witness* in their subtree — a fetched entry
  of some query leaf, for its label or a renaming.  A root without one
  has no real leaf match below it (infinite ``leafcost`` over data
  postings, no valid skeleton over schema segments), so it is never a
  result, and every other root's entries are unchanged on both cost
  tracks.
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
    (``postings_scoped_out``), root candidates without a witness
    (``roots_unwitnessed``), lists asked for again in the call
    (``memo_hits``), lists built by a case of Figure 4 (``list_ops``) and
    renamings merged into match lists (``merge_ops``).
    """

    def __init__(self, algebra) -> None:
        self._algebra = algebra
        self._expanded: "ExpandedQuery | None" = None
        self._fetched: dict[tuple[str, NodeType, bool], object] = {}
        # the sorted ``pre`` of every query leaf's fetched entries, built
        # from ``_fetched`` when the root's candidates are first cut
        self._witnesses: "list[int] | None" = None
        self._scopes = 0
        # The lists of the call: (selector uid, scope uid) for what a
        # selector matches, (node uid, scope uid, ancestor label) for a
        # node's list under one label of the enclosing selector.  The
        # expanded query is a DAG (a deletion bridge shares the child),
        # so one node is reached under several scopes.
        self._lists: dict[tuple, object] = {}

    def _evaluate(self, expanded: ExpandedQuery):
        root = expanded.root
        if root.reptype not in (RepType.LEAF, RepType.NODE):
            raise EvaluationError("the root of an expanded query must be a selector")
        self._expanded = expanded
        self._fetched = {}
        self._witnesses = None
        self._lists = {}
        self.fetch_count = self.postings_fetched = self.fetch_cache_hits = 0
        self.postings_scoped_out = self.roots_unwitnessed = 0
        self.memo_hits = 0
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
        """The list under ``key``: this call's, or a newly built one."""
        entries = self._lists.get(key)
        if entries is not None:
            self.memo_hits += 1
            return entries
        entries = self._lists[key] = build(*args)
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
        return self._cached(key, self._matches_base, node, scope)

    def _matches_base(self, node: ExpandedNode, scope: "_Scope | None"):
        candidates = self._fetch_candidates(node, scope)
        inner = None
        if node.reptype == RepType.NODE:
            self._scopes += 1
            inner = _Scope(self._scopes, [fetched for _, fetched, _ in candidates])
        self.merge_ops += len(node.renamings)
        return self._algebra.merge_shifted(
            [
                (fetched if inner is None else self._primary(node.child, label, fetched, inner), cost)
                for label, fetched, cost in candidates
            ]
        )

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------

    def _fetch_candidates(self, node: ExpandedNode, scope: "_Scope | None") -> list:
        """The non-empty ``(label, fetched entries in scope, renaming
        cost)`` of a selector's label and renamings; an inner query
        root's (``scope`` None) are those with a witness below them."""
        as_leaf = node.reptype == RepType.LEAF
        candidates = []
        for label, cost in [(node.label, 0.0), *node.renamings]:
            fetched = self._fetch(label, node.node_type, as_leaf)
            if fetched:
                size = len(fetched)
                if scope is not None:
                    fetched = scope.restrict(fetched)
                    self.postings_scoped_out += size - len(fetched)
                elif not as_leaf:
                    fetched = self._witnessed(fetched)
                    self.roots_unwitnessed += size - len(fetched)
            if fetched:
                candidates.append((label, fetched, cost))
        return candidates

    def _witnessed(self, fetched):
        """The entries of a fetched list that have a witness in their
        subtree ``(pre, bound]``, each located by ``bisect``."""
        witnesses = self._witnesses
        if witnesses is None:
            witnesses = self._witnesses = sorted(
                chain.from_iterable(
                    self._fetch(label, node.node_type, True).pre
                    for node in self._expanded.iter_unique_nodes()
                    if node.reptype == RepType.LEAF
                    for label in [node.label, *(target for target, _ in node.renamings)]
                )
            )
        count = len(witnesses)
        keep = []
        for row, (pre, bound) in enumerate(zip(fetched.pre, fetched.bound)):
            first = bisect_right(witnesses, pre)
            if first < count and witnesses[first] <= bound:
                keep.append(row)
        return fetched if len(keep) == len(fetched) else fetched.take(keep)

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


def valid_pairs(entries: EvalColumns) -> list[tuple[int, float]]:
    """The (root, cost) pairs of a root evaluation list's roots with a
    valid embedding, in list order."""
    return [(pre, leaf) for pre, leaf in zip(entries.pre, entries.leafcost) if leaf != INFINITE]


def best_pairs(
    pairs: list[tuple[int, float]], n: "int | None" = None
) -> list[tuple[int, float]]:
    """``pairs`` sorted by (cost, root), cut to the ``n`` cheapest.

    The cut is a bounded heap selection — O(R log n) instead of the
    O(R log R) full sort, identical output to ``sorted(...)[:n]`` (the
    (cost, root) key is a total order, so ties cut identically)."""
    if n is not None and n < len(pairs):
        return heapq.nsmallest(n, pairs, key=lambda pair: (pair[1], pair[0]))
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def root_cost_pairs(entries: EvalColumns, n: "int | None" = None) -> list[tuple[int, float]]:
    """Convert a root evaluation list into (root, cost) result pairs,
    keeping only roots with a valid embedding, sorted by (cost, root) and
    cut to the ``n`` cheapest."""
    return best_pairs(valid_pairs(entries), n)
