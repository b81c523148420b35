"""Algorithm ``primary`` — the recursion of Figure 4, written once.

Direct evaluation (Section 6.5) and the top-k ``primary`` over the schema
(Section 7.2) are one recursion over two list algebras: data postings
(:class:`~repro.engine.ops.PostingAlgebra`, behind
:class:`PrimaryEvaluator`) and schema class segments built on demand
(:class:`~repro.schema.topk_ops.SegmentAlgebra`, behind
:class:`~repro.schema.primary_k.PrimaryKEvaluator`).  An algebra supplies
``fetch``, ``join``, ``outerjoin``, ``intersect``, ``merge_shifted``,
``valid`` and ``counters``, the telemetry name of each counter of the
recursion.

:meth:`PrimaryRecursion._matches` is what a selector matches — label and
renamings merged, child content embedded — and
:meth:`PrimaryRecursion._primary` is the list of a query node under one
candidate list of the enclosing selector.  Four things keep the work
linear in the renamings per selector and proportional to what can reach a
root match:

* fetches are kept per (label, type, leaf/inner) for the query, so the
  identical list object flows into every context that needs it;
* a selector's match list is built once, at its widest scope: a row of it
  depends only on the candidate's own subtree, which lies wholly inside
  any scope that holds the candidate, and the scopes that reach one
  selector are nested (each is built inside the one it was reached
  from).  A deletion bridge reaches its child in the enclosing scope, so
  an ``or`` evaluates its bridge first, and every narrower scope is
  served the list already built — the paper's "dynamic programming to
  avoid the duplicate evaluation of query subtrees";
* *scoping*: a selector's fetched list is cut down to the entries that
  lie below a candidate of the enclosing selector before any list is
  built from it — an entry below no candidate is dropped by the enclosing
  ``join``/``outerjoin`` whatever it costs, so results are unchanged.  A
  scope reads a short posting through a mask of its preorder intervals
  and a long one by bisecting it per interval;
* *the trunk cut*: a *trunk* selector is a ``node`` selector whose
  subtree holds every query leaf (the root, and on a path query every
  selector).  A valid embedding puts a real leaf match below every trunk
  candidate it uses, so a trunk selector's candidates are cut, before
  their scope is built, to those with a *witness* in their subtree — a
  fetched entry of some query leaf, for its label or a renaming — and its
  match list keeps one track: the rows with a valid embedding, ``embcost``
  set to ``leafcost`` (over schema segments, the valid runs).  No ``and``
  has a trunk operand (each operand holds a leaf), so nothing reads a
  trunk row's unconditional cost, and the root list is exactly the valid
  roots.  A candidate is witnessed when the first witness after it,
  found by bisecting into the query's sorted witnesses, lies in its
  subtree.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import le, sub

from ..approxql.expanded import ExpandedNode, ExpandedQuery, RepType
from ..errors import EvaluationError
from ..telemetry import collector as _telemetry
from ..xmltree.indexes import NodeIndexes
from ..xmltree.model import NodeType
from .columns import EvalColumns
from .entries import INFINITE
from .ops import PostingAlgebra

#: a posting at most this many times longer than a scope's interval list
#: is restricted through the scope's mask, a longer one per interval
_MASK_RATIO = 8


class _Scope:
    """The nodes below any candidate of one enclosing selector, as the
    sorted, disjoint ``(start, end]`` preorder intervals of the outermost
    candidates (subtree intervals nest or are disjoint; a zero-width one —
    a text node, a leaf class — holds nothing and is left out).  ``chain``
    is the uids of this scope and of every scope it was built inside,
    innermost first."""

    __slots__ = ("uid", "chain", "starts", "ends", "_mask")

    def __init__(self, uid: int, candidates: list, enclosing: "_Scope | None") -> None:
        self.uid = uid
        self.chain = (uid,) if enclosing is None else (uid, *enclosing.chain)
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._mask: "bytearray | None" = None
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
        class) that lie in scope.  A posting not much longer than the
        interval list is read through the scope's mask; a longer one is
        bisected per interval, so it costs what the intervals cost, not
        its length."""
        pre, starts, ends = fetched.pre, self.starts, self.ends
        if not ends:
            keep: "list[int]" = []
        elif len(pre) > _MASK_RATIO * len(ends):
            find = partial(bisect_right, pre)
            keep = list(chain.from_iterable(map(range, map(find, starts), map(find, ends))))
        else:
            # the mask spans the intervals only: rows outside that span are
            # out, and a row inside reads the byte of its offset in it
            first = starts[0]
            low, high = bisect_right(pre, first), bisect_right(pre, ends[-1])
            offsets = map(sub, islice(pre, low, high), repeat(first + 1))
            keep = list(compress(range(low, high), map(self._marks().__getitem__, offsets)))
        return fetched if len(keep) == len(pre) else fetched.take(keep)

    def _marks(self) -> bytearray:
        """One byte per preorder number from the first interval's start
        (exclusive) to the last one's end, set inside an interval; filled
        on first use by slice assignment."""
        mask = self._mask
        if mask is None:
            first = self.starts[0]
            mask = self._mask = bytearray(self.ends[-1] - first)
            for start, end in zip(self.starts, self.ends):
                mask[start - first : end - first] = b"\x01" * (end - start)
        return mask


def _trunk(expanded: ExpandedQuery) -> frozenset:
    """The uids of the ``node`` selectors whose subtree holds every query
    leaf."""
    below: dict[int, frozenset] = {}
    every = _leaves_below(expanded.root, below)
    return frozenset(
        node.uid
        for node in expanded.iter_unique_nodes()
        if node.reptype == RepType.NODE and below[node.uid] == every
    )


def _leaves_below(node: ExpandedNode, below: dict) -> frozenset:
    """The uids of the query leaves in ``node``'s subtree, memoized in
    ``below`` by node uid (the expanded query is a DAG).  A module-level
    function: a closure calling itself would be a reference cycle, left
    for the cyclic collector after every query."""
    found = below.get(node.uid)
    if found is None:
        if node.reptype == RepType.LEAF:
            found = frozenset((node.uid,))
        elif node.reptype == RepType.NODE:
            found = _leaves_below(node.child, below)
        else:
            found = _leaves_below(node.left, below) | _leaves_below(node.right, below)
        below[node.uid] = found
    return found


class PrimaryRecursion:
    """Figure 4 over one list algebra (see the module docstring).

    The counters describe the last :meth:`_evaluate` call, which also adds
    them to the active telemetry under the algebra's names: fetches built
    and their entries (``fetch_count``, ``postings_fetched``), fetches
    served again (``fetch_cache_hits``), fetched entries scoped out
    (``postings_scoped_out``), candidates without a witness of the root
    (``roots_unwitnessed``) and of the trunk selectors below it
    (``trunk_unwitnessed``), lists served again in the call
    (``memo_hits``), lists built by a case of Figure 4 (``list_ops``) and
    renamings merged into match lists (``merge_ops``).
    """

    def __init__(self, algebra) -> None:
        self._algebra = algebra
        self._expanded: "ExpandedQuery | None" = None
        self._fetched: dict[tuple[str, NodeType, bool], object] = {}
        self._trunk: frozenset = frozenset()
        # the sorted ``pre`` of every witness, set up at the first trunk
        # cut of a call
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
        self._trunk = _trunk(expanded)
        self._witnesses = None
        self._lists = {}
        self.fetch_count = self.postings_fetched = self.fetch_cache_hits = 0
        self.postings_scoped_out = self.roots_unwitnessed = self.trunk_unwitnessed = 0
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

    def _primary(self, node: ExpandedNode, label: str, ancestors, scope: _Scope):
        """``primary(u, L_A)``: the list of ``node`` under ``ancestors`` —
        the (non-empty) candidates of one ``label`` of the enclosing
        selector; ``scope`` is what all that selector's labels cover
        together."""
        key = (node.uid, scope.uid, label)
        entries = self._lists.get(key)
        if entries is not None:
            self.memo_hits += 1
            return entries
        entries = self._lists[key] = self._primary_base(node, label, ancestors, scope)
        return entries

    def _primary_base(self, node: ExpandedNode, label: str, ancestors, scope: _Scope):
        self.list_ops += 1
        algebra = self._algebra
        reptype = node.reptype
        if reptype == RepType.LEAF:
            return algebra.outerjoin(ancestors, self._matches(node, scope), 0.0, node.delcost)
        if reptype == RepType.NODE:
            return algebra.join(ancestors, self._matches(node, scope), 0.0)
        assert node.left is not None and node.right is not None
        # the right edge of a deletion choice bridges to the child in this
        # scope, the left edge reaches it in a narrower one: widest first
        right = self._primary(node.right, label, ancestors, scope)
        left = self._primary(node.left, label, ancestors, scope)
        if reptype == RepType.AND:
            return algebra.intersect(left, right, 0.0)
        if reptype == RepType.OR:
            # the right edge of a deletion choice carries the delete cost
            return algebra.merge_shifted([(left, 0.0), (right, node.edgecost)])
        raise EvaluationError(f"unknown representation type {reptype!r}")

    def _matches(self, node: ExpandedNode, scope: "_Scope | None"):
        """What a selector matches, all its labels merged: a leaf's fetched
        entries, an inner selector's candidates annotated with the
        embedding cost of the child subtree beneath them.  The list built
        in ``scope`` or in any scope enclosing it serves (its rows outside
        ``scope`` lie below no candidate that joins it)."""
        lists = self._lists
        scopes = (-1,) if scope is None else scope.chain
        for uid in scopes:
            entries = lists.get((node.uid, uid))
            if entries is not None:
                self.memo_hits += 1
                return entries
        entries = lists[(node.uid, scopes[0])] = self._matches_base(node, scope)
        return entries

    def _matches_base(self, node: ExpandedNode, scope: "_Scope | None"):
        candidates = self._fetch_candidates(node, scope)
        inner = None
        if node.reptype == RepType.NODE:
            self._scopes += 1
            inner = _Scope(self._scopes, [fetched for _, fetched, _ in candidates], scope)
        self.merge_ops += len(node.renamings)
        matches = self._algebra.merge_shifted(
            [
                (fetched if inner is None else self._primary(node.child, label, fetched, inner), cost)
                for label, fetched, cost in candidates
            ]
        )
        return self._algebra.valid(matches) if node.uid in self._trunk else matches

    # ------------------------------------------------------------------
    # fetching and the trunk cut
    # ------------------------------------------------------------------

    def _fetch_candidates(self, node: ExpandedNode, scope: "_Scope | None") -> list:
        """The non-empty ``(label, fetched entries in scope, renaming
        cost)`` of a selector's label and renamings; a trunk selector's
        are those with a witness below them."""
        as_leaf = node.reptype == RepType.LEAF
        trunk = node.uid in self._trunk
        candidates = []
        for label, cost in [(node.label, 0.0), *node.renamings]:
            fetched = self._fetch(label, node.node_type, as_leaf)
            if fetched and scope is not None:
                size = len(fetched)
                fetched = scope.restrict(fetched)
                self.postings_scoped_out += size - len(fetched)
            if fetched and trunk:
                size = len(fetched)
                fetched = self._witnessed(fetched)
                if scope is None:
                    self.roots_unwitnessed += size - len(fetched)
                else:
                    self.trunk_unwitnessed += size - len(fetched)
            if fetched:
                candidates.append((label, fetched, cost))
        return candidates

    def _witnessed(self, fetched):
        """The entries of a trunk selector's fetched list that have a
        witness in their subtree ``(pre, bound]``."""
        witnesses = self._witnesses
        if witnesses is None:
            # past the last witness, a sentinel that lies in no subtree
            witnesses = self._witnesses = [
                *sorted(
                    chain.from_iterable(
                        self._fetch(label, node_type, True).pre
                        for node_type, label in self._expanded.leaf_labels()
                    )
                ),
                INFINITE,
            ]
        # the first witness after each candidate, inside its subtree?
        following = map(witnesses.__getitem__, map(partial(bisect_right, witnesses), fetched.pre))
        keep = list(compress(count(), map(le, following, fetched.bound)))
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
        """Return the list of root matches with a valid embedding (the
        global at-least-one-leaf rule enforced): one entry per such root,
        on one track — ``embcost`` equals ``leafcost``, the cost of the
        root's best valid embedding (a ``node`` root is a trunk selector,
        see the module docstring; a leaf root's matches are all valid)."""
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
