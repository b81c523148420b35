"""Segmented top-k list operations (Section 7.2).

A :class:`TopKList` is sorted by schema preorder; the entries sharing one
preorder number form a *segment*.  A segment is two *runs* — the skeletons
that contain a real query-leaf match ("valid"), then the skeletons whose
leaves were all deleted ("invalid") — and each run is ordered by
(embedding cost, skeleton signature) and holds at most *k* distinct
skeletons.  Invalid partial skeletons must be carried — an ``intersect``
with a valid sibling turns them into valid ones — but they may never crowd
a valid skeleton out of its segment, or the best-n guarantee would
silently break; hence one quota per validity class.

With per-class quotas the standard top-k DP argument goes through: the
j-th cheapest valid output of any operation only combines inputs ranked
at most k within their own validity class, so every globally top-k valid
second-level query survives to the root.

Determinism: every truncation uses the same total order (cost, then
skeleton signature), so a run computed for *k* is a prefix of the run
computed for *k' > k* — the property the incremental algorithm of
Section 7.4 relies on.

Work is bounded by the output, not the input: every operator consumes
already-sorted runs in one pass (no concatenate-and-re-sort), a segment
present in one input only is copied as a slice, and ``intersect_k`` walks
the cost-ordered pair frontier of each output class only until that
class's quota is full.

Exactness: a list is *exact* when nothing was discarded while building it
or any of its inputs — it then is the whole (untruncated) list, equal for
every larger *k*.  The driver reuses exact lists across its growing-*k*
rounds and detects exhaustion from the root list's bit.

:class:`SegmentAlgebra` hands these operators, at one round's *k*, to the
Figure 4 recursion of :mod:`repro.engine.primary`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

from ..engine.entries import INFINITE
from ..telemetry.collector import count as _telemetry_count
from ..xmltree.model import NodeType
from .entries import SchemaEntry, entry_from_schema_posting
from .indexes import SchemaNodeIndexes


class _ClassColumns:
    """One validity class of a list as parallel columns, sorted by ``pre``.

    Built once per list and shared by every ``join_k``/``outerjoin_k``
    that reads it (a selector's matches are joined to each of its
    enclosing selector's labels): ``pres`` make the ancestor-interval
    bisect land directly on class members, ``scores`` precompute
    ``pathcost + embcost`` (the ancestor-independent part of the candidate
    cost), and ``signatures`` the deterministic tie-break — so the
    per-ancestor inner loop selects candidates without touching a single
    entry attribute."""

    __slots__ = ("entries", "pres", "scores", "signatures")

    def __init__(self, entries: list[SchemaEntry]) -> None:
        self.entries = entries
        self.pres = [entry.pre for entry in entries]
        self.scores = [entry.pathcost + entry.embcost for entry in entries]
        self.signatures = [entry.signature for entry in entries]


class TopKList(list):
    """A segmented top-k list: the entries in (pre, validity, cost,
    signature) order, plus what the operators derive from them.

    ``segments`` holds one ``(pre, start, middle, end)`` per segment —
    the valid run is ``self[start:middle]``, the invalid run
    ``self[middle:end]``.  ``exact`` is the bit described in the module
    docstring.  Lists are immutable once built: the column and segment
    views are cached on first use, and the evaluator shares lists freely.
    """

    __slots__ = ("segments", "exact", "_width", "_classes", "_by_pre", "_pre")

    def __init__(self, entries=(), segments=None, exact: bool = True) -> None:
        super().__init__(entries)
        if segments is None:
            segments = _scan_segments(self)
        self.segments: list[tuple[int, int, int, int]] = segments
        self.exact = exact
        self._width = -1
        self._classes = None
        self._by_pre = None
        self._pre = None

    @classmethod
    def of(cls, entries) -> "TopKList":
        """``entries`` as a :class:`TopKList`: itself when it already is
        one, else an ordered copy holding the cheapest copy of every
        skeleton (a plain list is taken to be complete)."""
        if type(entries) is cls:
            return entries
        ordered = []
        seen = set()
        for entry in sorted(
            entries,
            key=lambda entry: (entry.pre, not entry.has_leaf, entry.embcost, entry.signature),
        ):
            key = (entry.has_leaf, entry.signature)
            if key not in seen:
                seen.add(key)
                ordered.append(entry)
        return cls(ordered)

    def fits(self, k: int) -> bool:
        """True when no run is longer than ``k``."""
        if self._width < 0:
            self._width = max(
                (max(middle - start, end - middle) for _, start, middle, end in self.segments),
                default=0,
            )
        return self._width <= k

    def valid_count(self) -> int:
        """Number of valid skeletons in the list."""
        return sum(middle - start for _, start, middle, _ in self.segments)

    def classes(self) -> tuple[_ClassColumns, _ClassColumns]:
        """The (valid, invalid) column views."""
        if self._classes is None:
            self._classes = (
                _ClassColumns([entry for entry in self if entry.has_leaf]),
                _ClassColumns([entry for entry in self if not entry.has_leaf]),
            )
        return self._classes

    def by_pre(self) -> dict[int, tuple[int, int, int, int]]:
        """Segment lookup by preorder number."""
        if self._by_pre is None:
            self._by_pre = {segment[0]: segment for segment in self.segments}
        return self._by_pre

    # A fetched list holds one entry per class, like an ``EvalColumns``
    # one row per node: these views let one scope restrict either.

    @property
    def pre(self) -> list[int]:
        """The entries' preorder numbers, in list order."""
        if self._pre is None:
            self._pre = [entry.pre for entry in self]
        return self._pre

    @property
    def bound(self) -> list[int]:
        """The entries' subtree bounds, in list order."""
        return [entry.bound for entry in self]

    def take(self, rows: list[int]) -> "TopKList":
        """A new list holding the given entries, in the given order."""
        return TopKList([self[row] for row in rows], exact=self.exact)


def _scan_segments(entries: list[SchemaEntry]) -> list[tuple[int, int, int, int]]:
    """The segment table of an already ordered entry list."""
    segments = []
    total = len(entries)
    start = 0
    while start < total:
        pre = entries[start].pre
        middle = start
        while middle < total and entries[middle].pre == pre and entries[middle].has_leaf:
            middle += 1
        end = middle
        while end < total and entries[end].pre == pre:
            end += 1
        segments.append((pre, start, middle, end))
        start = end
    return segments


def fetch_k(
    indexes: SchemaNodeIndexes, label: str, node_type: NodeType, as_leaf_match: bool
) -> TopKList:
    """Initialize a list from a schema-index posting; entries carry the
    fetched label (so renamed matches build the right ``I_sec`` keys).

    The built list is served through the indexes' derived-value cache
    (:meth:`SchemaNodeIndexes.fetch_derived`), so repeat queries — and
    the incremental driver's growing-k rounds — skip the posting-to-entry
    construction; the returned list is a shared object and must not be
    mutated."""
    is_text = node_type == NodeType.TEXT
    return indexes.fetch_derived(
        label,
        node_type,
        as_leaf_match,
        lambda posting: TopKList(
            [
                entry_from_schema_posting(item, label, is_text, as_leaf_match)
                for item in posting
            ]
        ),
    )


def merge_shifted_k(parts: "list[tuple[TopKList, float]]", k: int) -> TopKList:
    """One list from several ``(list, added cost)`` parts: matching
    segments are merged run by run, repeated skeletons keep their cheapest
    copy, and every run is cut to k.  This is the one merge behind a
    selector's renamings (:func:`merge_k`, all labels at once) and ``or``
    (:func:`union_k`; the cost of a deletion edge is its part's shift).

    A segment that occurs in a single part — always, for struct classes:
    one class, one label — is copied as a slice; entries are only
    re-created where their cost changes."""
    parts = [(TopKList.of(entries), shift) for entries, shift in parts]
    exact = all(entries.exact for entries, _ in parts)
    parts = [part for part in parts if part[0]]
    if not parts:
        return TopKList((), [], exact)
    if len(parts) == 1:
        entries, shift = parts[0]
        if shift == 0 and entries.exact == exact and entries.fits(k):
            return entries

    sources: dict[int, list] = {}
    for entries, shift in parts:
        for segment in entries.segments:
            sources.setdefault(segment[0], []).append((entries, shift, segment))
    result: list[SchemaEntry] = []
    segments = []
    for pre in sorted(sources):
        source = sources[pre]
        offset = len(result)
        valid, cut_valid = _merged_run(
            [(entries[start:middle], shift) for entries, shift, (_, start, middle, _) in source],
            k,
        )
        invalid, cut_invalid = _merged_run(
            [(entries[middle:end], shift) for entries, shift, (_, _, middle, end) in source],
            k,
        )
        if cut_valid or cut_invalid:
            exact = False
        result += valid
        result += invalid
        segments.append((pre, offset, offset + len(valid), len(result)))
    return TopKList(result, segments, exact)


def merge_k(left: TopKList, right: TopKList, rename_cost: float, k: int) -> TopKList:
    """Merge two lists (distinct labels); right entries pay the renaming
    cost.  Text classes can host both labels, so segments may interleave
    and must be re-truncated."""
    return merge_shifted_k([(left, 0.0), (right, rename_cost)], k)


def union_k(left: TopKList, right: TopKList, edge_cost: float, k: int) -> TopKList:
    """Disjunction: merge matching segments, keep the best k skeletons
    per validity class."""
    return merge_shifted_k([(left, edge_cost), (right, edge_cost)], k)


def add_edge_k(entries: TopKList, edge_cost: float) -> TopKList:
    """The list with the edge cost added to every entry."""
    if edge_cost == 0:
        return entries
    entries = TopKList.of(entries)
    return TopKList(
        [_shifted(entry, edge_cost) for entry in entries], entries.segments, entries.exact
    )


def join_k(
    ancestors: TopKList, descendants: TopKList, edge_cost: float, k: int
) -> TopKList:
    """For each ancestor, keep the k cheapest descendant skeletons (per
    validity class); each yields one copy of the ancestor pointing at
    that descendant."""
    return _join(ancestors, descendants, edge_cost, INFINITE, k)


def outerjoin_k(
    ancestors: TopKList,
    descendants: TopKList,
    edge_cost: float,
    delete_cost: float,
    k: int,
) -> TopKList:
    """``join_k`` for query leaves: every ancestor additionally gets a
    deletion candidate (empty pointer set, no leaf match) when the leaf's
    delete cost is finite."""
    return _join(ancestors, descendants, edge_cost, delete_cost, k)


def intersect_k(left: TopKList, right: TopKList, edge_cost: float, k: int) -> TopKList:
    """Conjunction: for segments representing the same schema node, the
    cheapest pair combinations (k distinct skeletons per output validity
    class); pointer sets are united.

    A pair is valid when either side is, so the valid run is drawn from
    three run products (valid x valid, valid x invalid, invalid x valid)
    and the invalid run from one; each output class walks its own
    cost-ordered pair frontier and stops at its own quota."""
    left = TopKList.of(left)
    right = TopKList.of(right)
    exact = left.exact and right.exact
    result: list[SchemaEntry] = []
    segments = []
    pairs = 0
    right_segments = right.by_pre()
    for pre, start, middle, end in left.segments:
        other = right_segments.get(pre)
        if other is None:
            continue
        _, other_start, other_middle, other_end = other
        left_valid = left[start:middle]
        left_invalid = left[middle:end]
        right_valid = right[other_start:other_middle]
        right_invalid = right[other_middle:other_end]
        offset = len(result)
        walked, cut = _cheapest_pairs(
            result,
            ((left_valid, right_valid), (left_valid, right_invalid), (left_invalid, right_valid)),
            edge_cost,
            True,
            k,
        )
        pairs += walked
        if cut:
            exact = False
        boundary = len(result)
        walked, cut = _cheapest_pairs(
            result, ((left_invalid, right_invalid),), edge_cost, False, k
        )
        pairs += walked
        if cut:
            exact = False
        segments.append((pre, offset, boundary, len(result)))
    _telemetry_count("schema.intersect_pairs", pairs)
    return TopKList(result, segments, exact)


class SegmentAlgebra:
    """The top-k operators at the round's ``k`` as the list algebra of the
    Figure 4 recursion (:mod:`repro.engine.primary`) over schema class
    segments: a list is exact when its bit says so, and the counters are
    published as ``schema.*``."""

    __slots__ = ("indexes", "k")

    counters = (
        ("postings_scoped_out", "schema.candidates_scoped_out"),
        ("roots_unwitnessed", "schema.roots_unwitnessed"),
        ("lists_reused", "schema.lists_reused"),
        ("list_ops", "schema.topk_list_ops"),
    )

    def __init__(self, indexes: SchemaNodeIndexes, k: int) -> None:
        self.indexes = indexes
        self.k = k

    def fetch(self, label: str, node_type: NodeType, as_leaf: bool) -> TopKList:
        """:func:`fetch_k` over this algebra's indexes."""
        return fetch_k(self.indexes, label, node_type, as_leaf)

    def join(self, ancestors: TopKList, descendants: TopKList, edge_cost: float) -> TopKList:
        """:func:`join_k` at the round's k."""
        return join_k(ancestors, descendants, edge_cost, self.k)

    def outerjoin(
        self, ancestors: TopKList, descendants: TopKList, edge_cost: float, delete_cost: float
    ) -> TopKList:
        """:func:`outerjoin_k` at the round's k."""
        return outerjoin_k(ancestors, descendants, edge_cost, delete_cost, self.k)

    def intersect(self, left: TopKList, right: TopKList, edge_cost: float) -> TopKList:
        """:func:`intersect_k` at the round's k."""
        return intersect_k(left, right, edge_cost, self.k)

    def merge_shifted(self, parts: "list[tuple[TopKList, float]]") -> TopKList:
        """:func:`merge_shifted_k` at the round's k."""
        return merge_shifted_k(parts, self.k)

    @staticmethod
    def exact(entries: TopKList) -> bool:
        return entries.exact


def sort_roots(k: "int | None", entries: TopKList) -> list[SchemaEntry]:
    """The top-level ``sort``: globally order valid second-level queries
    by (cost, schema node, skeleton) and keep the best k."""
    valid = [entry for entry in entries if entry.has_leaf]
    valid.sort(key=lambda entry: (entry.embcost, entry.pre, entry.signature))
    if k is None:
        return valid
    return valid[:k]


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------


def _shifted(entry: SchemaEntry, shift: float) -> SchemaEntry:
    return entry.with_cost(entry.embcost + shift)


def _merged_run(
    pieces: "list[tuple[list[SchemaEntry], float]]", k: int
) -> tuple[list[SchemaEntry], bool]:
    """One run of a merged segment from the ``(run, added cost)`` of every
    part that has the segment, and whether a skeleton was discarded."""
    if len(pieces) == 1:
        run, shift = pieces[0]
        cut = len(run) > k
        if cut:
            run = run[:k]
        if shift != 0:
            run = [_shifted(entry, shift) for entry in run]
        return run, cut
    entries: list[SchemaEntry] = []
    for run, shift in pieces:
        entries += run if shift == 0 else [_shifted(entry, shift) for entry in run]
    return _finish_run(entries, k)


def _finish_run(entries: list[SchemaEntry], k: int) -> tuple[list[SchemaEntry], bool]:
    """One run out of unordered same-class entries of a segment: sorted
    by (cost, signature), the first copy of every skeleton, the best k.
    Returns the run and whether a skeleton was discarded."""
    if len(entries) < 2:
        return entries, False
    entries.sort(key=lambda entry: (entry.embcost, entry.signature))
    run = []
    seen = set()
    for entry in entries:
        signature = entry.signature
        if signature in seen:
            continue
        if len(run) >= k:
            return run, True
        seen.add(signature)
        run.append(entry)
    return run, False


def _join(
    ancestors: TopKList,
    descendants: TopKList,
    edge_cost: float,
    delete_cost: float,
    k: int,
) -> TopKList:
    """The shared core of join_k/outerjoin_k (``delete_cost`` is infinite
    for the plain join)."""
    ancestors = TopKList.of(ancestors)
    descendants = TopKList.of(descendants)
    exact = ancestors.exact and descendants.exact
    classes = descendants.classes()
    result: list[SchemaEntry] = []
    segments = []
    for pre, start, _, end in ancestors.segments:
        offset = boundary = len(result)
        segment = ancestors[start:end]
        for has_leaf, columns, delete in (
            (True, classes[0], INFINITE),
            (False, classes[1], delete_cost),
        ):
            run: list[SchemaEntry] = []
            for ancestor in segment:
                if _extend_from_columns(run, ancestor, columns, has_leaf, edge_cost, delete, k):
                    exact = False
            if end - start > 1:
                # several ancestor entries for one schema node (hand-built
                # inputs only): their copies share the segment's quotas
                run, cut = _finish_run(run, k)
                if cut:
                    exact = False
            result += run
            if has_leaf:
                boundary = len(result)
        if len(result) > offset:
            segments.append((pre, offset, boundary, len(result)))
    return TopKList(result, segments, exact)


def _extend_from_columns(
    result: list[SchemaEntry],
    ancestor: SchemaEntry,
    columns: _ClassColumns,
    has_leaf: bool,
    edge_cost: float,
    delete_cost: float,
    k: int,
) -> bool:
    """Append, in run order, copies of ``ancestor`` for the k cheapest
    descendants in ``columns`` — and, when ``delete_cost`` is finite, the
    deletion candidate in its place among them.  Returns whether a
    candidate was discarded."""
    ancestor_pre = ancestor.pre
    ancestor_bound = ancestor.bound
    pathcost = ancestor.pathcost
    inscost = ancestor.inscost
    label = ancestor.label
    pres = columns.pres
    low = bisect_right(pres, ancestor_pre)
    high = bisect_right(pres, ancestor_bound, low)
    discarded = False
    picks = []
    if low < high:
        base = pathcost + inscost
        scores = columns.scores
        signatures = columns.signatures
        picks = [
            (scores[i] - base + edge_cost, signatures[i], i) for i in range(low, high)
        ]
        if high - low > k:
            discarded = True
            picks = heapq.nsmallest(k, picks)
        elif high - low > 1:
            picks.sort()
    entries = columns.entries
    run = [
        SchemaEntry(
            ancestor_pre,
            ancestor_bound,
            pathcost,
            inscost,
            cost,
            label,
            (entries[i],),
            has_leaf,
            (ancestor_pre, label, (signature,)),
        )
        for cost, signature, i in picks
    ]
    if delete_cost != INFINITE:
        # the deletion candidate's skeleton (no pointers) orders before
        # every equal-cost candidate that points somewhere
        cost = delete_cost + edge_cost
        run.insert(bisect_left(picks, (cost,)), _deletion_candidate(ancestor, cost))
        if len(run) > k:
            discarded = True
            run.pop()
    result += run
    return discarded


def _deletion_candidate(ancestor: SchemaEntry, cost: float) -> SchemaEntry:
    return SchemaEntry(
        ancestor.pre,
        ancestor.bound,
        ancestor.pathcost,
        ancestor.inscost,
        cost,
        ancestor.label,
        (),
        False,
        (ancestor.pre, ancestor.label, ()),
    )


def _cheapest_pairs(
    result: list[SchemaEntry],
    products: "tuple[tuple[list[SchemaEntry], list[SchemaEntry]], ...]",
    edge_cost: float,
    has_leaf: bool,
    k: int,
) -> tuple[int, bool]:
    """Append to ``result`` the run of the k cheapest distinct skeletons
    among the pairs of ``products`` (each a pair of cost-ordered runs of
    one segment).  Returns (pairs walked, whether a pair was left out).

    The classic sorted-matrix frontier walk, one heap for all products:
    a cell's right neighbour is pushed when the cell is popped, its lower
    neighbour only from the first column — every cell is reached once, in
    ascending cost.  The walk ends when the quota is full *and* the next
    pair is dearer than the last one taken, so skeletons of equal cost are
    ranked by signature, not by heap order."""
    heap = [
        (left[0].embcost + right[0].embcost, number, 0, 0)
        for number, (left, right) in enumerate(products)
        if left and right
    ]
    if not heap:
        return 0, False
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    found = []
    seen = set()
    limit = None
    walked = 0
    while heap:
        total, number, i, j = heap[0]
        cost = total + edge_cost
        if limit is not None and cost > limit:
            break
        pop(heap)
        walked += 1
        left, right = products[number]
        left_entry = left[i]
        right_entry = right[j]
        if j + 1 < len(right):
            push(heap, (left_entry.embcost + right[j + 1].embcost, number, i, j + 1))
        if j == 0 and i + 1 < len(left):
            push(heap, (left[i + 1].embcost + right_entry.embcost, number, i + 1, 0))
        pointers, children = _union_pointers(left_entry, right_entry)
        signature = (left_entry.pre, left_entry.label, children)
        if signature in seen:
            # the same skeleton at equal or higher cost: no loss
            continue
        seen.add(signature)
        found.append((cost, signature, left_entry, pointers))
        if limit is None and len(seen) >= k:
            limit = cost
    cut = bool(heap)
    # pairs arrive by cost; equal-cost skeletons are ranked by signature
    # (signatures are distinct, so the comparison never goes past them)
    found.sort()
    if len(found) > k:
        del found[k:]
        cut = True
    for cost, signature, entry, pointers in found:
        result.append(
            SchemaEntry(
                entry.pre,
                entry.bound,
                entry.pathcost,
                entry.inscost,
                cost,
                entry.label,
                pointers,
                has_leaf,
                signature,
            )
        )
    return walked, cut


def _union_pointers(
    left: SchemaEntry, right: SchemaEntry
) -> "tuple[tuple[SchemaEntry, ...], tuple]":
    """Union of two entries' pointer sets, deduplicated by skeleton
    signature, and the sorted child signatures of the result."""
    left_pointers = left.pointers
    right_pointers = right.pointers
    if not right_pointers:
        return left_pointers, left.signature[2]
    if not left_pointers:
        return right_pointers, right.signature[2]
    by_signature = {pointer.signature: pointer for pointer in left_pointers}
    for pointer in right_pointers:
        by_signature.setdefault(pointer.signature, pointer)
    return tuple(by_signature.values()), tuple(sorted(by_signature))
