"""Segmented top-k list operations (Section 7.2), built on demand.

A list is sorted by schema preorder; the entries sharing one preorder
number form a *segment*.  A segment is two *runs* — the skeletons that
contain a real query-leaf match ("valid"), then the skeletons whose
leaves were all deleted ("invalid") — and each run is ordered by
(embedding cost, skeleton signature).  Invalid partial skeletons must be
carried — an ``intersect`` with a valid sibling turns them into valid
ones — but they may never crowd a valid skeleton out of its segment, or
the best-n guarantee would silently break; hence one run per validity
class.

Every run is built on demand (:class:`_Run`): it holds the prefix its
consumers have read and extends it by resuming its operator's cost-ordered
frontier — a k-way merge for ``merge``/``union`` and ``join``, the
sorted-matrix pair walk for ``intersect`` — which reads each input run
only as deep as it needs.  This is lazy *k*-best enumeration over the
and/or DAG of the expanded query: the j-th entry of a run combines
inputs ranked at most j within their own runs, and the (cost, signature)
order makes the first *k* entries of a run its top-*k*, whatever depth
was read before.  :class:`SegmentAlgebra` hands these lists
(:class:`SegmentStream`) to the Figure 4 recursion of
:mod:`repro.engine.primary`, and the driver pulls root skeletons in
(cost, pre, signature) order (:meth:`SegmentStream.skeletons`) until it
has its answer; the batch operators (:func:`merge_shifted_k`,
:func:`join_k`, :func:`outerjoin_k`, :func:`intersect_k`) read every run
of the same lists to depth *k*.

Dead conjunctions: ``intersect`` may be given a liveness test
(:meth:`~repro.schema.secondary.SecondaryExecutor.conjoin`).  A pair
whose two sides share no instance of their class has no instance itself,
nor has any skeleton built on it, so it is skipped and takes no slot.
That is sound only on demand: a run that skips must be free to read its
inputs past any fixed depth.  Every other operator keeps a live input
live (a DataGuide class's instances all have an instance of each ancestor
class above them), so every pulled root skeleton has an instance.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right

from ..engine.entries import INFINITE
from ..telemetry.collector import count as _telemetry_count
from ..xmltree.model import NodeType
from .entries import SchemaEntry, entry_from_schema_posting
from .indexes import SchemaNodeIndexes


class TopKList(list):
    """A built segmented list: the entries in (pre, validity, cost,
    signature) order, plus what the operators derive from them.

    ``segments`` holds one ``(pre, start, middle, end)`` per segment —
    the valid run is ``self[start:middle]``, the invalid run
    ``self[middle:end]``.  Lists are immutable once built: the derived
    views are cached on first use, and the evaluator shares lists freely.
    """

    __slots__ = ("segments", "_pre", "_bound", "_stream")

    def __init__(self, entries=(), segments=None) -> None:
        super().__init__(entries)
        if segments is None:
            segments = _scan_segments(self)
        self.segments: list[tuple[int, int, int, int]] = segments
        self._pre = None
        self._bound = None
        self._stream = None

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

    def stream(self) -> "SegmentStream":
        """This list as a :class:`SegmentStream` of whole runs."""
        if self._stream is None:
            self._stream = SegmentStream(
                [segment[0] for segment in self.segments],
                [
                    (
                        _Run(self[start:middle]) if middle > start else _EMPTY,
                        _Run(self[middle:end]) if end > middle else _EMPTY,
                    )
                    for _, start, middle, end in self.segments
                ],
            )
        return self._stream

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
        if self._bound is None:
            self._bound = [entry.bound for entry in self]
        return self._bound

    def take(self, rows: list[int]) -> "TopKList":
        """A new list holding the given entries, in the given order."""
        return TopKList([self[row] for row in rows])


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


class _Run:
    """One run built on demand: the (cost, signature)-ordered entries
    read so far, and the suspended operator that yields the rest (``None``
    once the run is whole)."""

    __slots__ = ("entries", "_source")

    def __init__(self, entries: list, source=None) -> None:
        self.entries = entries
        self._source = source

    def reach(self, count: int) -> bool:
        """Whether the run has at least ``count`` entries, resuming its
        operator while the prefix is shorter."""
        entries = self.entries
        if len(entries) >= count:
            return True
        source = self._source
        if source is None:
            return False
        for entry in source:
            entries.append(entry)
            if len(entries) >= count:
                return True
        self._source = None
        return False

    def whole(self) -> list[SchemaEntry]:
        """Every entry of the run."""
        if self._source is not None:
            self.entries.extend(self._source)
            self._source = None
        return self.entries


_EMPTY = _Run([])


def _run(source) -> _Run:
    return _Run([], source)


class SegmentStream:
    """A list whose runs are built on demand: the sorted ``pres`` of its
    segments and per segment its (valid, invalid) :class:`_Run` pair.  A
    segment may turn out empty once its runs are read (every pair of a
    conjunction dead)."""

    __slots__ = ("pres", "runs")

    def __init__(self, pres: list[int], runs: list) -> None:
        self.pres = pres
        self.runs = runs

    def __bool__(self) -> bool:
        return bool(self.pres)

    def skeletons(self, closed=None):
        """The valid skeletons in (cost, pre, signature) order — the
        second-level queries, pulled one at a time; a root run is read
        only as far as the pull reaches it.  A segment whose class
        ``closed(pre)`` rejects is dropped when it comes up next."""
        heap = []
        for pre, (run, _) in zip(self.pres, self.runs):
            if run.reach(1):
                entry = run.entries[0]
                heap.append((entry.embcost, pre, entry.signature, 0, run))
        heapq.heapify(heap)
        while heap:
            _, pre, _, position, run = heap[0]
            if closed is not None and closed(pre):
                _telemetry_count("schema.saturation_skips")
                heapq.heappop(heap)
                continue
            yield run.entries[position]
            position += 1
            if run.reach(position + 1):
                entry = run.entries[position]
                heapq.heapreplace(heap, (entry.embcost, pre, entry.signature, position, run))
            else:
                heapq.heappop(heap)

    def top(self, k: "int | None" = None) -> TopKList:
        """Every run read to depth ``k`` (whole when ``None``), as a built
        :class:`TopKList`."""

        def read(run: _Run) -> list[SchemaEntry]:
            if k is None:
                return run.whole()
            run.reach(k)
            return run.entries[:k]

        entries: list[SchemaEntry] = []
        segments = []
        for pre, (valid, invalid) in zip(self.pres, self.runs):
            offset = len(entries)
            entries += read(valid)
            middle = len(entries)
            entries += read(invalid)
            if len(entries) > offset:
                segments.append((pre, offset, middle, len(entries)))
        return TopKList(entries, segments)


def _stream(entries) -> SegmentStream:
    if isinstance(entries, SegmentStream):
        return entries
    return TopKList.of(entries).stream()


def fetch_k(
    indexes: SchemaNodeIndexes, label: str, node_type: NodeType, as_leaf_match: bool
) -> TopKList:
    """Initialize a list from a schema-index posting; entries carry the
    fetched label (so renamed matches build the right ``I_sec`` keys).

    The built list is served through the indexes' derived-value cache
    (:meth:`SchemaNodeIndexes.fetch_derived`), so repeat queries skip the
    posting-to-entry construction; the returned list is a shared object
    and must not be mutated."""
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


def merge_streams(parts: list) -> SegmentStream:
    """One list from several ``(list, added cost)`` parts: matching
    segments are merged run by run, and repeated skeletons keep their
    cheapest copy.  This is the one merge behind a selector's renamings
    (all labels at once) and ``or`` (the cost of a deletion edge is its
    part's shift).  A run that occurs in one unshifted part — always, for
    struct classes: one class, one label — is that part's run."""
    parts = [(_stream(entries), shift) for entries, shift in parts if entries]
    if len(parts) == 1 and parts[0][1] == 0:
        return parts[0][0]
    sources: dict[int, list] = {}
    for stream, shift in parts:
        for pre, runs in zip(stream.pres, stream.runs):
            sources.setdefault(pre, []).append((runs, shift))
    pres = sorted(sources)
    return SegmentStream(
        pres,
        [
            tuple(
                _merged_run([(runs[validity], shift) for runs, shift in sources[pre]])
                for validity in (0, 1)
            )
            for pre in pres
        ],
    )


def join_streams(
    ancestors: TopKList, descendants, edge_cost: float, delete_cost: float
) -> SegmentStream:
    """For each ancestor, the copies pointing at each skeleton of the
    descendant segments below it, per validity class, in cost order; the
    invalid run also holds the deletion candidate (empty pointer set, no
    leaf match) when ``delete_cost`` is finite."""
    descendants = _stream(descendants)
    pres = descendants.pres
    out_pres: list[int] = []
    out_runs: list = []
    for ancestor in TopKList.of(ancestors):
        low = bisect_right(pres, ancestor.pre)
        high = bisect_right(pres, ancestor.bound, low)
        below = descendants.runs[low:high]
        valid = [runs[0] for runs in below if runs[0] is not _EMPTY]
        invalid = [runs[1] for runs in below if runs[1] is not _EMPTY]
        if not valid and not invalid and delete_cost == INFINITE:
            continue
        runs = (
            _run(_joined(ancestor, valid, True, edge_cost, INFINITE)) if valid else _EMPTY,
            _run(_joined(ancestor, invalid, False, edge_cost, delete_cost))
            if invalid or delete_cost != INFINITE
            else _EMPTY,
        )
        if out_pres and out_pres[-1] == ancestor.pre:
            # several ancestor entries for one schema node (hand-built
            # inputs only): their copies share the segment's runs
            out_runs[-1] = tuple(
                _merged_run([(earlier, 0.0), (run, 0.0)])
                for earlier, run in zip(out_runs[-1], runs)
            )
        else:
            out_pres.append(ancestor.pre)
            out_runs.append(runs)
    return SegmentStream(out_pres, out_runs)


def intersect_streams(left, right, edge_cost: float, live=None) -> SegmentStream:
    """Conjunction: for segments representing the same schema node, the
    pair combinations in cost order (distinct skeletons); pointer sets
    are united.  A pair is valid when either side is, so the valid run
    walks three run products (valid x valid, valid x invalid, invalid x
    valid) and the invalid run one.  ``live`` (see the module docstring)
    rejects dead pairs."""
    left = _stream(left)
    right = _stream(right)
    positions = {pre: position for position, pre in enumerate(right.pres)}
    pres = []
    out_runs = []
    for pre, (left_valid, left_invalid) in zip(left.pres, left.runs):
        position = positions.get(pre)
        if position is None:
            continue
        right_valid, right_invalid = right.runs[position]
        valid = [
            (one, other)
            for one, other in (
                (left_valid, right_valid),
                (left_valid, right_invalid),
                (left_invalid, right_valid),
            )
            if one is not _EMPTY and other is not _EMPTY
        ]
        invalid = (
            [(left_invalid, right_invalid)]
            if left_invalid is not _EMPTY and right_invalid is not _EMPTY
            else []
        )
        pres.append(pre)
        out_runs.append(
            tuple(
                _run(_pairs(products, edge_cost, has_leaf, live)) if products else _EMPTY
                for products, has_leaf in ((valid, True), (invalid, False))
            )
        )
    return SegmentStream(pres, out_runs)


def valid_streams(entries) -> SegmentStream:
    """The list with only its valid runs: the segments of skeletons that
    hold a real query-leaf match (a trunk selector's match list,
    :mod:`repro.engine.primary`)."""
    stream = _stream(entries)
    kept = [(pre, runs[0]) for pre, runs in zip(stream.pres, stream.runs) if runs[0] is not _EMPTY]
    return SegmentStream([pre for pre, _ in kept], [(run, _EMPTY) for _, run in kept])


def merge_shifted_k(parts: "list[tuple[TopKList, float]]", k: int) -> TopKList:
    """:func:`merge_streams` with every run cut to k."""
    return merge_streams(parts).top(k)


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
        [entry.with_cost(entry.embcost + edge_cost) for entry in entries], entries.segments
    )


def join_k(
    ancestors: TopKList, descendants: TopKList, edge_cost: float, k: int
) -> TopKList:
    """For each ancestor, keep the k cheapest descendant skeletons (per
    validity class); each yields one copy of the ancestor pointing at
    that descendant."""
    return join_streams(ancestors, descendants, edge_cost, INFINITE).top(k)


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
    return join_streams(ancestors, descendants, edge_cost, delete_cost).top(k)


def intersect_k(left: TopKList, right: TopKList, edge_cost: float, k: int) -> TopKList:
    """:func:`intersect_streams` with every run cut to k."""
    return intersect_streams(left, right, edge_cost).top(k)


class SegmentAlgebra:
    """The operators on demand as the list algebra of the Figure 4
    recursion (:mod:`repro.engine.primary`) over schema class segments:
    fetches are :class:`TopKList`, every other list a
    :class:`SegmentStream`, and the counters are published as
    ``schema.*``.  ``live`` is the dead-conjunction test, or ``None``."""

    __slots__ = ("indexes", "live")

    counters = (
        ("postings_scoped_out", "schema.candidates_scoped_out"),
        ("roots_unwitnessed", "schema.roots_unwitnessed"),
        ("trunk_unwitnessed", "schema.trunk_unwitnessed"),
        ("list_ops", "schema.topk_list_ops"),
    )
    merge_shifted = staticmethod(merge_streams)
    outerjoin = staticmethod(join_streams)
    valid = staticmethod(valid_streams)

    def __init__(self, indexes: SchemaNodeIndexes, live=None) -> None:
        self.indexes = indexes
        self.live = live

    def fetch(self, label: str, node_type: NodeType, as_leaf: bool) -> TopKList:
        """:func:`fetch_k` over this algebra's indexes."""
        return fetch_k(self.indexes, label, node_type, as_leaf)

    @staticmethod
    def join(ancestors: TopKList, descendants, edge_cost: float) -> SegmentStream:
        """:func:`join_streams` without deletion candidates."""
        return join_streams(ancestors, descendants, edge_cost, INFINITE)

    def intersect(self, left, right, edge_cost: float) -> SegmentStream:
        """:func:`intersect_streams` skipping dead pairs."""
        return intersect_streams(left, right, edge_cost, self.live)


def sort_roots(k: "int | None", entries: TopKList) -> list[SchemaEntry]:
    """The top-level ``sort`` of a built list: globally order valid
    second-level queries by (cost, schema node, skeleton) and keep the
    best k (the batch form of :meth:`SegmentStream.skeletons`)."""
    valid = [entry for entry in entries if entry.has_leaf]
    valid.sort(key=lambda entry: (entry.embcost, entry.pre, entry.signature))
    if k is None:
        return valid
    return valid[:k]


# ----------------------------------------------------------------------
# the operators' frontiers
# ----------------------------------------------------------------------


def _merged_run(pieces: "list[tuple[_Run, float]]") -> _Run:
    """The run of a merged segment from the ``(run, added cost)`` of every
    part that has it."""
    pieces = [piece for piece in pieces if piece[0] is not _EMPTY]
    if not pieces:
        return _EMPTY
    if len(pieces) == 1 and pieces[0][1] == 0:
        return pieces[0][0]
    return _run(_merged(pieces))


def _merged(pieces: "list[tuple[_Run, float]]"):
    """The k-way merge of shifted runs in (cost, signature) order, the
    first copy of every skeleton (the lowest-numbered piece's on a tie)."""
    heap = []
    for number, (run, shift) in enumerate(pieces):
        if run.reach(1):
            entry = run.entries[0]
            heap.append((entry.embcost + shift, entry.signature, number, 0))
    heapq.heapify(heap)
    seen = set()
    while heap:
        cost, signature, number, position = heap[0]
        run, shift = pieces[number]
        entry = run.entries[position]
        position += 1
        if len(run.entries) > position or run.reach(position + 1):
            following = run.entries[position]
            heapq.heapreplace(
                heap, (following.embcost + shift, following.signature, number, position)
            )
        else:
            heapq.heappop(heap)
        if signature in seen:
            continue
        seen.add(signature)
        yield entry if shift == 0 else entry.with_cost(cost)


def _joined(
    ancestor: SchemaEntry,
    pieces: "list[_Run]",
    has_leaf: bool,
    edge_cost: float,
    delete_cost: float,
):
    """Copies of ``ancestor`` for the entries of the descendant runs
    ``pieces`` (one validity class) in cost order — and, when
    ``delete_cost`` is finite, the deletion candidate in its place among
    them.  A descendant's copy costs its distance below the ancestor
    plus its own embedding cost."""
    pre = ancestor.pre
    bound = ancestor.bound
    pathcost = ancestor.pathcost
    inscost = ancestor.inscost
    label = ancestor.label
    base = pathcost + inscost
    heap = []
    for number, run in enumerate(pieces):
        if run.reach(1):
            entry = run.entries[0]
            heap.append(
                (entry.pathcost + entry.embcost - base + edge_cost, entry.signature, number, 0)
            )
    heapq.heapify(heap)
    deletion = INFINITE if delete_cost == INFINITE else delete_cost + edge_cost
    while heap:
        cost, signature, number, position = heap[0]
        if deletion <= cost:
            # the deletion candidate's skeleton (no pointers) orders before
            # every equal-cost candidate that points somewhere
            yield _deletion_candidate(ancestor, deletion)
            deletion = INFINITE
        run = pieces[number]
        entry = run.entries[position]
        position += 1
        if len(run.entries) > position or run.reach(position + 1):
            following = run.entries[position]
            heapq.heapreplace(
                heap,
                (
                    following.pathcost + following.embcost - base + edge_cost,
                    following.signature,
                    number,
                    position,
                ),
            )
        else:
            heapq.heappop(heap)
        yield SchemaEntry(
            pre, bound, pathcost, inscost, cost, label, (entry,), has_leaf, (pre, label, (signature,))
        )
    if deletion != INFINITE:
        yield _deletion_candidate(ancestor, deletion)


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


def _pairs(products: "list[tuple[_Run, _Run]]", edge_cost: float, has_leaf: bool, live=None):
    """The distinct live skeletons among the pairs of ``products`` (each
    a pair of runs of one segment), in (cost, signature) order.

    The classic sorted-matrix frontier walk, one heap for all products:
    a cell's right neighbour is pushed when the cell is popped, its lower
    neighbour only from the first column — every cell is reached once, in
    ascending cost, and a run is read only as deep as the walk gets.  The
    pairs of one cost are all walked before any is handed out, so they
    are ranked by signature, not by heap order.  A pair ``live(signature,
    left, right)`` rejects takes no place."""
    heap = []
    for number, (left, right) in enumerate(products):
        if left.reach(1) and right.reach(1):
            heap.append((left.entries[0].embcost + right.entries[0].embcost, number, 0, 0))
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    seen = set()
    while heap:
        total = heap[0][0]
        found = []
        walked = dead = 0
        while heap and heap[0][0] == total:
            _, number, i, j = pop(heap)
            walked += 1
            left, right = products[number]
            left_entry = left.entries[i]
            right_entry = right.entries[j]
            if len(right.entries) > j + 1 or right.reach(j + 2):
                push(heap, (left_entry.embcost + right.entries[j + 1].embcost, number, i, j + 1))
            if j == 0 and (len(left.entries) > i + 1 or left.reach(i + 2)):
                push(heap, (left.entries[i + 1].embcost + right_entry.embcost, number, i + 1, 0))
            pointers, children = _union_pointers(left_entry, right_entry)
            signature = (left_entry.pre, left_entry.label, children)
            if signature in seen:
                # the same skeleton at equal or higher cost: no loss
                continue
            seen.add(signature)
            if live is not None and not live(signature, left_entry, right_entry):
                dead += 1
                continue
            found.append((signature, left_entry, pointers))
        _telemetry_count("schema.intersect_pairs", walked)
        if dead:
            _telemetry_count("schema.conjunctions_dead", dead)
        # signatures are distinct, so the sort never compares past them
        found.sort()
        cost = total + edge_cost
        for signature, entry, pointers in found:
            yield SchemaEntry(
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
