"""Columnar evaluation lists: struct-of-arrays storage and O(1) range-min.

The Section 6.4/6.5 list algebra is the hot path of both evaluators, and
an object-per-entry representation pays Python's full boxing price for
every field touch.  :class:`EvalColumns` stores one evaluation list as
six parallel columns — ``pre``, ``bound``, ``pathcost``, ``inscost``,
``embcost``, ``leafcost`` — so the operators in :mod:`repro.engine.ops`
run as whole-column passes (list comprehensions and C-level ``bisect``)
instead of per-entry attribute chases, and cost adjustments share the
identity columns of their input instead of copying entries.

The ``join``/``outerjoin`` inner loop needs the minimum of a *score*
column (``pathcost + embcost``) over the descendant interval of each
ancestor.  A :class:`SparseTable` answers those range minima in O(1)
after an O(n log n) build; the table is built lazily per descendant list
and cached on the :class:`EvalColumns` object, so the many contexts one
shared list flows into amortize a single build.  ``join``/``outerjoin``
decide per call, from the total width of the intervals they were handed,
whether a table pays for itself or a slice sweep is cheaper.

Columns are **immutable by convention**: every operator builds new
column lists and never writes into its inputs, which is what makes
sharing identity columns, cached score columns, and sparse tables safe
(the same convention the posting cache relies on one level below).

The identity columns (``pre``, ``bound``, ``pathcost``, ``inscost``) may
be ``array('q')`` buffers borrowed zero-copy from a columnar posting
(:class:`~repro.storage.postings.PostingColumns`).  Every operator
indexes and slices them like lists; derived cost columns are always
plain lists.
"""

from __future__ import annotations

from ..telemetry.collector import count as _telemetry_count
from .entries import INFINITE, ListEntry


class SparseTable:
    """O(1) range-minimum queries over one float column.

    The classic doubling construction: level *j* stores the minimum of
    every window of length ``2**j``.  A query over ``[low, high)`` takes
    the minimum of the two (overlapping) power-of-two windows that cover
    the range — two list indexes and one comparison.
    """

    __slots__ = ("_levels",)

    def __init__(self, scores: list) -> None:
        length = len(scores)
        levels = [scores]
        width = 1
        while 2 * width <= length:
            previous = levels[-1]
            levels.append(
                [
                    previous[i] if previous[i] <= previous[i + width] else previous[i + width]
                    for i in range(length - 2 * width + 1)
                ]
            )
            width *= 2
        self._levels = levels

    def minimum(self, low: int, high: int) -> float:
        """Minimum over ``[low, high)``; requires ``low < high``."""
        level_index = (high - low).bit_length() - 1
        level = self._levels[level_index]
        left = level[low]
        right = level[high - (1 << level_index)]
        return left if left <= right else right


def _score_column(pathcost, costs) -> list:
    """``pathcost + costs`` per row, as a plain list of floats."""
    return [path + cost for path, cost in zip(pathcost, costs)]


class EvalColumns:
    """One evaluation list as six parallel columns.

    Rows keep the :class:`~repro.engine.entries.ListEntry` semantics —
    sorted by ``pre`` with unique ``pre`` values, ``leafcost`` carrying
    the at-least-one-leaf track — but live in plain Python lists, one
    per field.  Iteration and indexing materialize ``ListEntry`` views
    for callers (tests, debugging) that want entry objects; the
    operators never do.

    Score columns and sparse tables are derived lazily and cached on the
    instance (immutability makes the cache safe); because fetch columns
    are themselves cached across queries, a sparse table built for one
    query serves every later query that joins through the same list.
    """

    __slots__ = (
        "pre",
        "bound",
        "pathcost",
        "inscost",
        "embcost",
        "leafcost",
        "_emb_scores",
        "_leaf_scores",
        "_emb_rmq",
        "_leaf_rmq",
    )

    def __init__(
        self,
        pre: list,
        bound: list,
        pathcost: list,
        inscost: list,
        embcost: list,
        leafcost: list,
    ) -> None:
        self.pre = pre
        self.bound = bound
        self.pathcost = pathcost
        self.inscost = inscost
        self.embcost = embcost
        self.leafcost = leafcost
        self._emb_scores: "list | None" = None
        self._leaf_scores: "list | None" = None
        self._emb_rmq: "SparseTable | None" = None
        self._leaf_rmq: "SparseTable | None" = None
        _telemetry_count("kernel.columns_built")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "EvalColumns":
        """A fresh zero-row list."""
        return cls([], [], [], [], [], [])

    @classmethod
    def from_entries(cls, entries: list) -> "EvalColumns":
        """Columns built from a list of :class:`ListEntry` objects."""
        return cls(
            [entry.pre for entry in entries],
            [entry.bound for entry in entries],
            [entry.pathcost for entry in entries],
            [entry.inscost for entry in entries],
            [entry.embcost for entry in entries],
            [entry.leafcost for entry in entries],
        )

    @classmethod
    def from_postings(
        cls, postings: list, is_text: bool, as_leaf_match: bool
    ) -> "EvalColumns":
        """The posting-to-column build (function ``fetch`` of the paper).

        Text postings zero out ``bound`` and ``inscost`` (Section 6.3);
        leaf fetches start ``leafcost`` at 0 alongside ``embcost`` — the
        two all-zero columns share one list object (immutability again).

        A columnar posting (anything exposing ``pre`` / ``pathcost``
        buffer attributes, e.g. :class:`~repro.storage.postings.
        PostingColumns`) is borrowed **zero-copy**: its flat buffers
        become the identity columns directly, no per-row gather.
        """
        count = len(postings)
        columnar = getattr(postings, "pathcost", None)
        if columnar is not None:
            pre = postings.pre
            pathcost = columnar
        else:
            pre = [posting[0] for posting in postings]
            pathcost = [posting[2] for posting in postings]
        if is_text:
            bound = [0] * count
            inscost = [0.0] * count
        elif columnar is not None:
            bound = postings.bound
            inscost = postings.inscost
        else:
            bound = [posting[1] for posting in postings]
            inscost = [posting[3] for posting in postings]
        embcost = [0.0] * count
        leafcost = embcost if as_leaf_match else [INFINITE] * count
        return cls(pre, bound, pathcost, inscost, embcost, leafcost)

    # ------------------------------------------------------------------
    # derived columns (lazy, cached)
    # ------------------------------------------------------------------

    def emb_scores(self) -> list:
        """``pathcost + embcost`` per row — the join score column: adding
        ``pathcost`` turns the per-descendant ``distance + cost`` term
        into a quantity independent of the ancestor, so the best
        descendant in an interval is a plain range minimum."""
        scores = self._emb_scores
        if scores is None:
            scores = _score_column(self.pathcost, self.embcost)
            self._emb_scores = scores
        return scores

    def leaf_scores(self) -> list:
        """``pathcost + leafcost`` per row (the valid-embedding track)."""
        scores = self._leaf_scores
        if scores is None:
            scores = _score_column(self.pathcost, self.leafcost)
            self._leaf_scores = scores
        return scores

    def emb_rmq(self) -> SparseTable:
        """The cached sparse table over :meth:`emb_scores`."""
        table = self._emb_rmq
        if table is None:
            table = SparseTable(self.emb_scores())
            self._emb_rmq = table
            _telemetry_count("kernel.rmq_builds")
        else:
            _telemetry_count("kernel.rmq_reuses")
        return table

    def leaf_rmq(self) -> SparseTable:
        """The cached sparse table over :meth:`leaf_scores`."""
        table = self._leaf_rmq
        if table is None:
            table = SparseTable(self.leaf_scores())
            self._leaf_rmq = table
            _telemetry_count("kernel.rmq_builds")
        else:
            _telemetry_count("kernel.rmq_reuses")
        return table

    # ------------------------------------------------------------------
    # row views (compatibility with entry-shaped callers)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pre)

    def entry(self, index: int) -> ListEntry:
        """Row ``index`` materialized as a :class:`ListEntry`."""
        return ListEntry(
            self.pre[index],
            self.bound[index],
            self.pathcost[index],
            self.inscost[index],
            self.embcost[index],
            self.leafcost[index],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.entry(i) for i in range(*index.indices(len(self.pre)))]
        return self.entry(index)

    def __iter__(self):
        for index in range(len(self.pre)):
            yield self.entry(index)

    def entries(self) -> list:
        """The whole list materialized as ``ListEntry`` objects."""
        return [self.entry(index) for index in range(len(self.pre))]

    def rows(self) -> list:
        """Rows as plain ``(pre, bound, pathcost, inscost, embcost,
        leafcost)`` tuples (the entry-for-entry comparison shape)."""
        return list(
            zip(self.pre, self.bound, self.pathcost, self.inscost, self.embcost, self.leafcost)
        )

    def take(self, indices: list) -> "EvalColumns":
        """A new column set holding the given rows, in the given order."""
        pre = self.pre
        bound = self.bound
        pathcost = self.pathcost
        inscost = self.inscost
        embcost = self.embcost
        leafcost = self.leafcost
        return EvalColumns(
            [pre[i] for i in indices],
            [bound[i] for i in indices],
            [pathcost[i] for i in indices],
            [inscost[i] for i in indices],
            [embcost[i] for i in indices],
            [leafcost[i] for i in indices],
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EvalColumns):
            return self.rows() == other.rows()
        if isinstance(other, list):
            if len(other) != len(self.pre):
                return False
            return self.rows() == [
                (e.pre, e.bound, e.pathcost, e.inscost, e.embcost, e.leafcost)
                for e in other
            ]
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvalColumns(rows={len(self.pre)})"


def as_columns(value) -> EvalColumns:
    """Coerce an evaluation list to columns.

    ``EvalColumns`` passes through unchanged (the operators' native
    path); a plain list of :class:`ListEntry` objects — the shape of the
    retained reference kernel and of older callers — is converted.
    """
    if isinstance(value, EvalColumns):
        return value
    return EvalColumns.from_entries(value)
