"""The list algebra of Section 6.4 — columnar kernel.

Every operation consumes and produces *evaluation lists* sorted by
``pre`` with unique ``pre`` values, carried as
:class:`~repro.engine.columns.EvalColumns` struct-of-arrays (plain lists
of :class:`~repro.engine.entries.ListEntry` are accepted and coerced, so
entry-shaped callers keep working).  Operations never mutate their
inputs — lists are shared across the evaluation of the expanded DAG,
and cost adjustments *share* the identity columns of their input
instead of copying entries — and drop rows whose embedding cost is
infinite, since such rows can never contribute a result.

Each operation computes both cost tracks: ``embcost`` (unconditional
best) and ``leafcost`` (best among embeddings with at least one real
query-leaf match; see :mod:`repro.engine.entries`).

The ``join``/``outerjoin`` range minima are answered either by a sweep
over each ancestor's slice of the descendant list or by that list's
cached sparse table (O(1) per ancestor after one O(|D| log |D|) build);
each call picks the cheaper one from the interval widths it was handed.
The entry-shaped original of this module survives as
:mod:`repro.engine.reference`, the executable specification the property
suite checks this kernel against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from ..telemetry.collector import count as _telemetry_count
from ..xmltree.indexes import NodeIndexes
from ..xmltree.model import NodeType
from .columns import EvalColumns, as_columns
from .entries import INFINITE, ListEntry

EvalList = list[ListEntry]


def fetch(
    indexes: NodeIndexes, label: str, node_type: NodeType, as_leaf_match: bool
) -> EvalColumns:
    """Initialize columns from the index posting of ``label`` (function
    ``fetch`` of the paper).  ``as_leaf_match`` marks lists fetched for
    query leaves (their rows start with ``leafcost = 0``).

    The posting-to-column build is delegated to the index's derived-value
    cache (:meth:`~repro.xmltree.indexes.NodeIndexes.fetch_derived`):
    repeat queries over an unchanged store get back the columns built by
    an earlier query — including any sparse tables already grown on them
    — and skip posting decode and column construction entirely.
    """
    is_text = node_type == NodeType.TEXT
    return indexes.fetch_derived(
        label,
        node_type,
        as_leaf_match,
        lambda posting: EvalColumns.from_postings(posting, is_text, as_leaf_match),
    )


def merge(left, right, rename_cost: float) -> EvalColumns:
    """Merge two lists over distinct labels; rows taken from ``right``
    pay the renaming cost (function ``merge``).  Equal ``pre`` values —
    possible when a renaming's posting overlaps the original's — collapse
    into one row with the minimum cost per track, preserving the
    unique-``pre`` invariant."""
    return merge_shifted([(left, 0.0), (right, rename_cost)])


def merge_shifted(parts: "list[tuple[EvalColumns | EvalList, float]]") -> EvalColumns:
    """``merge`` over any number of ``(list, cost)`` parts at once — a
    selector's label and all its renamings — each part's rows paying its
    cost: one sort over all rows instead of a pass per renaming."""
    shifted = [_with_added_cost(as_columns(part), cost) for part, cost in parts if len(part)]
    if len(shifted) > 1:
        return _merge_columns(shifted)
    return shifted[0] if shifted else EvalColumns.empty()


def join(ancestors, descendants, edge_cost: float) -> EvalColumns:
    """Keep ancestors that have a descendant in ``descendants``; their
    cost is the cheapest ``distance + embcost`` among those descendants
    plus ``edge_cost`` (function ``join``)."""
    ancestors = as_columns(ancestors)
    descendants = as_columns(descendants)
    pathcost = ancestors.pathcost
    inscost = ancestors.inscost
    keep: list = []
    embcost: list = []
    leafcost: list = []
    for i, emb, leaf in zip(*_range_minima(ancestors, descendants)):
        base = pathcost[i] + inscost[i]
        emb = emb - base + edge_cost
        if emb == INFINITE:
            continue
        keep.append(i)
        embcost.append(emb)
        leafcost.append(leaf - base + edge_cost if leaf != INFINITE else INFINITE)
    return _rebind(ancestors, keep, embcost, leafcost)


def outerjoin(ancestors, descendants, edge_cost: float, delete_cost: float) -> EvalColumns:
    """Like ``join`` but every ancestor survives: without a descendant it
    pays the delete cost of the query leaf; with descendants it pays the
    cheaper of deletion and the best match (function ``outerjoin``)."""
    ancestors = as_columns(ancestors)
    descendants = as_columns(descendants)
    pathcost = ancestors.pathcost
    inscost = ancestors.inscost
    unmatched = delete_cost + edge_cost
    embcost = [unmatched] * len(ancestors)
    leafcost = [INFINITE] * len(ancestors)
    hits, emb_minima, leaf_minima = _range_minima(ancestors, descendants)
    for i, match, leaf in zip(hits, emb_minima, leaf_minima):
        base = pathcost[i] + inscost[i]
        embcost[i] = min(delete_cost, match - base) + edge_cost
        if leaf != INFINITE:
            leafcost[i] = leaf - base + edge_cost
    if unmatched != INFINITE:
        return _rebind(ancestors, range(len(ancestors)), embcost, leafcost)
    keep = [i for i in hits if embcost[i] != INFINITE]
    return _rebind(
        ancestors, keep, [embcost[i] for i in keep], [leafcost[i] for i in keep]
    )


def intersect(left, right, edge_cost: float) -> EvalColumns:
    """Conjunction: keep nodes present in both lists, summing the costs
    (function ``intersect``)."""
    left = as_columns(left)
    right = as_columns(right)
    left_pre = left.pre
    right_pre = right.pre
    if left_pre is right_pre or left_pre == right_pre:
        # both sides kept every row of one ancestor list (conjuncts
        # that are deletable leaves do): the rows pair up as they stand
        rows = positions = range(len(left_pre))
    else:
        found = [bisect_left(right_pre, pre) for pre in left_pre]
        size = len(right_pre)
        rows = [i for i, j in enumerate(found) if j < size and right_pre[j] == left_pre[i]]
        positions = [found[i] for i in rows]
    left_emb, left_leaf = left.embcost, left.leafcost
    right_emb, right_leaf = right.embcost, right.leafcost
    keep: list = []
    embcost: list = []
    leafcost: list = []
    for i, j in zip(rows, positions):
        emb = left_emb[i] + right_emb[j] + edge_cost
        if emb == INFINITE:
            continue
        leaf = min(left_leaf[i] + right_emb[j], left_emb[i] + right_leaf[j])
        keep.append(i)
        embcost.append(emb)
        leafcost.append(leaf + edge_cost if leaf != INFINITE else INFINITE)
    return _rebind(left, keep, embcost, leafcost)


def union(left, right, edge_cost: float) -> EvalColumns:
    """Disjunction: keep nodes of either list; nodes in both take the
    minimum cost (function ``union``).  Shifting both inputs first makes
    this the same sorted-merge-with-min-fold as ``merge`` (addition by a
    shared constant is monotone, so folding after shifting picks the same
    minima)."""
    return merge_shifted([(left, edge_cost), (right, edge_cost)])


def sort_best(n: "int | None", entries) -> EvalColumns:
    """Sort by valid embedding cost and keep the best ``n`` (function
    ``sort``).  Rows without any valid embedding (infinite ``leafcost``)
    are discarded."""
    entries = as_columns(entries)
    leafcost = entries.leafcost
    pre = entries.pre
    order = sorted(
        (i for i in range(len(pre)) if leafcost[i] != INFINITE),
        key=lambda i: (leafcost[i], pre[i]),
    )
    if n is not None:
        order = order[:n]
    return entries.take(order)


class PostingAlgebra:
    """This module's operators as the list algebra of the Figure 4
    recursion (:mod:`repro.engine.primary`) over data postings: every
    list is exact, and the counters are published as ``direct.*``."""

    __slots__ = ("indexes",)

    counters = (
        ("fetch_count", "direct.index_fetches"),
        ("postings_fetched", "direct.postings_fetched"),
        ("postings_scoped_out", "direct.postings_scoped_out"),
        ("memo_hits", "direct.memo_hits"),
        ("list_ops", "direct.lists_materialized"),
        ("merge_ops", "direct.merge_steps"),
        ("fetch_cache_hits", "direct.fetch_cache_hits"),
    )
    join = staticmethod(join)
    outerjoin = staticmethod(outerjoin)
    intersect = staticmethod(intersect)
    merge_shifted = staticmethod(merge_shifted)

    def __init__(self, indexes: NodeIndexes) -> None:
        self.indexes = indexes

    def fetch(self, label: str, node_type: NodeType, as_leaf: bool) -> EvalColumns:
        """:func:`fetch` over this algebra's indexes."""
        return fetch(self.indexes, label, node_type, as_leaf)

    @staticmethod
    def exact(columns: EvalColumns) -> bool:
        return True


def add_edge_cost(entries, edge_cost: float) -> EvalColumns:
    """A fresh list with ``edge_cost`` added to every row's costs (used
    to reuse cached zero-edge results under a different edge cost).
    The identity columns are shared with the input — the whole point of
    the columnar layout is that a cost shift is two column passes, not a
    per-entry copy."""
    if edge_cost == 0:
        return entries
    return _with_added_cost(as_columns(entries), edge_cost)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------


def _range_minima(ancestors: EvalColumns, descendants: EvalColumns) -> tuple[list, list, list]:
    """The ancestors (as row indices) with descendant rows inside their
    ``(pre, bound]`` interval, and per such ancestor the minimum of the
    descendants' two score columns over those rows.

    The strategy is chosen from the input: once the interval positions
    are known so is their total width W, the work of sweeping every
    slice; the descendant list's sparse tables answer each interval in
    O(1) but cost ~|D|·log₂|D| to build, so they are built (and cached
    on the list) only when W exceeds that."""
    pres = descendants.pre
    size = len(pres)
    bounds = ancestors.bound
    lows = [bisect_right(pres, pre) for pre in ancestors.pre]
    hits = [
        i
        for i, (low, bound) in enumerate(zip(lows, bounds))
        if low < size and pres[low] <= bound
    ]
    spans = [(lows[i], bisect_right(pres, bounds[i], lows[i])) for i in hits]
    if sum(high - low for low, high in spans) > size * size.bit_length():
        _telemetry_count("kernel.rmq_joins")
        emb_minimum = descendants.emb_rmq().minimum
        leaf_minimum = descendants.leaf_rmq().minimum
        return (
            hits,
            [emb_minimum(low, high) for low, high in spans],
            [leaf_minimum(low, high) for low, high in spans],
        )
    _telemetry_count("kernel.linear_joins")
    emb_scores = descendants.emb_scores()
    leaf_scores = descendants.leaf_scores()
    return (
        hits,
        [min(emb_scores[low:high]) for low, high in spans],
        [min(leaf_scores[low:high]) for low, high in spans],
    )


def _concat(columns) -> list:
    """The given columns end to end as one list (buffer-backed columns —
    ``array`` — do not concatenate with ``+``)."""
    combined: list = []
    for column in columns:
        combined.extend(column)
    return combined


def _with_added_cost(columns: EvalColumns, cost: float) -> EvalColumns:
    if cost == 0:
        return columns
    embcost = [emb + cost for emb in columns.embcost]
    leafcost = [leaf + cost if leaf != INFINITE else INFINITE for leaf in columns.leafcost]
    return EvalColumns(
        columns.pre,
        columns.bound,
        columns.pathcost,
        columns.inscost,
        embcost,
        leafcost,
    )


def _merge_columns(parts: "list[EvalColumns]") -> EvalColumns:
    """Merge two or more non-empty, cost-shifted column sets by ``pre``.
    The merged order is computed once, as a stable sort of row indices
    into the concatenated inputs (each input is one ascending run), then
    each column is gathered in a single C-level pass.  Equal ``pre``
    values — rows of one node — collapse into the first of them with the
    minimum cost per track."""
    pre = _concat(part.pre for part in parts)
    getter = itemgetter(*sorted(range(len(pre)), key=pre.__getitem__))
    pre = list(getter(pre))
    bound, pathcost, inscost, embcost, leafcost = (
        list(getter(_concat(getattr(part, name) for part in parts)))
        for name in ("bound", "pathcost", "inscost", "embcost", "leafcost")
    )
    if len(set(pre)) == len(pre):
        return EvalColumns(pre, bound, pathcost, inscost, embcost, leafcost)
    keep: list = []
    for row in range(len(pre)):
        if keep and pre[row] == pre[keep[-1]]:
            first = keep[-1]
            embcost[first] = min(embcost[first], embcost[row])
            leafcost[first] = min(leafcost[first], leafcost[row])
        else:
            keep.append(row)
    return EvalColumns(pre, bound, pathcost, inscost, embcost, leafcost).take(keep)


def _rebind(source: EvalColumns, keep: list, embcost: list, leafcost: list) -> EvalColumns:
    """Build a result from surviving rows of ``source`` with new cost
    columns; when every row survived the identity columns are shared
    unchanged."""
    if len(keep) == len(source.pre):
        return EvalColumns(
            source.pre, source.bound, source.pathcost, source.inscost, embcost, leafcost
        )
    return EvalColumns(
        [source.pre[i] for i in keep],
        [source.bound[i] for i in keep],
        [source.pathcost[i] for i in keep],
        [source.inscost[i] for i in keep],
        embcost,
        leafcost,
    )
