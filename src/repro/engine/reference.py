"""The retained entry-per-object reference kernel of the Section 6.4 list
algebra.

This module preserves the original object-shaped implementation of the
evaluation-list operations, one :class:`~repro.engine.entries.ListEntry`
per row.  The production kernel in :mod:`repro.engine.ops` is columnar
(:mod:`repro.engine.columns`); this one stays because it is small enough
to audit by eye, which makes it the executable specification the
property suite (``tests/test_ops_reference.py``) and the operator
microbenchmark (``benchmarks/bench_ops.py``) check the columnar kernel
against, entry for entry.

Semantics match :mod:`repro.engine.ops` exactly — including the
duplicate-``pre`` collapse in :func:`merge` (two renamings can land on
the same data node; the module invariant demands unique ``pre`` values,
so equal pres fold into one entry taking the cheaper cost per track).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..xmltree.indexes import NodeIndexes
from ..xmltree.model import NodeType
from .entries import INFINITE, ListEntry, entry_from_posting

EvalList = list[ListEntry]


def fetch(
    indexes: NodeIndexes, label: str, node_type: NodeType, as_leaf_match: bool
) -> EvalList:
    """Initialize a list from the index posting of ``label`` (function
    ``fetch`` of the paper).  ``as_leaf_match`` marks lists fetched for
    query leaves (their entries start with ``leafcost = 0``)."""
    is_text = node_type == NodeType.TEXT
    return [
        entry_from_posting(posting, is_text, as_leaf_match)
        for posting in indexes.fetch(label, node_type)
    ]


def merge(left: EvalList, right: EvalList, rename_cost: float) -> EvalList:
    """Merge two lists over distinct labels; entries copied from ``right``
    pay the renaming cost (function ``merge``).  Equal ``pre`` values —
    possible when a renaming's posting overlaps the original's — collapse
    into one entry with the minimum cost per track, preserving the
    unique-``pre`` invariant."""
    result: EvalList = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        left_entry, right_entry = left[i], right[j]
        if left_entry.pre < right_entry.pre:
            result.append(left_entry)
            i += 1
        elif right_entry.pre < left_entry.pre:
            result.append(_with_added_cost(right_entry, rename_cost))
            j += 1
        else:
            renamed = _with_added_cost(right_entry, rename_cost)
            copy = left_entry.copy()
            copy.embcost = min(left_entry.embcost, renamed.embcost)
            copy.leafcost = min(left_entry.leafcost, renamed.leafcost)
            result.append(copy)
            i += 1
            j += 1
    result.extend(left[i:])
    for entry in right[j:]:
        result.append(_with_added_cost(entry, rename_cost))
    return result


def join(ancestors: EvalList, descendants: EvalList, edge_cost: float) -> EvalList:
    """Keep ancestors that have a descendant in ``descendants``; their
    cost is the cheapest ``distance + embcost`` among those descendants
    plus ``edge_cost`` (function ``join``)."""
    if not ancestors or not descendants:
        return []
    pres = [entry.pre for entry in descendants]
    # score arrays: adding pathcost(e_D) turns the per-descendant term
    # distance + cost into (pathcost_D + cost_D) - pathcost_A - inscost_A,
    # whose minimum over an interval is a plain min() over a slice.
    emb_scores = [entry.pathcost + entry.embcost for entry in descendants]
    leaf_scores = [entry.pathcost + entry.leafcost for entry in descendants]
    result: EvalList = []
    for ancestor in ancestors:
        low = bisect_right(pres, ancestor.pre)
        high = bisect_right(pres, ancestor.bound)
        if low >= high:
            continue
        base = ancestor.pathcost + ancestor.inscost
        embcost = min(emb_scores[low:high]) - base + edge_cost
        if embcost == INFINITE:
            continue
        leafcost = min(leaf_scores[low:high])
        leafcost = leafcost - base + edge_cost if leafcost != INFINITE else INFINITE
        copy = ancestor.copy()
        copy.embcost = embcost
        copy.leafcost = leafcost
        result.append(copy)
    return result


def outerjoin(
    ancestors: EvalList, descendants: EvalList, edge_cost: float, delete_cost: float
) -> EvalList:
    """Like ``join`` but every ancestor survives: without a descendant it
    pays the delete cost of the query leaf; with descendants it pays the
    cheaper of deletion and the best match (function ``outerjoin``)."""
    pres = [entry.pre for entry in descendants]
    emb_scores = [entry.pathcost + entry.embcost for entry in descendants]
    leaf_scores = [entry.pathcost + entry.leafcost for entry in descendants]
    result: EvalList = []
    for ancestor in ancestors:
        low = bisect_right(pres, ancestor.pre)
        high = bisect_right(pres, ancestor.bound)
        if low < high:
            base = ancestor.pathcost + ancestor.inscost
            match_cost = min(emb_scores[low:high]) - base
            embcost = min(delete_cost, match_cost) + edge_cost
            leafcost = min(leaf_scores[low:high])
            leafcost = leafcost - base + edge_cost if leafcost != INFINITE else INFINITE
        else:
            embcost = delete_cost + edge_cost
            leafcost = INFINITE
        if embcost == INFINITE:
            continue
        copy = ancestor.copy()
        copy.embcost = embcost
        copy.leafcost = leafcost
        result.append(copy)
    return result


def intersect(left: EvalList, right: EvalList, edge_cost: float) -> EvalList:
    """Conjunction: keep nodes present in both lists, summing the costs
    (function ``intersect``)."""
    result: EvalList = []
    right_pres = [entry.pre for entry in right]
    for entry in left:
        index = bisect_left(right_pres, entry.pre)
        if index >= len(right) or right[index].pre != entry.pre:
            continue
        other = right[index]
        embcost = entry.embcost + other.embcost + edge_cost
        if embcost == INFINITE:
            continue
        leafcost = min(entry.leafcost + other.embcost, entry.embcost + other.leafcost)
        copy = entry.copy()
        copy.embcost = embcost
        copy.leafcost = leafcost + edge_cost if leafcost != INFINITE else INFINITE
        result.append(copy)
    return result


def union(left: EvalList, right: EvalList, edge_cost: float) -> EvalList:
    """Disjunction: keep nodes of either list; nodes in both take the
    minimum cost (function ``union``)."""
    result: EvalList = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        left_entry, right_entry = left[i], right[j]
        if left_entry.pre < right_entry.pre:
            result.append(_with_added_cost(left_entry, edge_cost))
            i += 1
        elif right_entry.pre < left_entry.pre:
            result.append(_with_added_cost(right_entry, edge_cost))
            j += 1
        else:
            copy = left_entry.copy()
            copy.embcost = min(left_entry.embcost, right_entry.embcost) + edge_cost
            leafcost = min(left_entry.leafcost, right_entry.leafcost)
            copy.leafcost = leafcost + edge_cost if leafcost != INFINITE else INFINITE
            result.append(copy)
            i += 1
            j += 1
    for entry in left[i:]:
        result.append(_with_added_cost(entry, edge_cost))
    for entry in right[j:]:
        result.append(_with_added_cost(entry, edge_cost))
    return result


def sort_best(n: "int | None", entries: EvalList) -> EvalList:
    """Sort by valid embedding cost and keep the best ``n`` (function
    ``sort``).  Entries without any valid embedding (infinite
    ``leafcost``) are discarded."""
    valid = [entry for entry in entries if entry.leafcost != INFINITE]
    valid.sort(key=lambda entry: (entry.leafcost, entry.pre))
    if n is None:
        return valid
    return valid[:n]


def add_edge_cost(entries: EvalList, edge_cost: float) -> EvalList:
    """A fresh list with ``edge_cost`` added to every entry's costs (used
    to reuse cached zero-edge results under a different edge cost)."""
    if edge_cost == 0:
        return entries
    return [_with_added_cost(entry, edge_cost) for entry in entries]


def _with_added_cost(entry: ListEntry, cost: float) -> ListEntry:
    if cost == 0:
        return entry
    copy = entry.copy()
    copy.embcost = entry.embcost + cost
    copy.leafcost = entry.leafcost + cost if entry.leafcost != INFINITE else INFINITE
    return copy
