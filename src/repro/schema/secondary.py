"""Algorithm ``secondary`` — executing a second-level query (Section 7.3,
Figure 5).

A second-level query is a skeleton of (schema node, label) pairs linked
through pointer sets.  For each skeleton node the path-dependent posting
``I_sec[pre#label]`` delivers the node's instances; a per-child semi-join
keeps the instances that have a descendant among each child's results.
Every data node returned for the skeleton root is an approximate result
of the original query, with exactly the skeleton's embedding cost (all
instance pairs of two schema nodes are separated by the same distance).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

from ..storage.postings import InstanceColumns
from ..telemetry.collector import count as _telemetry_count
from .entries import SchemaEntry
from .indexes import MemorySecondaryIndex


class SecondaryExecutor:
    """Executes second-level queries against ``I_sec``.

    Results are cached per skeleton node, so shared subtrees (pointer
    sets produced by ``intersect`` unions) are evaluated once; the memo
    keeps the entries alive, making identity-keying safe.  Postings and
    results are :class:`~repro.storage.postings.InstanceColumns`, so a
    child reused as the semi-join probe of several parents (and across
    the driver's repeated rounds) lends its ``pre`` column as is.
    """

    def __init__(self, index: MemorySecondaryIndex) -> None:
        self._index = index
        self._memo: dict[SchemaEntry, InstanceColumns] = {}
        #: statistics: number of I_sec fetches performed
        self.fetch_count = 0

    def execute(self, entry: SchemaEntry) -> InstanceColumns:
        """All instances of the skeleton rooted at ``entry`` that contain
        an instance embedding of the whole skeleton (Figure 5)."""
        cached = self._memo.get(entry)
        if cached is not None:
            _telemetry_count("schema.skeleton_memo_hits")
            return cached
        instances = self._index.fetch(entry.pre, entry.label)
        self.fetch_count += 1
        for child in entry.pointers:
            if not instances:
                break
            instances = semi_join(instances, self.execute(child))
            _telemetry_count("schema.semijoins")
        if not isinstance(instances, InstanceColumns):
            instances = InstanceColumns.from_rows(instances)
        self._memo[entry] = instances
        return instances


def semi_join(ancestors, descendants) -> InstanceColumns:
    """Keep the ancestors that contain at least one descendant.

    Both inputs are ``(pre, bound)`` postings sorted by ``pre`` (columns
    or lists of pairs); an ancestor qualifies iff some descendant pre
    lies in ``(pre, bound]``.  The ancestors must be pairwise **disjoint**
    — the instances of one schema class always are: they share a
    label-type path, hence a depth — so the only candidate for a
    descendant is the last ancestor that starts before it.  The walk
    alternates two bisections, skipping the descendants inside an
    ancestor it has just kept and the ancestors before the next
    descendant: O(min(|A|, |D|) · log max(|A|, |D|)) instead of a step
    per ancestor — second-level queries typically probe tens of
    thousands of instances with a handful of descendants.
    """
    if not ancestors or not descendants:
        return _NOTHING
    if not isinstance(ancestors, InstanceColumns):
        ancestors = InstanceColumns.from_rows(ancestors)
    starts, ends = ancestors.pre, ancestors.bound
    pres = getattr(descendants, "pre", None)
    if pres is None:
        pres = [pre for pre, _ in descendants]
    kept: list[int] = []
    candidate = position = 0
    while position < len(pres):
        pre = pres[position]
        candidate = bisect_left(starts, pre, candidate)  # first ancestor at or after it
        if candidate and ends[candidate - 1] >= pre:
            kept.append(candidate - 1)
            position = bisect_right(pres, ends[candidate - 1], position)
        elif candidate < len(starts):
            position = bisect_right(pres, starts[candidate], position)
        else:
            break
    if len(kept) == len(starts):
        return ancestors
    return InstanceColumns(
        array("q", map(starts.__getitem__, kept)), array("q", map(ends.__getitem__, kept))
    )


_NOTHING = InstanceColumns(array("q"), array("q"))
