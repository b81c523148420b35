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

from ..storage.postings import InstancePosting
from ..telemetry.collector import count as _telemetry_count
from .entries import SchemaEntry
from .indexes import SecondaryIndex


class SecondaryExecutor:
    """Executes second-level queries against ``I_sec``.

    Results are cached per skeleton node, so shared subtrees (pointer
    sets produced by ``intersect`` unions) are evaluated once; the memo
    keeps the entries alive, making identity-keying safe.  The memo
    stores each result together with its extracted ``pre`` column, so a
    child reused as the semi-join probe of several parents (and across
    the driver's repeated rounds) never re-extracts it.
    """

    def __init__(self, index: SecondaryIndex) -> None:
        self._index = index
        self._memo: dict[SchemaEntry, tuple[list[InstancePosting], list[int]]] = {}
        #: statistics: number of I_sec fetches performed
        self.fetch_count = 0

    def execute(self, entry: SchemaEntry) -> list[InstancePosting]:
        """All instances of the skeleton rooted at ``entry`` that contain
        an instance embedding of the whole skeleton (Figure 5)."""
        return self._execute(entry)[0]

    def _execute(self, entry: SchemaEntry) -> tuple[list[InstancePosting], list[int]]:
        cached = self._memo.get(entry)
        if cached is not None:
            _telemetry_count("schema.skeleton_memo_hits")
            return cached
        instances = self._index.fetch(entry.pre, entry.label)
        self.fetch_count += 1
        for child in entry.pointers:
            if not instances:
                break
            child_instances, child_pres = self._execute(child)
            instances = semi_join(instances, child_instances, child_pres)
            _telemetry_count("schema.semijoins")
        # a columnar posting (InstanceColumns) already carries its pre
        # column — borrow it instead of re-extracting it
        pres = getattr(instances, "pre", None)
        cached = (instances, pres if pres is not None else [pre for pre, _ in instances])
        self._memo[entry] = cached
        return cached


def semi_join(
    ancestors: list[InstancePosting],
    descendants: list[InstancePosting],
    descendant_pres: "list[int] | None" = None,
) -> list[InstancePosting]:
    """Keep the ancestors that contain at least one descendant.

    Both inputs are sorted by ``pre``; an ancestor ``(pre, bound)``
    qualifies iff some descendant pre lies in ``(pre, bound]``.  Because
    ancestor pres ascend, the position of the first descendant past each
    ancestor only moves forward — one pointer sweep, O(|A| + |D|),
    replacing a bisect per ancestor (nested ancestor intervals are fine:
    a skipped descendant pre is ≤ the current ancestor's pre and so can
    never qualify for any later ancestor either).  Pass the cached
    ``descendant_pres`` column to skip re-extracting it.
    """
    if not ancestors or not descendants:
        return []
    pres = descendant_pres
    if pres is None:
        pres = [pre for pre, _ in descendants]
    total = len(pres)
    result = []
    position = 0
    for pre, bound in ancestors:
        while position < total and pres[position] <= pre:
            position += 1
        if position >= total:
            break
        if pres[position] <= bound:
            result.append((pre, bound))
    return result
