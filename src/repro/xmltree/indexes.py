"""The inverted indexes ``I_struct`` and ``I_text`` of Section 6.2.

Both indexes map a label to the posting of all data nodes carrying that
label; a posting entry holds the four numbers of the encoding —
``(pre, bound, pathcost, inscost)`` — sorted by ``pre``.

:class:`MemoryNodeIndexes` keeps one flat ``array('q')`` of pres per
label and assembles posting tuples from the (possibly re-encoded) tree
columns on fetch.  Every handle uses it, stored ones included: a stored
database holds its whole tree in memory, so the paper's Berkeley-DB
copy of the postings would only be a second, encoded copy of it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import chain, compress

from ..storage.postings import NodePosting, column_bytes
from ..telemetry.collector import current as _telemetry_current
from .model import DataTree, NodeType

_NO_PRES = array("q")


class NodeIndexes:
    """Interface of the ``I_struct`` / ``I_text`` pair."""

    def fetch(self, label: str, node_type: NodeType) -> list[NodePosting]:
        """Posting of ``label`` in the index for ``node_type``; empty if
        the label never occurs."""
        raise NotImplementedError

    def fetch_derived(self, label: str, node_type: NodeType, variant, build):
        """A value derived from the posting of ``label`` — in practice
        the evaluation kernel's columnar build — cached across queries
        where the implementation can prove freshness.

        ``build`` receives the posting list and returns the derived
        value; ``variant`` distinguishes derivations of the same posting
        (the kernel's leaf/non-leaf fetch tracks).  The base
        implementation performs no caching; see
        :class:`MemoryNodeIndexes` (insert-cost-fingerprint tagging).
        Cached values are shared objects: callers must treat them as
        immutable, exactly like postings.
        """
        return build(self.fetch(label, node_type))

    def labels(self, node_type: NodeType) -> Iterator[str]:
        """All labels present in the index for ``node_type``."""
        raise NotImplementedError

    def posting_size(self, label: str, node_type: NodeType) -> int:
        """Number of nodes carrying ``label`` (the selectivity *s* input)."""
        return len(self.fetch(label, node_type))

    def resident_bytes(self) -> int:
        """Bytes of per-node data the index keeps in memory."""
        return 0


class MemoryNodeIndexes(NodeIndexes):
    """In-memory indexes over a live :class:`DataTree`.

    Postings are assembled on fetch from the tree's current arrays, so a
    re-encoding with different insert costs is picked up automatically.

    ``documents`` restricts the index to the super-root plus those
    document roots' subtrees — a frozen view of a tree that has since
    grown or tombstoned documents; ``None`` indexes every live node.
    ``labels`` further restricts a ``documents`` index to the nodes
    carrying one of them: a C-level filter picks those nodes, so an
    index that one query's labels suffice for (a cached answer's repair,
    ``DESIGN.md`` §8) walks only its matches in Python.
    """

    def __init__(
        self,
        tree: DataTree,
        documents: "tuple[int, ...] | None" = None,
        labels: "frozenset[str] | None" = None,
    ) -> None:
        self._tree = tree
        #: per node type: label -> ascending pres, one flat buffer each
        self._by_type: tuple[dict[str, array], dict[str, array]] = ({}, {})
        self._derived: dict = {}
        if documents is None:
            # tombstoned documents are holes in the preorder: their nodes
            # stay in the arrays but must never appear in a posting
            rows = zip(range(len(tree)), tree.types, tree.labels)
            if tree.dead_roots:
                rows = compress(rows, tree.live_flags())
        else:
            bounds, types, tree_labels = tree.bounds, tree.types, tree.labels

            def run(start: int, stop: int):
                # one document's slices at a time: slicing every span up
                # front would copy the whole label column
                nodes = zip(range(start, stop), types[start:stop], tree_labels[start:stop])
                if labels is None:
                    return nodes
                return compress(nodes, map(labels.__contains__, tree_labels[start:stop]))

            spans = [(0, 1)] + [(root, bounds[root] + 1) for root in documents]
            rows = chain.from_iterable(run(*span) for span in spans)
        for pre, node_type, label in rows:
            table = self._by_type[node_type]
            column = table.get(label)
            if column is None:
                column = table[label] = array("q")
            column.append(pre)

    def fetch(self, label: str, node_type: NodeType) -> list[NodePosting]:
        pres = self._by_type[node_type].get(label)
        telemetry = _telemetry_current()
        if telemetry is not None:
            telemetry.count("index.data_fetches")
            telemetry.count("index.data_postings", len(pres) if pres else 0)
        if not pres:
            return []
        tree = self._tree
        bounds = tree.bounds
        pathcosts = tree.pathcosts
        inscosts = tree.inscosts
        return [(pre, bounds[pre], pathcosts[pre], inscosts[pre]) for pre in pres]

    def fetch_derived(self, label: str, node_type: NodeType, variant, build):
        """Derived-value cache tagged with the tree's insert-cost
        fingerprint: re-encoding the tree under a different cost table
        changes the fingerprint and lazily drops every cached value.

        The fingerprint is snapshotted *before* assembling the posting,
        so a re-encode racing the build leaves an entry that the next
        lookup rejects instead of one that masks the re-encode.
        A ``None`` fingerprint means costs were never encoded (or were
        encoded unfingerprinted) and disables caching.
        """
        fingerprint = self._tree.insert_cost_fingerprint
        key = (label, node_type, variant)
        cached = self._derived.get(key)
        if cached is not None and fingerprint is not None and cached[0] == fingerprint:
            telemetry = _telemetry_current()
            if telemetry is not None:
                telemetry.count("kernel.column_cache_hits")
            return cached[1]
        value = build(self.fetch(label, node_type))
        telemetry = _telemetry_current()
        if telemetry is not None:
            telemetry.count("kernel.column_cache_misses")
        if fingerprint is not None:
            self._derived[key] = (fingerprint, value)
        return value

    def labels(self, node_type: NodeType) -> Iterator[str]:
        return iter(self._by_type[node_type])

    def posting_size(self, label: str, node_type: NodeType) -> int:
        return len(self._by_type[node_type].get(label, ()))

    def resident_bytes(self) -> int:
        return column_bytes(*(pres for table in self._by_type for pres in table.values()))

    @classmethod
    def evolve(
        cls,
        old: "MemoryNodeIndexes",
        tree: DataTree,
        added: "range | None" = None,
        removed: "tuple[int, int] | None" = None,
    ) -> "MemoryNodeIndexes":
        """Copy-on-write successor of ``old`` after a document mutation.

        ``added`` is the pre range of a grafted document, ``removed`` the
        ``(root, bound)`` interval of a tombstoned one (both for a
        replace).  Only the label lists a mutation touches are copied;
        everything else is shared with ``old``, whose pinned readers keep
        their consistent pre-mutation view.  Removal before addition
        keeps every list pre-sorted (grafted pres are the highest).
        """
        new = cls.__new__(cls)
        new._tree = tree
        new._derived = {}
        tables = new._by_type = (dict(old._by_type[0]), dict(old._by_type[1]))
        if removed is not None:
            root, bound = removed
            affected = set(zip(tree.types[root : bound + 1], tree.labels[root : bound + 1]))
            for node_type, label in affected:
                table = tables[node_type]
                column = table[label]
                # a document is one contiguous run of every label's buffer
                start, stop = bisect_left(column, root), bisect_right(column, bound)
                if stop - start < len(column):
                    table[label] = column[:start] + column[stop:]
                else:
                    del table[label]
        if added is not None:
            gained: dict[tuple[int, str], list[int]] = {}
            for pre in added:
                gained.setdefault((tree.types[pre], tree.labels[pre]), []).append(pre)
            for (node_type, label), pres in gained.items():
                table = tables[node_type]
                table[label] = table.get(label, _NO_PRES) + array("q", pres)
        return new
