"""The inverted indexes ``I_struct`` and ``I_text`` of Section 6.2.

Both indexes map a label to the posting of all data nodes carrying that
label; a posting entry holds the four numbers of the encoding —
``(pre, bound, pathcost, inscost)`` — sorted by ``pre``.

Two implementations share one interface:

* :class:`MemoryNodeIndexes` keeps one flat ``array('q')`` of pres per
  label and assembles posting tuples from the (possibly re-encoded) tree
  columns on fetch;
* :class:`StoredNodeIndexes` serializes complete postings into two
  namespaces of a key-value store (the Berkeley-DB shape the paper uses)
  and reads them back without touching the tree.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import chain, compress

from ..errors import KeyNotFoundError, SchemaError
from ..storage.cache import PostingCache
from ..storage.kv import Namespace, Store
from ..storage.postings import (
    NodePosting,
    PostingColumns,
    column_bytes,
    decode_node_posting_columns,
    encode_node_postings,
)
from ..telemetry.collector import current as _telemetry_current
from .model import DataTree, NodeType

STRUCT_NAMESPACE = b"Istruct"
TEXT_NAMESPACE = b"Itext"
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
        :class:`MemoryNodeIndexes` (insert-cost-fingerprint tagging) and
        :class:`StoredNodeIndexes` (store-generation tagging through the
        shared :class:`~repro.storage.cache.PostingCache`).  Cached
        values are shared objects: callers must treat them as immutable,
        exactly like cached postings.
        """
        return build(self.fetch(label, node_type))

    def labels(self, node_type: NodeType) -> Iterator[str]:
        """All labels present in the index for ``node_type``."""
        raise NotImplementedError

    def posting_size(self, label: str, node_type: NodeType) -> int:
        """Number of nodes carrying ``label`` (the selectivity *s* input)."""
        return len(self.fetch(label, node_type))

    def resident_bytes(self) -> int:
        """Bytes of per-node data the index keeps in memory (none when
        the postings live in a store)."""
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
            spans = [range(1)] + [range(root, bounds[root] + 1) for root in documents]
            if labels is not None:
                wanted = labels.__contains__
                spans = [
                    compress(span, map(wanted, tree_labels[span.start : span.stop]))
                    for span in spans
                ]
            rows = ((pre, types[pre], tree_labels[pre]) for pre in chain.from_iterable(spans))
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

        The fingerprint is snapshotted *before* assembling the posting
        (the same ordering contract as the stored indexes' generation
        snapshot), so a re-encode racing the build leaves an entry that
        the next lookup rejects instead of one that masks the re-encode.
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


class StoredNodeIndexes(NodeIndexes):
    """Indexes persisted in a key-value store.

    The serialized postings bake in the ``pathcost``/``inscost`` values of
    the insert-cost table in force at build time; evaluating with a
    different insert-cost table requires rebuilding (callers check the
    tree's :attr:`~repro.xmltree.model.DataTree.insert_cost_fingerprint`).

    An optional shared :class:`~repro.storage.cache.PostingCache` keeps
    decoded postings across fetches (and across queries); entries are
    invalidated by the store's generation counter on any write, so a
    re-indexed document is never served from stale decoded state.

    A stored database gives every engine state its own instance.  Before
    a mutation's first store write the writer calls :meth:`retire` on the
    superseded state's instance: from then on it answers from a
    :class:`MemoryNodeIndexes` over that state's frozen document tuple,
    built on the first read that needs it — a write no reader is behind
    builds nothing.
    """

    def __init__(self, store: Store, posting_cache: "PostingCache | None" = None) -> None:
        self._store = store
        self._struct = Namespace(store, STRUCT_NAMESPACE)
        self._text = Namespace(store, TEXT_NAMESPACE)
        self._cache = posting_cache
        #: the ``(tree, documents)`` a retired instance answers from, and
        #: the memory view over it once a read has built it
        self._retired: "tuple[DataTree, tuple[int, ...]] | None" = None
        self._frozen: "MemoryNodeIndexes | None" = None
        self._lock = threading.Lock()

    @classmethod
    def build(cls, tree: DataTree, store: Store) -> "StoredNodeIndexes":
        """Serialize the indexes of ``tree`` into ``store``."""
        memory = MemoryNodeIndexes(tree)
        indexes = cls(store)
        for table, namespace in zip(memory._by_type, (indexes._struct, indexes._text)):
            for label, pres in table.items():
                namespace.put(
                    _label_key(label), encode_node_postings(stored_posting(tree, pres))
                )
        return indexes

    def retire(self, tree: DataTree, documents: "tuple[int, ...]") -> None:
        """Stop reading the store: the writer is about to change it.
        ``documents`` are the live roots of the state this instance
        serves; later reads answer from them over ``tree``."""
        self._retired = (tree, documents)

    def _frozen_view(self) -> MemoryNodeIndexes:
        if self._frozen is None:
            with self._lock:
                if self._frozen is None:
                    self._frozen = MemoryNodeIndexes(*self._retired)
        return self._frozen

    def fetch(self, label: str, node_type: NodeType) -> list[NodePosting]:
        if self._retired is not None:
            return self._frozen_view().fetch(label, node_type)
        if node_type == NodeType.STRUCT:
            namespace, tag = self._struct, STRUCT_NAMESPACE
        else:
            namespace, tag = self._text, TEXT_NAMESPACE
        key = _label_key(label)
        cache = self._cache
        # Snapshot the generation *before* reading: if a writer lands
        # between the read and the cache insert, the entry carries the
        # pre-write generation and the next lookup discards it.  Reading
        # the generation again at put time would stamp possibly-old bytes
        # with the new generation — permanently stale.
        generation = self._store.generation
        posting = cache.get(tag, key, generation) if cache is not None else None
        fresh = posting is None
        if fresh:
            try:
                # columnar decode: flat array('q') buffers the evaluation
                # kernel borrows zero-copy (rows still read as tuples
                # everywhere else)
                posting = decode_node_posting_columns(namespace.get(key))
            except KeyNotFoundError:
                posting, fresh = [], False
        if self._retired is not None:
            # retired while reading: what was read may postdate the write
            return self._frozen_view().fetch(label, node_type)
        if fresh and cache is not None:
            cache.put(tag, key, generation, posting)
        telemetry = _telemetry_current()
        if telemetry is not None:
            telemetry.count("index.data_fetches")
            telemetry.count("index.data_postings", len(posting))
        return posting

    def fetch_derived(self, label: str, node_type: NodeType, variant, build):
        """Derived-value cache layered on the shared
        :class:`~repro.storage.cache.PostingCache`: values are tagged
        with the store generation snapshotted *before* the posting read
        (the invalidation ordering documented on :meth:`fetch`), so any
        write to the store lazily drops cached columns exactly like it
        drops cached postings.  A retired instance keeps its derived
        values in its frozen view, out of the shared cache."""
        if self._retired is not None:
            return self._frozen_view().fetch_derived(label, node_type, variant, build)
        cache = self._cache
        if cache is None:
            return build(self.fetch(label, node_type))
        tag = STRUCT_NAMESPACE if node_type == NodeType.STRUCT else TEXT_NAMESPACE
        key = _label_key(label) + (b"\x01" if variant else b"\x00")
        generation = self._store.generation
        value = cache.get_derived(tag, key, generation)
        if value is not None:
            if self._retired is None:
                return value
            # retired while looking up: the entry may postdate the write
            return self._frozen_view().fetch_derived(label, node_type, variant, build)
        posting = self.fetch(label, node_type)
        value = build(posting)
        if self._retired is None:
            cache.put_derived(tag, key, generation, value, len(posting))
        return value

    def labels(self, node_type: NodeType) -> Iterator[str]:
        namespace = self._struct if node_type == NodeType.STRUCT else self._text
        for key, _ in namespace.scan():
            yield key.decode("utf-8")


def _label_key(label: str) -> bytes:
    return label.encode("utf-8")


def stored_posting(tree: DataTree, pres) -> PostingColumns:
    """The ``(pre, bound, pathcost, inscost)`` posting of the nodes
    ``pres`` as the stored indexes keep it: four integer columns gathered
    from the tree's.  The varint codecs need integers, so fractional
    costs are rejected loudly."""
    columns = [array("q", pres), array("q", map(tree.bounds.__getitem__, pres))]
    for name in ("pathcosts", "inscosts"):
        costs = array("d", map(getattr(tree, name).__getitem__, pres))
        if not all(map(float.is_integer, costs)):
            raise SchemaError(
                "stored indexes require integer insert costs; "
                f"got {name} {next(cost for cost in costs if not cost.is_integer())}"
            )
        columns.append(array("q", map(int, costs)))
    return PostingColumns(*columns)
