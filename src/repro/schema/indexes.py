"""Schema-side indexes: label indexes over the schema, and the secondary
index ``I_sec`` with its path-dependent postings (Section 7.3).

``SchemaNodeIndexes`` plays the role of ``I_struct``/``I_text`` for the
top-k run of algorithm ``primary`` over the schema: it maps a label to
the posting of *schema* nodes (struct classes with that label; text
classes containing that term).

``I_sec`` maps a key built from a second-level query node — the schema
node's preorder number concatenated with the query node's label,
``pre(u)#label(u)`` — to the sorted posting of the node's instances as
``(pre, bound)`` pairs.  For struct classes the label is redundant (one
class, one label) but for compacted text classes it selects the instances
whose word equals the label.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..errors import KeyNotFoundError
from ..storage.cache import PostingCache
from ..storage.kv import Namespace, Store
from ..storage.overlay import MISSING, current_overlay
from ..storage.postings import (
    InstancePosting,
    NodePosting,
    decode_instance_posting_columns,
    encode_instance_postings,
)
from ..telemetry.collector import current as _telemetry_current
from ..xmltree.model import NodeType
from .dataguide import Schema

SEC_NAMESPACE = b"Isec"


class SchemaNodeIndexes:
    """In-memory ``I_struct``/``I_text`` over the schema tree.

    Postings are assembled from the schema's (re-encodable) arrays on
    fetch, so per-query insert-cost tables are picked up automatically.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._struct: dict[str, list[int]] = {}
        self._text: dict[str, list[int]] = {}
        self._derived: dict = {}
        # classes whose every instance was deleted are skipped: they stay
        # in the schema tree (numbering stability) but can never produce
        # a match, and every ancestor of a live node is live because
        # deletion is whole-document
        for node in range(len(schema)):
            if schema.is_text_class(node):
                for term in schema.term_instances.get(node, ()):
                    self._text.setdefault(term, []).append(node)
            elif schema.instances[node]:
                self._struct.setdefault(schema.labels[node], []).append(node)

    def fetch(self, label: str, node_type: NodeType) -> list[NodePosting]:
        """Posting of schema nodes carrying ``label`` (struct classes
        with that name; text classes containing that term)."""
        table = self._struct if node_type == NodeType.STRUCT else self._text
        nodes = table.get(label)
        telemetry = _telemetry_current()
        if telemetry is not None:
            telemetry.count("index.schema_fetches")
            telemetry.count("index.schema_postings", len(nodes) if nodes else 0)
        if not nodes:
            return []
        schema = self._schema
        return [
            (node, schema.bounds[node], schema.pathcosts[node], schema.inscosts[node])
            for node in nodes
        ]

    def fetch_derived(self, label: str, node_type: NodeType, variant, build):
        """A value derived from the posting of ``label`` — the top-k
        evaluators' fetched entry lists — cached across queries and
        tagged with the schema's insert-cost fingerprint, exactly like
        :meth:`repro.xmltree.indexes.MemoryNodeIndexes.fetch_derived`
        (including the snapshot-before-fetch ordering and the
        caching-disabled behavior of a ``None`` fingerprint).  Cached
        values are shared objects: callers must treat them as immutable.
        """
        fingerprint = self._schema.insert_cost_fingerprint
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
        """Every label present in the schema index for ``node_type``."""
        table = self._struct if node_type == NodeType.STRUCT else self._text
        return iter(table)

    def posting_size(self, label: str, node_type: NodeType) -> int:
        """Number of schema nodes in the posting of ``label``."""
        table = self._struct if node_type == NodeType.STRUCT else self._text
        return len(table.get(label, ()))


class SecondaryIndex:
    """Interface of ``I_sec``: path-dependent instance postings."""

    def fetch(self, schema_pre: int, label: str) -> list[InstancePosting]:
        """Instances of the schema node under the ``pre#label`` key."""
        raise NotImplementedError


class MemorySecondaryIndex(SecondaryIndex):
    """``I_sec`` reading straight from the schema's instance tables."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema

    def fetch(self, schema_pre: int, label: str) -> list[InstancePosting]:
        schema = self._schema
        if schema_pre >= len(schema):
            posting: list[InstancePosting] = []
        elif schema.is_text_class(schema_pre):
            posting = schema.term_instances.get(schema_pre, {}).get(label, [])
        elif schema.labels[schema_pre] != label:
            posting = []
        else:
            posting = schema.instances[schema_pre]
        telemetry = _telemetry_current()
        if telemetry is not None:
            telemetry.count("index.sec_fetches")
            telemetry.count("index.sec_postings", len(posting))
        return posting


class StoredSecondaryIndex(SecondaryIndex):
    """``I_sec`` persisted in a key-value store under ``pre#label`` keys.

    Accepts the same shared :class:`~repro.storage.cache.PostingCache`
    as the stored node indexes: the best-*n* driver re-fetches the same
    ``pre#label`` postings across rounds and across queries, and the
    cache (generation-invalidated on any store write) hands back the
    already-decoded lists.
    """

    def __init__(self, store: Store, posting_cache: "PostingCache | None" = None) -> None:
        self._store = store
        self._namespace = Namespace(store, SEC_NAMESPACE)
        self._cache = posting_cache

    @classmethod
    def build(cls, schema: Schema, store: Store) -> "StoredSecondaryIndex":
        index = cls(store)
        for node in range(len(schema)):
            if schema.is_text_class(node):
                for term, posting in schema.term_instances.get(node, {}).items():
                    index._namespace.put(_sec_key(node, term), encode_instance_postings(posting))
            else:
                index._namespace.put(
                    _sec_key(node, schema.labels[node]),
                    encode_instance_postings(schema.instances[node]),
                )
        return index

    def fetch(self, schema_pre: int, label: str) -> list[InstancePosting]:
        telemetry = _telemetry_current()
        key = _sec_key(schema_pre, label)
        # snapshot overlay outranks cache and store (see
        # StoredNodeIndexes.fetch for the contract)
        overlay = current_overlay()
        if overlay is not None:
            pinned = overlay.get(SEC_NAMESPACE, key)
            if pinned is not MISSING:
                if telemetry is not None:
                    telemetry.count("index.sec_fetches")
                    telemetry.count("index.sec_postings", len(pinned))
                    telemetry.count("mutation.overlay_hits")
                return pinned
        cache = self._cache
        # Generation snapshot *before* the store read — a racing writer
        # then invalidates the entry we insert instead of being masked by
        # it (same ordering contract as StoredNodeIndexes.fetch).
        generation = self._store.generation
        if cache is not None:
            posting = cache.get(SEC_NAMESPACE, key, generation)
            if posting is not None:
                if telemetry is not None:
                    telemetry.count("index.sec_fetches")
                    telemetry.count("index.sec_postings", len(posting))
                return posting
        try:
            data = self._namespace.get(key)
        except KeyNotFoundError:
            if telemetry is not None:
                telemetry.count("index.sec_fetches")
                telemetry.count("index.sec_postings", 0)
            return []
        # columnar decode: the pre/bound buffers feed semi-joins without
        # per-row re-gathering
        posting = decode_instance_posting_columns(data)
        if cache is not None:
            cache.put(SEC_NAMESPACE, key, generation, posting)
        if telemetry is not None:
            telemetry.count("index.sec_fetches")
            telemetry.count("index.sec_postings", len(posting))
        return posting


def _sec_key(schema_pre: int, label: str) -> bytes:
    return f"{schema_pre}#{label}".encode("utf-8")
