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
whose word equals the label.  The index is a view of the schema's
instance columns, not a stored structure: every handle builds the schema
anyway, so a second (on-disk) copy of the same postings would only have
to be kept in step with it.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..storage.postings import InstancePosting, NodePosting
from ..telemetry.collector import current as _telemetry_current
from ..xmltree.model import NodeType
from .dataguide import Schema


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


class MemorySecondaryIndex:
    """``I_sec`` reading straight from the schema's instance columns —
    the one copy of every instance posting a handle holds, memory and
    stored alike.  A snapshot pins its generation's copy-on-write schema,
    so the index it reads is that generation's as well."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema

    def fetch(self, schema_pre: int, label: str) -> list[InstancePosting]:
        """Instances of the schema node under the ``pre#label`` key."""
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
