"""Incremental index maintenance for online document mutation.

:meth:`repro.core.database.Database.insert_document` /
``delete_document`` / ``replace_document`` mutate the collection at
document granularity while queries keep running.  This module holds the
store-side half of the work: given the tree/schema deltas computed by
:meth:`~repro.xmltree.model.DataTree.graft_document` and
:func:`~repro.schema.dataguide.update_schema_for_insert` /
``update_schema_for_delete``, it rewrites exactly the touched keys of the
three stored indexes —

* ``I_struct`` / ``I_text`` node postings (one key per mutated label),
* ``I_sec`` instance postings (one key per touched class, or per touched
  term of a text class; a renumbering schema rebuild additionally moves
  every key whose class id changed),
* the tree columns (an inserted document's slice as one
  :func:`~repro.core.persist.append_tree_segment`, a deleted document's
  root in the :func:`~repro.core.persist.save_dead_roots` list)

— and nothing else.  Every rewrite first hands the key's *old decoded
value* to the ``preserve`` callback, which the database fans out to the
snapshot overlays of pinned readers (see :mod:`repro.storage.overlay`):
the writer pays the copy, readers stay wait-free.

All store writes of one mutation land inside one WAL commit frame (the
database calls ``store.commit()`` exactly once, after the last write), so
a crash at any I/O boundary rolls the whole mutation back or keeps it
whole — the crash matrix kills inside these frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import KeyNotFoundError
from ..schema.dataguide import Schema, SchemaUpdate
from ..schema.indexes import SEC_NAMESPACE, _sec_key
from ..storage.kv import Namespace, Store
from ..storage.postings import (
    InstanceColumns,
    PostingColumns,
    decode_instance_posting_columns,
    decode_node_posting_columns,
    encode_instance_postings,
    encode_node_postings,
)
from ..telemetry import collector as _telemetry
from ..xmltree.indexes import STRUCT_NAMESPACE, TEXT_NAMESPACE, stored_posting
from ..xmltree.model import DataTree

#: ``preserve(namespace_tag, key, old_decoded_value)`` — called before
#: every store write/delete with the value the key decoded to beforehand
#: (zero rows when the key did not exist)
PreserveFn = Callable[[bytes, bytes, object], None]


@dataclass(frozen=True)
class MutationReport:
    """What one document mutation did — the mutation-side counterpart of
    :class:`~repro.telemetry.report.QueryReport`.

    ``root`` is the grafted document's root pre (``None`` for a pure
    delete); ``removed_root`` the tombstoned root (``None`` for a pure
    insert).  ``generation`` is the database generation the mutation
    published — snapshots taken before it keep serving the previous one.
    """

    action: str
    generation: int
    root: "int | None" = None
    removed_root: "int | None" = None
    nodes_added: int = 0
    nodes_removed: int = 0
    classes_added: int = 0
    schema_renumbered: bool = False
    keys_rewritten: int = 0
    wall_seconds: float = 0.0

    def format(self) -> str:
        """One-line rendering for the CLI's mutation commands."""
        parts = [f"{self.action}: generation {self.generation}"]
        if self.root is not None:
            parts.append(f"root pre={self.root} (+{self.nodes_added} nodes)")
        if self.removed_root is not None:
            parts.append(f"removed pre={self.removed_root} (-{self.nodes_removed} nodes)")
        if self.classes_added:
            parts.append(f"+{self.classes_added} classes")
        if self.schema_renumbered:
            parts.append("schema renumbered")
        parts.append(f"{self.keys_rewritten} index keys rewritten")
        parts.append(f"{self.wall_seconds * 1000:.1f} ms")
        return "  ".join(parts)


def _ignore_preserve(tag: bytes, key: bytes, value: object) -> None:
    """Default ``preserve`` when no snapshot can be pinned."""


class StoreMutator:
    """Rewrites the touched keys of one mutation inside a stored database.

    One instance serves one mutation, under the database's writer lock.
    ``preserve`` receives every key's old decoded value before the key is
    written or deleted, enabling the overlay copy-on-write contract.
    """

    def __init__(self, store: Store, preserve: "PreserveFn | None" = None) -> None:
        self._store = store
        self._preserve = preserve if preserve is not None else _ignore_preserve
        self.keys_rewritten = 0

    # ------------------------------------------------------------------
    # I_struct / I_text
    # ------------------------------------------------------------------

    def update_node_postings(
        self,
        tree: DataTree,
        added: "range | None" = None,
        removed: "tuple[int, int] | None" = None,
    ) -> None:
        """Rewrite the node postings of every label a mutation touched.

        ``added`` is the grafted pre range, ``removed`` the tombstoned
        ``(root, bound)`` interval.  Removal filters the interval out of
        each affected posting; addition appends the new entries — grafted
        pres are the highest, so the postings stay pre-sorted.
        """
        gained: dict[tuple[int, str], list[int]] = {}
        for pre in added or ():
            gained.setdefault((tree.types[pre], tree.labels[pre]), []).append(pre)
        affected = set(gained)
        if removed is not None:
            span = slice(removed[0], removed[1] + 1)
            affected.update(zip(tree.types[span], tree.labels[span]))
        namespaces = (
            (Namespace(self._store, STRUCT_NAMESPACE), STRUCT_NAMESPACE),
            (Namespace(self._store, TEXT_NAMESPACE), TEXT_NAMESPACE),
        )
        for node_type, label in sorted(affected):
            namespace, tag = namespaces[node_type]
            key = label.encode("utf-8")
            posting = _old_posting(namespace, key, decode_node_posting_columns, PostingColumns)
            self._preserve(tag, key, posting)
            if removed is not None:
                posting = posting.without(*removed)
            if (node_type, label) in gained:
                posting = posting.extended(stored_posting(tree, gained[node_type, label]))
            self._write_or_delete(
                namespace, key, encode_node_postings(posting) if posting else None
            )

    # ------------------------------------------------------------------
    # I_sec
    # ------------------------------------------------------------------

    def update_secondary(self, old_schema: Schema, update: SchemaUpdate) -> None:
        """Rewrite the ``I_sec`` keys a schema update touched.

        When the update renumbered the schema, the keys of every moved
        class are dropped first (preserving their old values), then the
        touched classes' postings land under their new ids — so a swap of
        two ids cannot interleave a stale value between the phases.
        """
        namespace = Namespace(self._store, SEC_NAMESPACE)
        if update.renumbered:
            assert update.remap is not None
            for old_id, new_id in sorted(update.remap.items()):
                if old_id == new_id:
                    continue
                if old_schema.is_text_class(old_id):
                    for term in sorted(old_schema.term_instances.get(old_id, ())):
                        self._drop(namespace, _sec_key(old_id, term))
                else:
                    self._drop(namespace, _sec_key(old_id, old_schema.labels[old_id]))
        schema = update.schema
        for node in sorted(update.touched):
            posting = schema.instances[node]
            self._rewrite_sec(namespace, _sec_key(node, schema.labels[node]), posting)
        for node in sorted(update.touched_terms):
            by_term = schema.term_instances.get(node, {})
            for term in sorted(update.touched_terms[node]):
                self._rewrite_sec(namespace, _sec_key(node, term), by_term.get(term, []))

    # ------------------------------------------------------------------
    # planner statistics
    # ------------------------------------------------------------------

    def update_stats(self, stats) -> None:
        """Persist the mutated generation's planner statistics segment
        (see :mod:`repro.storage.statcodec`).

        Rides the same commit frame as the index rewrites — the caller's
        single ``store.commit()`` makes tree, indexes, and statistics
        land or roll back together, so the segment is never half a
        generation ahead of the postings it describes.  No ``preserve``
        call: snapshot overlays never read statistics (each pinned
        engine state carries its own in-memory copy)."""
        from ..storage.statcodec import STATS_KEY, STATS_NAMESPACE, encode_stats

        Namespace(self._store, STATS_NAMESPACE).put(STATS_KEY, encode_stats(stats))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _rewrite_sec(self, namespace: Namespace, key: bytes, posting: list) -> None:
        self._preserve(SEC_NAMESPACE, key, _old_sec_posting(namespace, key))
        self._write_or_delete(
            namespace, key, encode_instance_postings(posting) if posting else None
        )

    def _drop(self, namespace: Namespace, key: bytes) -> None:
        """Preserve-then-delete a stale key (missing keys are a no-op)."""
        old = _old_sec_posting(namespace, key)
        self._preserve(SEC_NAMESPACE, key, old)
        try:
            namespace.delete(key)
        except KeyNotFoundError:
            return
        self.keys_rewritten += 1
        _telemetry.count("mutation.keys_rewritten")

    def _write_or_delete(
        self, namespace: Namespace, key: bytes, encoded: "bytes | None"
    ) -> None:
        if encoded is None:
            try:
                namespace.delete(key)
            except KeyNotFoundError:
                return
        else:
            namespace.put(key, encoded)
        self.keys_rewritten += 1
        _telemetry.count("mutation.keys_rewritten")


def _old_posting(namespace: Namespace, key: bytes, decode, empty):
    """The columns ``key`` decodes to now (zero rows when it is absent)."""
    try:
        return decode(namespace.get(key))
    except KeyNotFoundError:
        return empty.from_rows([])


def _old_sec_posting(namespace: Namespace, key: bytes) -> InstanceColumns:
    return _old_posting(namespace, key, decode_instance_posting_columns, InstanceColumns)


__all__ = ["MutationReport", "PreserveFn", "StoreMutator"]
