"""Incremental index maintenance for online document mutation.

:meth:`repro.core.database.Database.insert_document` /
``delete_document`` / ``replace_document`` mutate the collection at
document granularity while queries keep running.  This module holds the
store-side half of the work: given the tree/schema deltas computed by
:meth:`~repro.xmltree.model.DataTree.graft_document` and
:func:`~repro.schema.dataguide.update_schema_for_insert` /
``update_schema_for_delete``, it rewrites exactly the touched keys of the
stored structures —

* ``I_struct`` / ``I_text`` node postings (one key per mutated label, plus
  the super-root's ``#root`` key, whose bound an insert grows),
* the tree columns (an inserted document's slice as one
  :func:`~repro.core.persist.append_tree_segment`, a deleted document's
  root in the :func:`~repro.core.persist.save_dead_roots` list)

— and nothing else.  ``I_sec`` and the planner statistics are not
stored: the schema every handle keeps in memory holds the instance
postings, and the statistics are read off it.  Readers still pinned to
the superseded state never see these writes: the database retires that
state's :class:`~repro.xmltree.indexes.StoredNodeIndexes` before the
first one lands.

All store writes of one mutation land inside one WAL commit frame (the
database calls ``store.commit()`` exactly once, after the last write), so
a crash at any I/O boundary rolls the whole mutation back or keeps it
whole — the crash matrix kills inside these frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import KeyNotFoundError
from ..storage.kv import Namespace, Store
from ..storage.postings import (
    PostingColumns,
    decode_node_posting_columns,
    encode_node_postings,
)
from ..telemetry import collector as _telemetry
from ..xmltree.indexes import STRUCT_NAMESPACE, TEXT_NAMESPACE, stored_posting
from ..xmltree.model import ROOT_LABEL, DataTree, NodeType

#: the ``I_struct`` key of the super-root, the one node whose bound a
#: graft moves
_SUPER_ROOT = (NodeType.STRUCT, ROOT_LABEL)


@dataclass(frozen=True)
class MutationReport:
    """What one document mutation did — the mutation-side counterpart of
    :class:`~repro.telemetry.report.QueryReport`.

    ``root`` is the grafted document's root pre (``None`` for a pure
    delete); ``removed_root`` the tombstoned root (``None`` for a pure
    insert).  ``generation`` is the database generation the mutation
    published — snapshots taken before it keep serving the previous one.
    ``labels`` are the written documents' struct labels and ``#root``:
    the result caches dropped the answers whose root labels meet them.
    """

    action: str
    generation: int
    root: "int | None" = None
    removed_root: "int | None" = None
    nodes_added: int = 0
    nodes_removed: int = 0
    classes_added: int = 0
    keys_rewritten: int = 0
    wall_seconds: float = 0.0
    labels: frozenset = frozenset()

    @property
    def schema_renumbered(self) -> bool:
        """Whether the mutation added classes: the schema was then
        rebuilt, which may renumber it."""
        return self.classes_added > 0

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


class StoreMutator:
    """Rewrites the touched keys of one mutation inside a stored database.

    One instance serves one mutation, under the database's writer lock.
    """

    def __init__(self, store: Store) -> None:
        self._store = store
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
        pres are the highest, so the postings stay pre-sorted — and
        rewrites the super-root's one-row posting with its grown bound.
        """
        gained: dict[tuple[int, str], list[int]] = {}
        for pre in added or ():
            gained.setdefault((tree.types[pre], tree.labels[pre]), []).append(pre)
        affected = set(gained)
        if added is not None:
            affected.add(_SUPER_ROOT)
        if removed is not None:
            span = slice(removed[0], removed[1] + 1)
            affected.update(zip(tree.types[span], tree.labels[span]))
        namespaces = (
            Namespace(self._store, STRUCT_NAMESPACE),
            Namespace(self._store, TEXT_NAMESPACE),
        )
        for node_type, label in sorted(affected):
            namespace = namespaces[node_type]
            key = label.encode("utf-8")
            posting = _old_posting(namespace, key)
            if (node_type, label) == _SUPER_ROOT:
                posting = stored_posting(tree, [0])
            if removed is not None:
                posting = posting.without(*removed)
            if (node_type, label) in gained:
                posting = posting.extended(stored_posting(tree, gained[node_type, label]))
            self._write_or_delete(
                namespace, key, encode_node_postings(posting) if posting else None
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

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


def _old_posting(namespace: Namespace, key: bytes) -> PostingColumns:
    """The columns ``key`` decodes to now (zero rows when it is absent)."""
    try:
        return decode_node_posting_columns(namespace.get(key))
    except KeyNotFoundError:
        return PostingColumns.from_rows([])


__all__ = ["MutationReport", "StoreMutator"]
