"""What one online document mutation did.

:meth:`repro.core.database.Database.insert_document` /
``delete_document`` / ``replace_document`` mutate the collection at
document granularity while queries keep running.  Every index is
maintained in memory, on memory and stored handles alike: the node
index by :meth:`~repro.xmltree.indexes.MemoryNodeIndexes.evolve`, the
schema (and with it ``I_sec`` and the planner statistics) by
:func:`~repro.schema.dataguide.update_schema_for_insert` /
``update_schema_for_delete``.  A stored database writes only the tree:
an inserted document's columns as one tree segment
(:func:`~repro.core.persist.append_tree_segment`, with the node count),
a deleted document's root in the dead-roots list
(:func:`~repro.core.persist.save_dead_roots`).

All store writes of one mutation land inside one commit frame of the
log (the database calls ``store.commit()`` exactly once, after the last
write), so a crash at any I/O boundary rolls the whole mutation back or
keeps it whole — the crash matrix kills inside these frames.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MutationReport:
    """What one document mutation did — the mutation-side counterpart of
    :class:`~repro.telemetry.report.QueryReport`.

    ``root`` is the grafted document's root pre (``None`` for a pure
    delete); ``removed_root`` the tombstoned root (``None`` for a pure
    insert).  ``generation`` is the database generation the mutation
    published — snapshots taken before it keep serving the previous one.
    ``labels`` are the written documents' ``(node type, label)`` pairs,
    struct and text: the result caches carried every cached answer
    whose root labels or leaf labels they miss as it is, and marked the
    others for repair (a sharded merge level drops them).
    ``keys_rewritten`` counts the store keys the mutation's commit frame
    wrote: the tree segment and the node count of an inserted document,
    the dead-roots list of a deleted one (0 for a memory database).
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
        parts.append(f"{self.keys_rewritten} store keys written")
        parts.append(f"{self.wall_seconds * 1000:.1f} ms")
        return "  ".join(parts)


__all__ = ["MutationReport"]
