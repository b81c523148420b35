"""Collection statistics the cost-based planner decides from.

A :class:`CollectionStats` freezes, for one generation of a collection,
the quantities the planner's estimates are phrased in: per-label and
per-term posting lengths (the selectivity *s* of Section 6.5, label by
label).  The planner (:mod:`repro.planner.cost`) turns them into
direct-vs-schema cost estimates per query.

Statistics are computed once per generation — read off the schema the
first time a built or opened handle plans
(:meth:`CollectionStats.from_schema`: every number is a sum over its
instance columns, so no collection walk), incrementally on every
document mutation (:meth:`CollectionStats.apply_mutation`), and
additively across shards (:func:`merge_stats`).  They are not stored.
Generation bumps invalidate them exactly like the posting cache: every
:class:`~repro.core.database._EngineState` carries the stats of *its*
generation and never a newer one.

This module is descriptive-statistics-free on purpose: the existing
:mod:`repro.xmltree.stats` answers "what regime is this workload in"
for experiment reports; this one answers "which algorithm should this
query run" and therefore keeps only merge-exact, incrementally
maintainable quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..schema.dataguide import Schema
from ..xmltree.model import ROOT_LABEL, DataTree, NodeType


@dataclass
class CollectionStats:
    """The planner's view of one generation of a collection.

    ``struct_sizes`` / ``text_sizes`` hold the *live* posting length per
    element label / term — exactly what
    :meth:`~repro.xmltree.indexes.NodeIndexes.posting_size` reports, so
    estimates derived from them match what an evaluation will fetch.
    """

    generation: int = 0
    struct_sizes: dict[str, int] = field(default_factory=dict)
    text_sizes: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def posting_size(self, label: str, node_type: NodeType) -> int:
        """Live posting length of ``label`` (0 when absent)."""
        sizes = self.struct_sizes if node_type == NodeType.STRUCT else self.text_sizes
        return sizes.get(label, 0)

    # ------------------------------------------------------------------
    # construction and incremental maintenance
    # ------------------------------------------------------------------

    @classmethod
    def from_schema(cls, schema: Schema, generation: int = 0) -> "CollectionStats":
        """The statistics of a collection, read off its schema in one
        pass over the classes: a label's posting length is the summed
        instance count of its struct classes, a term's the summed run
        lengths of the text classes containing it.  Only live nodes are
        instances, so only they are counted."""
        struct_sizes: dict[str, int] = {}
        text_sizes: dict[str, int] = {}
        for node in range(len(schema)):
            count = schema.instance_count(node)
            if not count:
                continue
            terms = schema.term_instances.get(node)
            if terms is None:
                _bump(struct_sizes, schema.labels[node], count)
                continue
            offsets = terms.offsets
            for index, term in enumerate(terms.terms):
                _bump(text_sizes, term, offsets[index + 1] - offsets[index])
        return cls(
            generation=generation, struct_sizes=struct_sizes, text_sizes=text_sizes
        )

    def apply_mutation(
        self,
        tree: DataTree,
        added: "range | None",
        removed: "tuple[int, int] | None",
        generation: int,
    ) -> "CollectionStats":
        """Statistics after one document mutation, without a collection
        walk.

        ``added`` is the grafted pre range, ``removed`` the tombstoned
        ``(root, bound)`` interval — the same deltas the index
        maintenance consumes; the tombstoned nodes' columns are still in
        the arrays, so both directions read labels directly.  The result
        must equal :meth:`from_schema` on the mutated schema (the
        round-trip property tests pin this); at a fraction of a
        millisecond it is far cheaper than re-reading every class.
        """
        struct_sizes = dict(self.struct_sizes)
        text_sizes = dict(self.text_sizes)
        if removed is not None:
            root, bound = removed
            for pre in range(root, bound + 1):
                _bump(_sizes_for(tree.types[pre], struct_sizes, text_sizes),
                      tree.labels[pre], -1)
        if added is not None:
            for pre in added:
                _bump(_sizes_for(tree.types[pre], struct_sizes, text_sizes),
                      tree.labels[pre], 1)
        return CollectionStats(
            generation=generation, struct_sizes=struct_sizes, text_sizes=text_sizes
        )


def merge_stats(
    per_shard: "list[CollectionStats]", generation: int = 0
) -> CollectionStats:
    """Statistics of the union collection behind N shards.

    Posting lengths are additive across shards *except* the super-root,
    which each shard duplicates: its ``#root`` posting is collapsed back
    to one so the merged numbers equal the unsharded collection's (the
    shard/single-store plan-agreement test pins this).
    """
    struct_sizes: dict[str, int] = {}
    text_sizes: dict[str, int] = {}
    for stats in per_shard:
        for label, size in stats.struct_sizes.items():
            _bump(struct_sizes, label, size)
        for label, size in stats.text_sizes.items():
            _bump(text_sizes, label, size)
    if ROOT_LABEL in struct_sizes:
        struct_sizes[ROOT_LABEL] = 1
    return CollectionStats(
        generation=generation, struct_sizes=struct_sizes, text_sizes=text_sizes
    )


def _sizes_for(
    node_type: NodeType, struct_sizes: dict[str, int], text_sizes: dict[str, int]
) -> dict[str, int]:
    return struct_sizes if node_type == NodeType.STRUCT else text_sizes


def _bump(counts: dict, key, delta: int) -> None:
    """Adjust a count, dropping the key at zero so incrementally
    maintained dicts compare equal to freshly computed ones."""
    value = counts.get(key, 0) + delta
    if value:
        counts[key] = value
    else:
        counts.pop(key, None)


__all__ = ["CollectionStats", "merge_stats"]
