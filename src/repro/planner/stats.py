"""Collection statistics the cost-based planner decides from.

A :class:`CollectionStats` freezes, for one generation of a collection,
the quantities the paper's complexity bounds are phrased in: per-label
and per-term posting lengths (the selectivity *s* of Section 6.5, label
by label), DataGuide size and fan-out (the schema-side *s_s* of Section
7.4), and the document count / depth histogram that scale everything
else.  The planner (:mod:`repro.planner.cost`) turns them into
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
    ``schema_classes`` / ``schema_max_fanout`` describe the DataGuide;
    the depth histogram counts live nodes per depth (super-root at 0).
    """

    generation: int = 0
    node_count: int = 0
    live_node_count: int = 0
    document_count: int = 0
    max_depth: int = 0
    schema_classes: int = 0
    schema_max_fanout: int = 0
    depth_histogram: dict[int, int] = field(default_factory=dict)
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
    def from_schema(
        cls, tree: DataTree, schema: Schema, generation: int = 0
    ) -> "CollectionStats":
        """The statistics of a collection, read off its schema in one
        pass over the classes: a label's posting length is the summed
        instance count of its struct classes, a term's the summed run
        lengths of the text classes containing it, and a depth's node
        count the summed instance counts of the classes at that depth.
        Only live nodes are instances, so only they are counted."""
        struct_sizes: dict[str, int] = {}
        text_sizes: dict[str, int] = {}
        histogram: dict[int, int] = {}
        depths = [0] * len(schema)
        for node in range(1, len(schema)):  # preorder: parents come first
            depths[node] = depths[schema.parents[node]] + 1
        for node in range(len(schema)):
            count = schema.instance_count(node)
            if not count:
                continue
            _bump(histogram, depths[node], count)
            terms = schema.term_instances.get(node)
            if terms is None:
                _bump(struct_sizes, schema.labels[node], count)
                continue
            offsets = terms.offsets
            for index, term in enumerate(terms.terms):
                _bump(text_sizes, term, offsets[index + 1] - offsets[index])
        classes, fanout = _schema_shape(schema)
        return cls(
            generation=generation,
            node_count=len(tree),
            live_node_count=tree.live_node_count,
            document_count=len(tree.document_roots()),
            max_depth=max(histogram, default=0),
            schema_classes=classes,
            schema_max_fanout=fanout,
            depth_histogram=histogram,
            struct_sizes=struct_sizes,
            text_sizes=text_sizes,
        )

    def apply_mutation(
        self,
        tree: DataTree,
        added: "range | None",
        removed: "tuple[int, int] | None",
        schema: Schema,
        generation: int,
    ) -> "CollectionStats":
        """Statistics after one document mutation, without a collection
        walk.

        ``added`` is the grafted pre range, ``removed`` the tombstoned
        ``(root, bound)`` interval — the same deltas the index
        maintenance consumes; the tombstoned nodes' columns are still in
        the arrays, so both directions read labels and depths directly.
        The result must equal :meth:`from_schema` on the mutated schema
        (the round-trip property tests pin this); at a fraction of a
        millisecond it is far cheaper than re-reading every class.
        """
        struct_sizes = dict(self.struct_sizes)
        text_sizes = dict(self.text_sizes)
        histogram = dict(self.depth_histogram)
        documents = self.document_count
        if removed is not None:
            root, bound = removed
            for pre in range(root, bound + 1):
                _bump(_sizes_for(tree.types[pre], struct_sizes, text_sizes),
                      tree.labels[pre], -1)
                _bump(histogram, tree.depth(pre), -1)
            documents -= 1
        if added is not None:
            for pre in added:
                _bump(_sizes_for(tree.types[pre], struct_sizes, text_sizes),
                      tree.labels[pre], 1)
                _bump(histogram, tree.depth(pre), 1)
            documents += 1
        classes, fanout = _schema_shape(schema)
        return CollectionStats(
            generation=generation,
            node_count=len(tree),
            live_node_count=tree.live_node_count,
            document_count=documents,
            max_depth=max(histogram, default=0),
            schema_classes=classes,
            schema_max_fanout=fanout,
            depth_histogram=histogram,
            struct_sizes=struct_sizes,
            text_sizes=text_sizes,
        )


def merge_stats(
    per_shard: "list[CollectionStats]",
    generation: int = 0,
    node_count: "int | None" = None,
) -> CollectionStats:
    """Statistics of the union collection behind N shards.

    Every decision input is additive across shards — posting lengths,
    document counts, depth histograms — *except* the super-root, which
    each shard duplicates: its ``#root`` posting, depth-0 entry, and
    live-node contribution are collapsed back to one so the merged
    numbers equal the unsharded collection's (the shard/single-store
    plan-agreement test pins this).  ``node_count`` lets the caller
    substitute the manifest's global pre count (trailing tombstones
    occupy global pres no shard holds).  The DataGuide-shape fields are
    *not* merge-exact (shards build independent schemas, so shared
    classes double-count); they stay observability-only.
    """
    if not per_shard:
        return CollectionStats(generation=generation)
    extras = len(per_shard) - 1
    struct_sizes: dict[str, int] = {}
    text_sizes: dict[str, int] = {}
    histogram: dict[int, int] = {}
    for stats in per_shard:
        for label, size in stats.struct_sizes.items():
            _bump(struct_sizes, label, size)
        for label, size in stats.text_sizes.items():
            _bump(text_sizes, label, size)
        for depth, count in stats.depth_histogram.items():
            _bump(histogram, depth, count)
    if ROOT_LABEL in struct_sizes:
        struct_sizes[ROOT_LABEL] = 1
    if 0 in histogram:
        histogram[0] = 1
    merged_nodes = sum(stats.node_count for stats in per_shard) - extras
    return CollectionStats(
        generation=generation,
        node_count=node_count if node_count is not None else merged_nodes,
        live_node_count=sum(s.live_node_count for s in per_shard) - extras,
        document_count=sum(s.document_count for s in per_shard),
        max_depth=max(histogram, default=0),
        schema_classes=max(0, sum(s.schema_classes for s in per_shard) - extras),
        schema_max_fanout=max((s.schema_max_fanout for s in per_shard), default=0),
        depth_histogram=histogram,
        struct_sizes=struct_sizes,
        text_sizes=text_sizes,
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


def _schema_shape(schema: Schema) -> tuple[int, int]:
    """(class count, max fan-out) of a DataGuide, in one parent pass."""
    children = [0] * len(schema)
    for node in range(len(schema)):
        parent = schema.parents[node]
        if parent >= 0:
            children[parent] += 1
    return len(schema), max(children, default=0)


__all__ = ["CollectionStats", "merge_stats"]
