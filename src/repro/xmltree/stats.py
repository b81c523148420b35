"""Collection statistics: the quantities the complexity bounds use.

Section 6.5 bounds the direct evaluation by ``O(n² · r · s · l)`` where
*s* is the maximal posting length (selectivity) and *l* the maximal
number of repetitions of a label along a path (recursivity); Section 7.4
adds the schema-side selectivity *s_s* and the maximal instance count
*s_d*.  This module measures all of them for a collection, so experiment
reports can state the regime a workload is in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import DataTree, NodeType


@dataclass
class CollectionStatistics:
    """Measured characteristics of one data tree (and optionally its
    schema)."""

    node_count: int = 0
    struct_count: int = 0
    text_count: int = 0
    document_count: int = 0
    distinct_element_names: int = 0
    distinct_terms: int = 0
    max_depth: int = 0
    #: s — the longest posting over both indexes
    max_selectivity: int = 0
    #: the label realizing s
    max_selectivity_label: str = ""
    #: l — the most repetitions of one label along a root-to-leaf path
    max_label_repetition: int = 0
    #: schema-side numbers (0 when no schema was given)
    schema_size: int = 0
    schema_selectivity: int = 0
    max_instances_per_class: int = 0

    def format(self) -> str:
        """Readable multi-line summary of the measured quantities."""
        lines = [
            f"nodes: {self.node_count} ({self.struct_count} struct, {self.text_count} text)"
            f" in {self.document_count} document(s)",
            f"vocabulary: {self.distinct_element_names} element names, "
            f"{self.distinct_terms} terms",
            f"selectivity s = {self.max_selectivity} (label {self.max_selectivity_label!r})",
            f"recursivity l = {self.max_label_repetition}, max depth = {self.max_depth}",
        ]
        if self.schema_size:
            lines.append(
                f"schema: {self.schema_size} classes, s_s = {self.schema_selectivity}, "
                f"s_d = {self.max_instances_per_class}"
            )
        return "\n".join(lines)


def collect_statistics(tree: DataTree, schema=None) -> CollectionStatistics:
    """Measure ``tree`` (and ``schema`` when given)."""
    stats = CollectionStatistics()
    stats.node_count = len(tree)
    stats.document_count = len(tree.document_roots())

    struct_counts: dict[str, int] = {}
    text_counts: dict[str, int] = {}
    for pre in range(len(tree)):
        if tree.types[pre] == NodeType.STRUCT:
            stats.struct_count += 1
            struct_counts[tree.labels[pre]] = struct_counts.get(tree.labels[pre], 0) + 1
        else:
            stats.text_count += 1
            text_counts[tree.labels[pre]] = text_counts.get(tree.labels[pre], 0) + 1
    stats.distinct_element_names = len(struct_counts)
    stats.distinct_terms = len(text_counts)
    for table in (struct_counts, text_counts):
        for label, count in table.items():
            if count > stats.max_selectivity:
                stats.max_selectivity = count
                stats.max_selectivity_label = label

    # max depth in one preorder walk (parents come before children)
    depth_of: list[int] = [0] * len(tree)
    for pre in range(1, len(tree)):
        depth_of[pre] = depth_of[tree.parents[pre]] + 1
    stats.max_depth = max(depth_of, default=0)
    # label repetition: walk each root-to-node path implicitly by keeping
    # counts keyed on (label); a stack-based traversal avoids O(N·depth)
    path_counts: dict[str, int] = {}
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        pre, done = stack.pop()
        label = tree.labels[pre]
        if done:
            path_counts[label] -= 1
            continue
        path_counts[label] = path_counts.get(label, 0) + 1
        if path_counts[label] > stats.max_label_repetition:
            stats.max_label_repetition = path_counts[label]
        stack.append((pre, True))
        for child in tree.children(pre):
            stack.append((child, False))

    if schema is not None:
        stats.schema_size = len(schema)
        label_counts: dict[tuple[str, int], int] = {}
        for node in range(len(schema)):
            key = (schema.labels[node], int(schema.types[node]))
            label_counts[key] = label_counts.get(key, 0) + 1
            instances = schema.instance_count(node)
            if instances > stats.max_instances_per_class:
                stats.max_instances_per_class = instances
        stats.schema_selectivity = max(label_counts.values(), default=0)
    return stats
