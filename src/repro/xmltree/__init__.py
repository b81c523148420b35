"""XML substrate: parser, document model, data tree, encoding, indexes.

This package implements Sections 4 and 6.2 of the paper: XML documents
are normalized into one labeled *data tree* of ``struct`` and ``text``
nodes, each node carries the ``(pre, bound, inscost, pathcost)`` encoding,
and the inverted indexes ``I_struct`` / ``I_text`` map labels to postings.
"""

from .builder import BuildOptions, CollectionBuilder, tree_from_xml
from .indexes import MemoryNodeIndexes, NodeIndexes
from .model import ROOT_LABEL, DataTree, NodeType, TreeBuilder, compact_tree, tokenize
from .parser import XMLElement, parse_document, parse_fragment
from .serialize import collection_to_xml, escape_text, subtree_to_xml
from .stats import CollectionStatistics, collect_statistics
from .validate import validate_tree

__all__ = [
    "ROOT_LABEL",
    "BuildOptions",
    "CollectionBuilder",
    "DataTree",
    "MemoryNodeIndexes",
    "NodeIndexes",
    "NodeType",
    "TreeBuilder",
    "CollectionStatistics",
    "XMLElement",
    "collect_statistics",
    "collection_to_xml",
    "compact_tree",
    "escape_text",
    "parse_document",
    "parse_fragment",
    "subtree_to_xml",
    "tokenize",
    "tree_from_xml",
    "validate_tree",
]
