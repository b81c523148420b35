"""The expanded query representation (Section 6.1).

The expanded representation encodes *all* semi-transformed queries — the
queries derivable by deletions and renamings but no insertions — in one
DAG of four representation types:

``node``
    An inner name selector; carries its label and the finite renamings.
``leaf``
    A text selector or a bare name selector (a struct leaf); carries its
    label, finite renamings, and its delete cost.
``and``
    A binary conjunction.
``or``
    Either a genuine ``or`` of the query (edge cost 0) or the deletion
    choice for a deletable inner node: the left edge leads to the node,
    the right edge *bridges* it and is annotated with the delete cost.

Bridging edges point at the **same** child object the node itself uses,
which makes the representation a DAG; algorithm ``primary`` keeps one
match list per selector (built in the widest scope that reaches it) and
one list per (node, ancestor list) — the paper's "dynamic programming to
avoid the duplicate evaluation of query subtrees".
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterator

from ..errors import QuerySyntaxError
from ..xmltree.model import NodeType
from .ast import AndExpr, NameSelector, OrExpr, QueryExpr, TextSelector
from .costs import INFINITE, CostModel


class RepType(enum.Enum):
    NODE = "node"
    LEAF = "leaf"
    AND = "and"
    OR = "or"


class ExpandedNode:
    """One node of the expanded representation DAG."""

    __slots__ = (
        "uid",
        "reptype",
        "label",
        "node_type",
        "renamings",
        "delcost",
        "child",
        "left",
        "right",
        "edgecost",
    )

    def __init__(self, uid: int, reptype: RepType) -> None:
        self.uid = uid
        self.reptype = reptype
        self.label: str = ""
        self.node_type: NodeType = NodeType.STRUCT
        self.renamings: list[tuple[str, float]] = []
        self.delcost: float = INFINITE
        self.child: ExpandedNode | None = None
        self.left: ExpandedNode | None = None
        self.right: ExpandedNode | None = None
        self.edgecost: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.reptype in (RepType.NODE, RepType.LEAF):
            return f"ExpandedNode({self.reptype.value} {self.label!r} uid={self.uid})"
        return f"ExpandedNode({self.reptype.value} uid={self.uid})"


class ExpandedQuery:
    """The expanded representation of one approXQL query."""

    def __init__(self, root: ExpandedNode, node_count: int, leaf_uids: frozenset[int]) -> None:
        self.root = root
        self.node_count = node_count
        #: uids of the ``leaf`` representation nodes — the query leaves the
        #: global "at least one leaf must match" rule ranges over.
        self.leaf_uids = leaf_uids
        # the label sets, each computed once: the DAG never changes
        self._labels: "frozenset[str] | None" = None
        self._leaf_labels: "frozenset[tuple[NodeType, str]] | None" = None

    def iter_unique_nodes(self) -> Iterator[ExpandedNode]:
        """Every DAG node exactly once (preorder, left before right)."""
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.uid in seen:
                continue
            seen.add(node.uid)
            yield node
            for successor in (node.right, node.left, node.child):
                if successor is not None:
                    stack.append(successor)

    def labels(self) -> "frozenset[str]":
        """Every label a direct evaluation fetches: each selector's own
        and its renaming targets."""
        labels = self._labels
        if labels is None:
            labels = self._labels = frozenset(
                label
                for node in self.iter_unique_nodes()
                if node.reptype in (RepType.NODE, RepType.LEAF)
                for label in (node.label, *(target for target, _ in node.renamings))
            )
        return labels

    def leaf_labels(self) -> "frozenset[tuple[NodeType, str]]":
        """The ``(node type, label)`` pairs a leaf selector matches: its
        own label and its renaming targets, of its node type.  Every
        answer's subtree holds a node carrying one of them (the global
        "at least one leaf must match" rule)."""
        leaf_labels = self._leaf_labels
        if leaf_labels is None:
            leaf_labels = self._leaf_labels = frozenset(
                (node.node_type, label)
                for node in self.iter_unique_nodes()
                if node.uid in self.leaf_uids
                for label in (node.label, *(target for target, _ in node.renamings))
            )
        return leaf_labels

    def max_renamings(self) -> int:
        """The *r* of the complexity bound: maximal renamings per selector."""
        counts = [
            len(node.renamings)
            for node in self.iter_unique_nodes()
            if node.reptype in (RepType.NODE, RepType.LEAF)
        ]
        return max(counts, default=0)

    def format(self) -> str:
        """Indented rendering of the DAG (shared nodes marked)."""
        lines: list[str] = []
        seen: set[int] = set()
        self._format(self.root, 0, "", seen, lines)
        return "\n".join(lines)

    def _format(
        self, node: ExpandedNode, depth: int, edge: str, seen: set[int], lines: list[str]
    ) -> None:
        indent = "  " * depth + edge
        if node.uid in seen:
            lines.append(f"{indent}*shared uid={node.uid}*")
            return
        seen.add(node.uid)
        if node.reptype == RepType.LEAF:
            extras = "".join(f" |{label}:{cost}" for label, cost in node.renamings)
            lines.append(
                f"{indent}leaf {node.label!r}{extras} del={node.delcost} uid={node.uid}"
            )
        elif node.reptype == RepType.NODE:
            extras = "".join(f" |{label}:{cost}" for label, cost in node.renamings)
            lines.append(f"{indent}node {node.label!r}{extras} uid={node.uid}")
            assert node.child is not None
            self._format(node.child, depth + 1, "", seen, lines)
        elif node.reptype == RepType.AND:
            lines.append(f"{indent}and uid={node.uid}")
            assert node.left is not None and node.right is not None
            self._format(node.left, depth + 1, "", seen, lines)
            self._format(node.right, depth + 1, "", seen, lines)
        else:
            lines.append(f"{indent}or edge={node.edgecost} uid={node.uid}")
            assert node.left is not None and node.right is not None
            self._format(node.left, depth + 1, "", seen, lines)
            self._format(node.right, depth + 1, "bridge: ", seen, lines)


class _Builder:
    def __init__(self, costs: CostModel) -> None:
        self._costs = costs
        self._uids = itertools.count()
        self._leaf_uids: set[int] = set()

    def _new(self, reptype: RepType) -> ExpandedNode:
        return ExpandedNode(next(self._uids), reptype)

    def build_root(self, query: NameSelector) -> ExpandedNode:
        # The root is never deletable (Definition 3) and is always a
        # ``node`` unless the whole query is a single bare selector.
        if query.content is None:
            return self._build_leaf(query.label, NodeType.STRUCT)
        node = self._new(RepType.NODE)
        node.label = query.label
        node.node_type = NodeType.STRUCT
        node.renamings = self._costs.renamings(query.label, NodeType.STRUCT)
        node.child = self.build_expr(query.content)
        return node

    def build_expr(self, expr: QueryExpr) -> ExpandedNode:
        if isinstance(expr, TextSelector):
            return self._build_leaf(expr.word, NodeType.TEXT)
        if isinstance(expr, NameSelector):
            return self._build_name(expr)
        if isinstance(expr, AndExpr):
            return self._fold(expr.items, RepType.AND)
        if isinstance(expr, OrExpr):
            return self._fold(expr.items, RepType.OR)
        raise QuerySyntaxError(f"unexpected expression node {type(expr).__name__}")

    def _fold(self, items: tuple[QueryExpr, ...], reptype: RepType) -> ExpandedNode:
        current = self.build_expr(items[0])
        for item in items[1:]:
            parent = self._new(reptype)
            parent.left = current
            parent.right = self.build_expr(item)
            parent.edgecost = 0.0
            current = parent
        return current

    def _build_leaf(self, label: str, node_type: NodeType) -> ExpandedNode:
        leaf = self._new(RepType.LEAF)
        leaf.label = label
        leaf.node_type = node_type
        leaf.renamings = self._costs.renamings(label, node_type)
        leaf.delcost = self._costs.delete_cost(label, node_type)
        self._leaf_uids.add(leaf.uid)
        return leaf

    def _build_name(self, selector: NameSelector) -> ExpandedNode:
        if selector.content is None:
            return self._build_leaf(selector.label, NodeType.STRUCT)
        inner = self.build_expr(selector.content)
        node = self._new(RepType.NODE)
        node.label = selector.label
        node.node_type = NodeType.STRUCT
        node.renamings = self._costs.renamings(selector.label, NodeType.STRUCT)
        node.child = inner
        delcost = self._costs.delete_cost(selector.label, NodeType.STRUCT)
        if delcost == INFINITE:
            return node
        # deletable inner node: or-parent whose right edge bridges to the
        # *shared* child representation
        choice = self._new(RepType.OR)
        choice.left = node
        choice.right = inner
        choice.edgecost = delcost
        return choice


def build_expanded(query: NameSelector, costs: CostModel) -> ExpandedQuery:
    """Build the expanded representation of ``query`` under ``costs``."""
    builder = _Builder(costs)
    root = builder.build_root(query)
    node_count = sum(1 for _ in ExpandedQuery(root, 0, frozenset()).iter_unique_nodes())
    return ExpandedQuery(root, node_count, frozenset(builder._leaf_uids))
