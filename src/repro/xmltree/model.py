"""The data-tree model of Section 4 with the encoding of Section 6.2.

A :class:`DataTree` is the labeled tree built from a collection of XML
documents: ``struct`` nodes for elements and attribute names, ``text``
leaf nodes for individual words of element text and attribute values, and
one artificial super-root (label ``#root``) above all document roots.

The tree is stored in **columnar preorder form**: node *pre* numbers index
parallel typed columns — ``array('q')`` for parent, bound and the child
links, ``array('d')`` for inscost and pathcost, a ``bytearray`` of node
types, and a label column that holds one shared (interned) ``str`` per
distinct label.  No column holds a Python object per node, which keeps
million-node collections affordable in CPython and makes the pre/bound
interval encoding of the paper the native representation rather than an
afterthought.
"""

from __future__ import annotations

import enum
import re
from array import array
from collections.abc import Callable, Iterator
from itertools import accumulate, compress
from sys import intern

from ..errors import EvaluationError, ReproError

ROOT_LABEL = "#root"

# Unicode letters and digits (underscore excluded): matches accented
# Latin, Cyrillic, CJK, ... — anything \w considers a word character.
_WORD_PATTERN = re.compile(r"[^\W_]+", re.UNICODE)


class NodeType(enum.IntEnum):
    """The two node types of the model (Section 4)."""

    STRUCT = 0
    TEXT = 1


def tokenize(text: str) -> list[str]:
    """Split a text sequence into lowercase words (Section 4).

    Words are maximal runs of Unicode letters and digits; everything
    else (punctuation, underscores, whitespace) separates words.
    """
    return [match.group(0).lower() for match in _WORD_PATTERN.finditer(text)]


class DataTree:
    """Columnar labeled tree with the (pre, bound, inscost, pathcost)
    encoding of Section 6.2.

    Instances are produced by :class:`TreeBuilder` (or the convenience
    constructors in :mod:`repro.xmltree.builder`); the arrays are read-only
    by convention once building finishes.

    **Mutation** happens at document granularity and preserves every
    existing pre number: :meth:`graft_document` appends a new document's
    nodes at the tail (only the super-root's bound changes among existing
    nodes), and :meth:`mark_dead` tombstones a document root without
    touching the arrays — the interval test and the distance formula keep
    working for every surviving node because holes in the preorder never
    invalidate them.  :func:`compact_tree` squeezes the holes back out
    when a store is rewritten from scratch.
    """

    __slots__ = (
        "labels",
        "types",
        "parents",
        "bounds",
        "inscosts",
        "pathcosts",
        "dead_roots",
        "_first_child",
        "_next_sibling",
        "_insert_cost_fingerprint",
    )

    def __init__(self) -> None:
        #: one shared ``str`` per distinct label (``sys.intern``)
        self.labels: list[str] = []
        #: :class:`NodeType` values, one byte per node
        self.types = bytearray()
        self.parents = array("q")
        self.bounds = array("q")
        self.inscosts = array("d")
        self.pathcosts = array("d")
        #: document roots removed by :meth:`mark_dead`; their subtrees stay
        #: in the arrays as tombstones until :func:`compact_tree`
        self.dead_roots: set[int] = set()
        self._first_child = array("q")
        self._next_sibling = array("q")
        self._insert_cost_fingerprint: object = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> int:
        """Pre number of the super-root."""
        return 0

    def label(self, pre: int) -> str:
        """Label of the node at preorder number ``pre``."""
        return self.labels[pre]

    def node_type(self, pre: int) -> NodeType:
        """Node type (struct or text) of ``pre``."""
        return NodeType(self.types[pre])

    def parent(self, pre: int) -> int:
        """Parent pre number (-1 for the super-root)."""
        return self.parents[pre]

    def bound(self, pre: int) -> int:
        """Largest pre number inside the subtree rooted at ``pre``."""
        return self.bounds[pre]

    def children(self, pre: int) -> list[int]:
        """Pre numbers of the children of ``pre`` in document order."""
        result = []
        child = self._first_child[pre]
        while child != -1:
            result.append(child)
            child = self._next_sibling[child]
        return result

    def subtree(self, pre: int) -> range:
        """All pre numbers in the subtree rooted at ``pre`` (inclusive)."""
        return range(pre, self.bounds[pre] + 1)

    def depth(self, pre: int) -> int:
        """Number of edges from the super-root to ``pre``."""
        depth = 0
        while self.parents[pre] != -1:
            pre = self.parents[pre]
            depth += 1
        return depth

    def is_leaf(self, pre: int) -> bool:
        """Whether ``pre`` has no children."""
        return self._first_child[pre] == -1

    # ------------------------------------------------------------------
    # the Section 6.2 encoding
    # ------------------------------------------------------------------

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """The paper's interval test: ``pre(u) < pre(v) and bound(u) >= pre(v)``."""
        return ancestor < descendant and self.bounds[ancestor] >= descendant

    def distance(self, ancestor: int, descendant: int) -> float:
        """Sum of the insert costs of the nodes strictly between the two.

        ``distance(u, v) = pathcost(v) - pathcost(u) - inscost(u)``.
        """
        if not self.is_ancestor(ancestor, descendant):
            raise EvaluationError(
                f"distance undefined: {ancestor} is not an ancestor of {descendant}"
            )
        return self.pathcosts[descendant] - self.pathcosts[ancestor] - self.inscosts[ancestor]

    def encode_costs(
        self, insert_cost_of: Callable[[str], float], fingerprint: object = None
    ) -> None:
        """(Re)compute ``inscost``/``pathcost`` for every node.

        ``insert_cost_of(label)`` supplies the cost of inserting a struct
        node with that label into a query.  Text nodes are leaves and can
        never be inserted, so their inscost is 0 by convention.

        ``fingerprint`` lets callers skip redundant re-encodings: when it
        equals the fingerprint of the previous call, nothing happens.
        """
        if fingerprint is not None and fingerprint == self._insert_cost_fingerprint:
            return
        inscosts, pathcosts = self.inscosts, self.pathcosts
        cache: dict[str, float] = {}
        rows = zip(self.labels, self.types, self.parents)
        for pre, (label, is_text, parent) in enumerate(rows):
            if is_text:
                cost = 0.0
            else:
                cost = cache.get(label)
                if cost is None:
                    cost = cache[label] = insert_cost_of(label)
                    if cost < 0:
                        raise ReproError(f"negative insert cost for label {label!r}")
            inscosts[pre] = cost
            pathcosts[pre] = pathcosts[parent] + inscosts[parent] if parent >= 0 else 0.0
        self._insert_cost_fingerprint = fingerprint

    @property
    def insert_cost_fingerprint(self) -> object:
        """Fingerprint of the insert-cost table the encoding reflects."""
        return self._insert_cost_fingerprint

    # ------------------------------------------------------------------
    # traversal / inspection helpers
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator[int]:
        """All preorder numbers, in order."""
        return iter(range(len(self.labels)))

    def document_roots(self) -> list[int]:
        """Pre numbers of the roots of the *live* documents (tombstoned
        documents are excluded; see :meth:`mark_dead`)."""
        roots = self.children(self.root)
        if not self.dead_roots:
            return roots
        dead = self.dead_roots
        return [root for root in roots if root not in dead]

    # ------------------------------------------------------------------
    # document-level mutation
    # ------------------------------------------------------------------

    def graft_document(
        self, document: "DataTree", insert_cost_of: Callable[[str], float]
    ) -> int:
        """Append another tree's single document at the tail of this one.

        ``document`` must hold exactly one document (as built by
        :func:`~repro.xmltree.builder.tree_from_xml` from one XML string).
        Its nodes receive the next ``len(document) - 1`` pre numbers, so
        no existing node is renumbered and every existing bound except
        the super-root's is untouched — the append is invisible to any
        reader holding the old node count.  ``insert_cost_of`` must be
        the cost table of the current encoding so path costs stay
        telescoped; returns the grafted document's root pre.
        """
        roots = document.children(0)
        if len(roots) != 1:
            raise ReproError(
                f"graft_document needs exactly one document, got {len(roots)}"
            )
        offset = len(self.labels) - 1  # document pre i >= 1 maps to offset + i
        root_pre = offset + 1
        count = len(document.labels) - 1
        parents = [offset + parent if parent else 0 for parent in document.parents[1:]]
        # both cost columns first: a rejected cost leaves the tree untouched
        inscosts = array("d", bytes(8 * count))
        pathcosts = array("d", bytes(8 * count))
        cache: dict[str, float] = {}
        for index in range(count):
            if document.types[index + 1] != NodeType.TEXT:
                label = document.labels[index + 1]
                cost = cache.get(label)
                if cost is None:
                    cost = cache[label] = insert_cost_of(label)
                    if cost < 0:
                        raise ReproError(f"negative insert cost for label {label!r}")
                inscosts[index] = cost
            above = parents[index] - root_pre  # < 0: the super-root
            pathcosts[index] = (
                pathcosts[above] + inscosts[above]
                if above >= 0
                else self.pathcosts[0] + self.inscosts[0]
            )
        self.labels.extend(map(intern, document.labels[1:]))
        self.types.extend(document.types[1:])
        self.parents.extend(parents)
        self.bounds.extend([offset + bound for bound in document.bounds[1:]])
        self.inscosts.extend(inscosts)
        self.pathcosts.extend(pathcosts)
        for target, links in (
            (self._first_child, document._first_child),
            (self._next_sibling, document._next_sibling),
        ):
            target.extend([link if link == -1 else offset + link for link in links[1:]])
        # link the new root as the last child of the super-root
        last = self._first_child[0]
        if last == -1:
            self._first_child[0] = root_pre
        else:
            while self._next_sibling[last] != -1:
                last = self._next_sibling[last]
            self._next_sibling[last] = root_pre
        self.bounds[0] = len(self.labels) - 1
        return root_pre

    def ungraft(self, start: int) -> None:
        """Roll back the most recent :meth:`graft_document` (whose root
        landed at ``start``): truncate the arrays and unlink the root
        from the super-root's child chain.  Only valid while the grafted
        document is still the tail of the tree — the mutation layer uses
        this to leave the in-memory tree untouched when an index write
        fails midway."""
        if start <= 0 or start >= len(self.labels) or self.parents[start] != 0:
            raise ReproError(f"pre {start} is not a graft boundary")
        del self.labels[start:]
        del self.types[start:]
        del self.parents[start:]
        del self.bounds[start:]
        del self.inscosts[start:]
        del self.pathcosts[start:]
        del self._first_child[start:]
        del self._next_sibling[start:]
        child = self._first_child[0]
        if child == start:
            self._first_child[0] = -1
        else:
            while child != -1 and self._next_sibling[child] != start:
                child = self._next_sibling[child]
            if child != -1:
                self._next_sibling[child] = -1
        self.bounds[0] = start - 1

    def mark_dead(self, root: int) -> None:
        """Tombstone the document rooted at ``root``.

        The document's nodes stay in the arrays (holes in the preorder
        never break the interval test or the distance formula for the
        survivors) but vanish from :meth:`document_roots` and from every
        index and schema instance list maintained above the tree.
        """
        if root <= 0 or root >= len(self.labels) or self.parents[root] != 0:
            raise ReproError(f"pre {root} is not a document root")
        if root in self.dead_roots:
            raise ReproError(f"document at pre {root} was already removed")
        self.dead_roots.add(root)

    def is_live(self, pre: int) -> bool:
        """Whether ``pre`` belongs to a live document (the super-root is
        always live)."""
        for root in self.dead_roots:
            if root <= pre <= self.bounds[root]:
                return False
        return True

    def live_flags(self) -> bytearray:
        """Per-node liveness as one byte per node (index = pre number)."""
        flags = bytearray(b"\x01") * len(self.labels)
        for root in self.dead_roots:
            flags[root : self.bounds[root] + 1] = bytes(self.bounds[root] - root + 1)
        return flags

    @property
    def live_node_count(self) -> int:
        """Number of nodes in live documents, super-root included."""
        dead = sum(self.bounds[root] - root + 1 for root in self.dead_roots)
        return len(self.labels) - dead

    def rebuild_links(self) -> None:
        """Recompute the first-child/next-sibling navigation arrays from
        the parent column (used after bulk array surgery)."""
        self._first_child, self._next_sibling = child_links(self.parents)

    def label_type_path(self, pre: int) -> tuple[tuple[str, NodeType], ...]:
        """The label-type path from the super-root down to ``pre``
        (Definition 13), excluding the super-root itself."""
        path = []
        while self.parents[pre] != -1:
            path.append((self.labels[pre], NodeType(self.types[pre])))
            pre = self.parents[pre]
        return tuple(reversed(path))

    def format_subtree(self, pre: int = 0, max_depth: int = 10) -> str:
        """Render a subtree as an indented outline (for examples/debugging)."""
        lines: list[str] = []
        self._format(pre, 0, max_depth, lines)
        return "\n".join(lines)

    def _format(self, pre: int, depth: int, max_depth: int, lines: list[str]) -> None:
        kind = "text" if self.types[pre] == NodeType.TEXT else "struct"
        lines.append(f"{'  ' * depth}{self.labels[pre]} [{kind} pre={pre} bound={self.bounds[pre]}]")
        if depth >= max_depth:
            return
        for child in self.children(pre):
            self._format(child, depth + 1, max_depth, lines)


def child_links(parents) -> tuple[array, array]:
    """The ``(first_child, next_sibling)`` columns a parent column implies."""
    first_child = array("q", [-1]) * len(parents)
    next_sibling = array("q", [-1]) * len(parents)
    last_child = array("q", [-1]) * len(parents)
    for pre, parent in enumerate(parents):
        if parent < 0:
            continue
        previous = last_child[parent]
        if previous == -1:
            first_child[parent] = pre
        else:
            next_sibling[previous] = pre
        last_child[parent] = pre
    return first_child, next_sibling


class TreeBuilder:
    """Incremental preorder construction of a :class:`DataTree`.

    Usage::

        builder = TreeBuilder()
        builder.start_struct("cd")
        builder.start_struct("title")
        builder.add_word("piano")
        builder.add_word("concerto")
        builder.end_struct()
        builder.end_struct()
        tree = builder.finish()

    The super-root is created implicitly; every ``start_struct`` at depth
    zero starts a new document under it.
    """

    def __init__(self) -> None:
        self._tree = DataTree()
        self._stack: list[int] = []
        self._last_child_of: dict[int, int] = {}
        self._finished = False
        self._append(ROOT_LABEL, NodeType.STRUCT, parent=-1)
        self._stack.append(0)

    def _append(self, label: str, node_type: NodeType, parent: int) -> int:
        tree = self._tree
        pre = len(tree.labels)
        tree.labels.append(intern(label))
        tree.types.append(node_type)
        tree.parents.append(parent)
        tree.bounds.append(pre)
        tree.inscosts.append(0.0)
        tree.pathcosts.append(0.0)
        tree._first_child.append(-1)
        tree._next_sibling.append(-1)
        if parent != -1:
            previous = self._last_child_of.get(parent, -1)
            if previous == -1:
                tree._first_child[parent] = pre
            else:
                tree._next_sibling[previous] = pre
            self._last_child_of[parent] = pre
        return pre

    def start_struct(self, label: str) -> int:
        """Open a struct node; returns its pre number."""
        self._check_building()
        if not label:
            raise ReproError("struct nodes need a non-empty label")
        pre = self._append(label, NodeType.STRUCT, parent=self._stack[-1])
        self._stack.append(pre)
        return pre

    def add_word(self, word: str) -> int:
        """Add one text leaf under the current struct node."""
        self._check_building()
        if len(self._stack) < 2:
            raise ReproError("text must appear inside a document element")
        if not word:
            raise ReproError("text nodes need a non-empty label")
        return self._append(word, NodeType.TEXT, parent=self._stack[-1])

    def add_words(self, words: list[str]) -> range:
        """Add one text leaf per word under the current struct node — a
        run of leaves is one extension per column, not a call per word."""
        self._check_building()
        if len(self._stack) < 2:
            raise ReproError("text must appear inside a document element")
        if not all(words):
            raise ReproError("text nodes need a non-empty label")
        tree, parent = self._tree, self._stack[-1]
        start, count = len(tree.labels), len(words)
        if count:
            tree.labels.extend(map(intern, words))
            tree.types.extend(bytes((NodeType.TEXT,)) * count)
            tree.parents.extend([parent] * count)
            tree.bounds.extend(range(start, start + count))
            tree.inscosts.extend([0.0] * count)
            tree.pathcosts.extend([0.0] * count)
            tree._first_child.extend([-1] * count)
            tree._next_sibling.extend(range(start + 1, start + count))
            tree._next_sibling.append(-1)
            previous = self._last_child_of.get(parent, -1)
            if previous == -1:
                tree._first_child[parent] = start
            else:
                tree._next_sibling[previous] = start
            self._last_child_of[parent] = start + count - 1
        return range(start, start + count)

    def add_text(self, text: str) -> list[int]:
        """Tokenize ``text`` and add one leaf per word."""
        return list(self.add_words(tokenize(text)))

    def end_struct(self) -> None:
        """Close the current struct node and fix its bound."""
        self._check_building()
        if len(self._stack) < 2:
            raise ReproError("end_struct without matching start_struct")
        pre = self._stack.pop()
        self._tree.bounds[pre] = len(self._tree.labels) - 1

    def finish(self) -> DataTree:
        """Close the super-root and return the finished tree."""
        self._check_building()
        if len(self._stack) != 1:
            raise ReproError(f"{len(self._stack) - 1} unclosed struct node(s) at finish()")
        self._tree.bounds[0] = len(self._tree.labels) - 1
        self._finished = True
        # default encoding: every insertion costs 1 (the paper's default);
        # the fingerprint matches CostModel().insert_fingerprint so a
        # default cost model never triggers a redundant re-encode
        self._tree.encode_costs(lambda label: 1.0, fingerprint=(1.0, ()))
        return self._tree

    def _check_building(self) -> None:
        if self._finished:
            raise ReproError("builder already finished")


def extract_document(tree: DataTree, root: int) -> DataTree:
    """Copy the document rooted at ``root`` into a standalone tree — a
    fresh super-root with the document as its only child, exactly the
    shape :func:`~repro.xmltree.builder.tree_from_xml` produces and
    :meth:`DataTree.graft_document` consumes.

    This is how a collection is re-partitioned without round-tripping
    through XML: the sharding layer splits a built tree document by
    document and grafts each copy into the owning shard's tree, so the
    per-document preorder (and therefore every per-document query
    answer) is preserved bit for bit.
    """
    if root <= 0 or root >= len(tree.labels) or tree.parents[root] != 0:
        raise ReproError(f"pre {root} is not a document root")
    out = DataTree()
    bound = tree.bounds[root]
    offset = root - 1  # original pre p maps to p - offset; the root lands at 1
    span = slice(root, bound + 1)
    out.labels = [ROOT_LABEL, *tree.labels[span]]
    out.types = bytearray(1) + tree.types[span]
    out.parents = array("q", [-1])
    out.parents.extend([parent - offset if parent else 0 for parent in tree.parents[span]])
    out.bounds = array("q", [bound - offset])
    out.bounds.extend([inner - offset for inner in tree.bounds[span]])
    # grafting re-derives both cost columns from the target tree's
    # insert-cost table; zeros keep the copy honest until then
    out.inscosts = array("d", bytes(8 * len(out.labels)))
    out.pathcosts = array("d", bytes(8 * len(out.labels)))
    out.rebuild_links()
    return out


def compact_tree(tree: DataTree) -> DataTree:
    """Return a dense copy of ``tree`` with every tombstoned document
    squeezed out (the original is returned unchanged when there are no
    tombstones).

    Dead documents are whole subtrees, so every live node's subtree is
    entirely live and the renumbering is a single order-preserving pass:
    old bounds map position-for-position, parents through the same map.
    The insert-cost fingerprint is carried over because per-node costs are
    copied verbatim.
    """
    if not tree.dead_roots:
        return tree
    flags = tree.live_flags()
    # new_of[pre] is the new number of a live pre (and, for the super-root's
    # bound, of the last live node at or before a dead one)
    new_of = array("q", accumulate(flags, initial=-1))[1:]
    out = DataTree()
    out.labels = list(compress(tree.labels, flags))
    out.types = bytearray(compress(tree.types, flags))
    out.parents = array(
        "q", [parent if parent < 0 else new_of[parent] for parent in compress(tree.parents, flags)]
    )
    out.bounds = array("q", [new_of[bound] for bound in compress(tree.bounds, flags)])
    out.inscosts = array("d", compress(tree.inscosts, flags))
    out.pathcosts = array("d", compress(tree.pathcosts, flags))
    out.rebuild_links()
    out._insert_cost_fingerprint = tree._insert_cost_fingerprint
    return out
